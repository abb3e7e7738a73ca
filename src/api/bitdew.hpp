// The BitDew API (paper §3.3): data-space slot creation, put/get of
// content, search, deletion and attribute construction. All operations are
// asynchronous with completion callbacks carrying Expected<T> (the typed
// error channel); the Session facade layers blocking waits on top.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "api/service_bus.hpp"

namespace bitdew::api {

class BitDew {
 public:
  /// `host_name` identifies this node towards the services.
  BitDew(ServiceBus& bus, std::string host_name)
      : bus_(bus), host_(std::move(host_name)) {}

  /// Creates a data slot from a content descriptor and registers it in the
  /// DC. The returned Data is immediately usable; `done` fires once the
  /// catalog acknowledged (Errc::kDuplicate on an already-registered uid).
  core::Data create_data(const std::string& name, const core::Content& content,
                         Reply<Status> done = nullptr);

  /// Creates an empty slot (the paper's Collector is one).
  core::Data create_data(const std::string& name, Reply<Status> done = nullptr);

  /// Creates and registers N slots through one dc_register_batch call: one
  /// service round-trip regardless of the batch size. `done` receives the
  /// per-slot outcomes, index-aligned with the returned vector.
  std::vector<core::Data> create_data_batch(
      const std::vector<std::pair<std::string, core::Content>>& slots,
      Reply<BatchStatus> done = nullptr);

  /// Copies content into the data space: registers it with the Data
  /// Repository and publishes the resulting locator. Failure surfaces the
  /// stage that broke (dr upload/registration or dc locator insert).
  void put(const core::Data& data, const core::Content& content, Reply<Status> done = nullptr,
           const std::string& protocol = "ftp");

  /// Declares that this node holds the content locally and can serve it
  /// (used by workers producing results; publishes a locator naming this
  /// host instead of uploading to the repository).
  void offer_local(const core::Data& data, const std::string& protocol = "http",
                   Reply<Status> done = nullptr);

  /// Looks up the locators for a datum (transfer sources). Unknown uids
  /// fail with Errc::kNotFound.
  void locate(const util::Auid& uid, Reply<Expected<std::vector<core::Locator>>> done) {
    bus_.dc_locators(uid, std::move(done));
  }

  /// The paper's searchData: first datum registered under `name`
  /// (Errc::kNotFound when nothing matches).
  void search(const std::string& name, Reply<Expected<core::Data>> done);

  /// Deletes a datum everywhere: catalog, repository and scheduler (hosts
  /// drop their replicas at the next synchronization). Scheduler and
  /// repository misses are tolerated (the datum may never have been
  /// scheduled or stored); the final status is the catalog removal's.
  void remove(const core::Data& data, Reply<Status> done = nullptr);

  /// Builds typed attributes from the DSL. Symbolic references resolve
  /// against data this node has created or searched. An `abstime` lifetime
  /// stays a duration here; the Data Scheduler anchors it against its own
  /// clock when the schedule request arrives.
  core::DataAttributes create_attribute(const std::string& text) const;

  /// Generic DHT access (paper: "publish any key/value pairs").
  void publish(const std::string& key, const std::string& value, Reply<Status> done = nullptr) {
    bus_.ddc_publish(key, value, done ? std::move(done) : [](Status) {});
  }
  /// Bulk publish: one round-trip for N pairs.
  void publish_batch(const std::vector<KeyValue>& pairs, Reply<BatchStatus> done = nullptr) {
    bus_.ddc_publish_batch(pairs, done ? std::move(done) : [](BatchStatus) {});
  }
  void lookup(const std::string& key, Reply<Expected<std::vector<std::string>>> done) {
    bus_.ddc_search(key, std::move(done));
  }

  /// Data known locally by name (created, found through search(), or
  /// remembered).
  std::optional<core::Data> known(const std::string& name) const;
  /// Records `data` as the datum known by its name.
  void remember(const core::Data& data);

  const std::string& host_name() const { return host_; }
  ServiceBus& bus() { return bus_; }

 private:
  ServiceBus& bus_;
  std::string host_;
  std::map<std::string, core::Data> known_by_name_;
};

}  // namespace bitdew::api
