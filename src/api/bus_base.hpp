// BusBase: the ServiceBus overrides, written once for all three buses. Each
// forwards to the bus's generic call<Op>, where Op is the endpoint's entry in
// the bus endpoint list (api/service_ops.hpp); the bus decides what a call
// is — a function call (DirectServiceBus), request/response flows on the
// simulated network (SimServiceBus) or a framed RPC (RemoteServiceBus).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "api/service_bus.hpp"
#include "api/service_ops.hpp"

namespace bitdew::api {

/// The item count of a call: a batch's one argument is its item list.
template <typename Op, typename... A>
std::size_t call_items(const A&... args) {
  if constexpr (Op::kBatch) {
    return (args.size(), ...);
  } else {
    return 1;
  }
}

/// A reply of type R that failed with `error`: index-aligned copies of it
/// for a batch of `items`, the error itself otherwise.
template <typename R>
R failed(const Error& error, std::size_t items) {
  if constexpr (ops::kIsList<R>) {
    return R(items, typename R::value_type(error));
  } else {
    return R(error);
  }
}

template <typename Bus>
class BusBase : public ServiceBus {
  using E = rpc::wire::Endpoint;

 public:
  void dc_register(const core::Data& data, Reply<Status> done) final {
    to<E::kDcRegister>(std::move(done), data);
  }
  void dc_get(const util::Auid& uid, Reply<Expected<core::Data>> done) final {
    to<E::kDcGet>(std::move(done), uid);
  }
  void dc_search(const std::string& name, Reply<Expected<std::vector<core::Data>>> done) final {
    to<E::kDcSearch>(std::move(done), name);
  }
  void dc_remove(const util::Auid& uid, Reply<Status> done) final {
    to<E::kDcRemove>(std::move(done), uid);
  }
  void dc_add_locator(const core::Locator& locator, Reply<Status> done) final {
    to<E::kDcAddLocator>(std::move(done), locator);
  }
  void dc_locators(const util::Auid& uid,
                   Reply<Expected<std::vector<core::Locator>>> done) final {
    to<E::kDcLocators>(std::move(done), uid);
  }
  void dr_put(const core::Data& data, const core::Content& content, const std::string& protocol,
              Reply<Expected<core::Locator>> done) final {
    to<E::kDrPut>(std::move(done), data, content, protocol);
  }
  void dr_get(const util::Auid& uid, Reply<Expected<core::Content>> done) final {
    to<E::kDrGet>(std::move(done), uid);
  }
  void dr_remove(const util::Auid& uid, Reply<Status> done) final {
    to<E::kDrRemove>(std::move(done), uid);
  }
  void dr_put_start(const core::Data& data, Reply<Expected<std::int64_t>> done) final {
    to<E::kDrPutStart>(std::move(done), data);
  }
  void dr_put_chunk(const util::Auid& uid, std::int64_t offset, const std::string& bytes,
                    Reply<Status> done) final {
    to<E::kDrPutChunk>(std::move(done), uid, offset, bytes);
  }
  void dr_put_commit(const util::Auid& uid, const std::string& protocol,
                     Reply<Expected<core::Locator>> done) final {
    to<E::kDrPutCommit>(std::move(done), uid, protocol);
  }
  void dr_get_chunk(const util::Auid& uid, std::int64_t offset, std::int64_t max_bytes,
                    Reply<Expected<std::string>> done) final {
    to<E::kDrGetChunk>(std::move(done), uid, offset, max_bytes);
  }
  void dr_stats(Reply<Expected<services::RepoStats>> done) final {
    to<E::kDrStats>(std::move(done));
  }
  void dt_register(const core::Data& data, const std::string& source,
                   const std::string& destination, const std::string& protocol,
                   Reply<Expected<services::TicketId>> done) final {
    to<E::kDtRegister>(std::move(done), data, source, destination, protocol);
  }
  void dt_monitor(services::TicketId ticket, std::int64_t done_bytes, Reply<Status> done) final {
    to<E::kDtMonitor>(std::move(done), ticket, done_bytes);
  }
  void dt_complete(services::TicketId ticket, const std::string& received_checksum,
                   const std::string& expected_checksum, Reply<Status> done) final {
    to<E::kDtComplete>(std::move(done), ticket, received_checksum, expected_checksum);
  }
  void dt_failure(services::TicketId ticket, std::int64_t bytes_held, bool can_resume,
                  Reply<Status> done) final {
    to<E::kDtFailure>(std::move(done), ticket, bytes_held, can_resume);
  }
  void dt_give_up(services::TicketId ticket, Reply<Status> done) final {
    to<E::kDtGiveUp>(std::move(done), ticket);
  }
  void ds_schedule(const core::Data& data, const core::DataAttributes& attributes,
                   Reply<Status> done) final {
    to<E::kDsSchedule>(std::move(done), data, attributes);
  }
  void ds_pin(const util::Auid& uid, const std::string& host, Reply<Status> done) final {
    to<E::kDsPin>(std::move(done), uid, host);
  }
  void ds_unschedule(const util::Auid& uid, Reply<Status> done) final {
    to<E::kDsUnschedule>(std::move(done), uid);
  }
  void ds_sync(const services::SyncRequest& request,
               Reply<Expected<services::SyncReply>> done) final {
    to<E::kDsSync>(std::move(done), request);
  }
  void ds_hosts(Reply<Expected<std::vector<services::HostInfo>>> done) final {
    to<E::kDsHosts>(std::move(done));
  }
  void job_submit(const jobs::JobSpec& spec, Reply<Expected<util::Auid>> done) final {
    to<E::kJobSubmit>(std::move(done), spec);
  }
  void job_status(const util::Auid& job, Reply<Expected<jobs::JobStatusInfo>> done) final {
    to<E::kJobStatus>(std::move(done), job);
  }
  void job_claim(const util::Auid& task, const std::string& runner,
                 Reply<Expected<jobs::TaskOrder>> done) final {
    to<E::kJobClaim>(std::move(done), task, runner);
  }
  void job_task_report(const jobs::TaskReport& report, Reply<Status> done) final {
    to<E::kJobTaskReport>(std::move(done), report);
  }
  void ddc_publish(const std::string& key, const std::string& value, Reply<Status> done) final {
    to<E::kDdcPublish>(std::move(done), key, value);
  }
  void ddc_search(const std::string& key,
                  Reply<Expected<std::vector<std::string>>> done) final {
    to<E::kDdcSearch>(std::move(done), key);
  }
  void dc_register_batch(const std::vector<core::Data>& items, Reply<BatchStatus> done) final {
    to<E::kDcRegisterBatch>(std::move(done), items);
  }
  void dc_locators_batch(const std::vector<util::Auid>& uids, Reply<BatchLocators> done) final {
    to<E::kDcLocatorsBatch>(std::move(done), uids);
  }
  void ds_schedule_batch(const std::vector<services::ScheduledData>& items,
                         Reply<BatchStatus> done) final {
    to<E::kDsScheduleBatch>(std::move(done), items);
  }
  void ddc_publish_batch(const std::vector<KeyValue>& pairs, Reply<BatchStatus> done) final {
    std::vector<std::pair<std::string, std::string>> kvs;  // the handler's (key, value) shape
    kvs.reserve(pairs.size());
    for (const KeyValue& pair : pairs) kvs.emplace_back(pair.key, pair.value);
    to<E::kDdcPublishBatch>(std::move(done), kvs);
  }

 private:
  template <E endpoint, typename... A>
  void to(Reply<typename ops::OpAt<endpoint>::Reply> done, const A&... args) {
    using Op = ops::OpAt<endpoint>;
    static_assert(std::is_same_v<std::tuple<A...>, typename Op::Request>,
                  "a ServiceBus method forwards exactly its handler's arguments");
    static_cast<Bus&>(*this).template call<Op>(std::move(done), args...);
  }
};

}  // namespace bitdew::api
