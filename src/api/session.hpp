// Session: the blocking facade over the asynchronous API (future /
// wait_all style). It replaces the ad-hoc blocking wrappers the runtimes
// and examples used to improvise: issue operations (optionally as futures),
// then wait for them while a caller-supplied Pump advances the underlying
// engine — `[&] { return sim.step(); }` for the discrete-event runtime, or
// nothing at all for the synchronous DirectServiceBus, whose replies
// resolve before the call returns.
//
//   api::Session session(node.bitdew(), node.active_data(),
//                        [&] { return sim.step(); });
//   auto data = session.create_data("dataset", content);   // Expected<Data>
//   session.put(*data, content);                           // Status
//   session.schedule(*data, attributes);                   // Status
//
// A wait on a future that can no longer make progress (the pump is
// exhausted or absent) fails with Errc::kUnavailable instead of hanging.
#pragma once

#include <memory>
#include <optional>
#include <utility>

#include "api/active_data.hpp"
#include "api/bitdew.hpp"
#include "api/transfer_manager.hpp"

namespace bitdew::transfer {
class TcpTransfer;
}  // namespace bitdew::transfer

namespace bitdew::api {

/// A one-shot slot resolved by a Reply callback; created by Session.
template <typename T>
class SessionFuture {
 public:
  SessionFuture() : state_(std::make_shared<std::optional<Expected<T>>>()) {}

  bool ready() const { return state_->has_value(); }

  /// The resolved value; only valid once ready().
  const Expected<T>& get() const { return **state_; }

  /// The Reply callback that resolves this future.
  Reply<Expected<T>> resolver() const {
    auto state = state_;
    return [state](Expected<T> value) { *state = std::move(value); };
  }

 private:
  friend class Session;
  std::shared_ptr<std::optional<Expected<T>>> state_;
};

using StatusFuture = SessionFuture<Unit>;

class Session {
 public:
  /// `pump` makes the underlying engine progress (one simulator step, one
  /// event-loop turn); it returns false when nothing further can happen.
  /// May be null for synchronous buses. `tm`, when given, sees each
  /// put_file/get_file as a transfer (begin/finish).
  using Pump = std::function<bool()>;

  Session(BitDew& bitdew, ActiveData& active_data, Pump pump = nullptr,
          TransferManager* tm = nullptr)
      : bitdew_(bitdew), active_data_(active_data), pump_(std::move(pump)), tm_(tm) {}

  // --- waiting ---------------------------------------------------------------
  /// Pumps until the future resolves; Errc::kUnavailable when the engine
  /// stalls first.
  template <typename T>
  Expected<T> wait(const SessionFuture<T>& future) {
    auto result = wait_slot(future.state_);
    if (!result.has_value()) {
      return Error{Errc::kUnavailable, "session", "stalled waiting for a reply"};
    }
    return std::move(*result);
  }

  /// Waits for every future; returns ok only if all succeeded (the first
  /// failure otherwise).
  Status wait_all(const std::vector<StatusFuture>& futures) {
    Status result = ok_status();
    for (const StatusFuture& future : futures) {
      const Status status = wait(future);
      if (result.ok() && !status.ok()) result = status;
    }
    return result;
  }

  // --- asynchronous issue, blocking wait later -------------------------------
  std::pair<core::Data, StatusFuture> create_data_async(const std::string& name,
                                                        const core::Content& content) {
    StatusFuture future;
    core::Data data = bitdew_.create_data(name, content, future.resolver());
    return {std::move(data), std::move(future)};
  }

  StatusFuture put_async(const core::Data& data, const core::Content& content,
                         const std::string& protocol = "ftp") {
    StatusFuture future;
    bitdew_.put(data, content, future.resolver(), protocol);
    return future;
  }

  StatusFuture schedule_async(const core::Data& data, const core::DataAttributes& attributes) {
    StatusFuture future;
    active_data_.schedule(data, attributes, future.resolver());
    return future;
  }

  StatusFuture publish_async(const std::string& key, const std::string& value) {
    StatusFuture future;
    bitdew_.publish(key, value, future.resolver());
    return future;
  }

  // Read-side futures. Over a pipelined RemoteServiceBus
  // (set_pipeline_depth > 1, pump = [&bus] { return bus.pump(); }) a burst
  // of these rides N-deep on one connection — the epoll host answers out of
  // order and the futures resolve as the replies demux. put_file/get_file
  // need neither: the transfer engine pipelines its own chunk window.
  SessionFuture<std::vector<core::Locator>> locate_async(const util::Auid& uid) {
    SessionFuture<std::vector<core::Locator>> future;
    bitdew_.locate(uid, future.resolver());
    return future;
  }

  SessionFuture<core::Data> search_async(const std::string& name) {
    SessionFuture<core::Data> future;
    bitdew_.search(name, future.resolver());
    return future;
  }

  SessionFuture<std::vector<std::string>> lookup_async(const std::string& key) {
    SessionFuture<std::vector<std::string>> future;
    bitdew_.lookup(key, future.resolver());
    return future;
  }

  StatusFuture remove_async(const core::Data& data) {
    StatusFuture future;
    bitdew_.remove(data, future.resolver());
    return future;
  }

  // --- blocking operations ---------------------------------------------------
  Expected<core::Data> create_data(const std::string& name, const core::Content& content) {
    auto [data, future] = create_data_async(name, content);
    const Status status = wait(future);
    if (!status.ok()) return status.propagate<core::Data>();
    return data;
  }

  Expected<core::Data> create_data(const std::string& name) {
    return create_data(name, core::Content{0, core::synthetic_content(0, 0).checksum});
  }

  Status put(const core::Data& data, const core::Content& content,
             const std::string& protocol = "ftp") {
    return wait(put_async(data, content, protocol));
  }

  Status offer_local(const core::Data& data, const std::string& protocol = "http") {
    StatusFuture future;
    bitdew_.offer_local(data, protocol, future.resolver());
    return wait(future);
  }

  Expected<std::vector<core::Locator>> locate(const util::Auid& uid) {
    return wait(locate_async(uid));
  }

  Expected<core::Data> search(const std::string& name) { return wait(search_async(name)); }

  Status remove(const core::Data& data) { return wait(remove_async(data)); }

  Status schedule(const core::Data& data, const core::DataAttributes& attributes) {
    return wait(schedule_async(data, attributes));
  }

  Status pin(const core::Data& data, const core::DataAttributes& attributes) {
    StatusFuture future;
    active_data_.pin(data, attributes, future.resolver());
    return wait(future);
  }

  Status unschedule(const core::Data& data) {
    StatusFuture future;
    active_data_.unschedule(data, future.resolver());
    return wait(future);
  }

  Status publish(const std::string& key, const std::string& value) {
    return wait(publish_async(key, value));
  }

  Expected<std::vector<std::string>> lookup(const std::string& key) {
    return wait(lookup_async(key));
  }

  // --- real-byte data plane ---------------------------------------------------
  // Chunked out-of-band content transfer through the bus's dr_put_start /
  // dr_put_chunk / dr_put_commit / dr_get_chunk endpoints (the
  // transfer::TcpTransfer engine): Sim/Direct land in the in-process
  // repository, Remote streams over TCP. Uploads keep one chunk in flight,
  // hash it meanwhile, and resume at the offset the repository reports;
  // downloads keep transfer::kGetWindow fetches in flight and resume from
  // `path`.part (the engine raises the bus's pipeline depth for each chunk
  // loop and restores it after). Both are MD5-verified
  // (Errc::kChecksumMismatch on divergence).

  /// Uploads the file at `path` as the datum named `name`, and returns its
  /// completed descriptor. What dc_search(name) finds picks one of three
  /// cases (only kNotFound frees the name; any other search failure is
  /// returned):
  ///  * nothing: mints a uid, opens a pending stage (dr_put_start with the
  ///    size and an empty checksum), registers the pending descriptor, then
  ///    uploads hashing as it sends, and seals, commits and completes the
  ///    catalog row. A daemon that refuses the pending start leaves nothing
  ///    registered under the name;
  ///  * a pending descriptor of the file's size, left by an interrupted
  ///    put: resumes it under its uid, sending only the tail. Content that
  ///    differs from the staged prefix fails the commit kChecksumMismatch,
  ///    which consumes the stage, and the next put starts clean. A pending
  ///    descriptor of another size is kDuplicate;
  ///  * a checksummed descriptor: hashes the file first; kDuplicate when it
  ///    differs, otherwise reuses the slot (and resumes its stage).
  Expected<core::Data> put_file(const std::string& name, const std::string& path);

  /// Downloads a datum's content into `path`.
  Status get_file(const core::Data& data, const std::string& path);

  /// Data-plane knobs (see transfer::TcpConfig for semantics/bounds).
  void set_chunk_bytes(std::int64_t bytes) { chunk_bytes_ = bytes; }
  std::int64_t chunk_bytes() const { return chunk_bytes_; }
  void set_transfer_attempts(int attempts) { transfer_attempts_ = attempts; }

  // --- blocking bulk operations ----------------------------------------------
  /// One round-trip each, regardless of batch size; per-item outcomes.
  std::pair<std::vector<core::Data>, BatchStatus> create_data_batch(
      const std::vector<std::pair<std::string, core::Content>>& slots);
  BatchStatus register_batch(const std::vector<core::Data>& items);

  BitDew& bitdew() { return bitdew_; }
  ActiveData& active_data() { return active_data_; }

 private:
  /// Pumps until `slot` holds a value; nullopt when the engine stalls. The
  /// slot keeps its value (a future can be waited on more than once).
  template <typename V>
  std::optional<V> wait_slot(const std::shared_ptr<std::optional<V>>& slot) {
    while (!slot->has_value()) {
      if (!pump_ || !pump_()) return std::nullopt;
    }
    return **slot;
  }

  /// Runs one data-plane step on a TcpTransfer built from this session's
  /// knobs, bracketed by the TransferManager's begin/finish for `uid`.
  Status run_transfer(const util::Auid& uid,
                      const std::function<Status(transfer::TcpTransfer&)>& step);

  BitDew& bitdew_;
  ActiveData& active_data_;
  Pump pump_;
  TransferManager* tm_;
  std::int64_t chunk_bytes_ = 256 * 1024;
  int transfer_attempts_ = 3;
};

}  // namespace bitdew::api
