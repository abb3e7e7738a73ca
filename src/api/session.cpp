#include "api/session.hpp"

#include "transfer/tcp.hpp"

namespace bitdew::api {
namespace {

BatchStatus stalled_batch(std::size_t count) {
  return BatchStatus(
      count, Status(Error{Errc::kUnavailable, "session", "stalled waiting for a reply"}));
}

}  // namespace

Status Session::wait_transfer(const util::Auid& uid) {
  if (tm_ == nullptr) {
    return Error{Errc::kInvalidArgument, "session", "no TransferManager attached"};
  }
  auto slot = std::make_shared<std::optional<Status>>();
  tm_->when_done(uid, [slot](Status outcome) { *slot = std::move(outcome); });
  auto result = wait_slot(slot);
  if (!result.has_value()) {
    return Error{Errc::kUnavailable, "session", "stalled waiting for transfer"};
  }
  return *result;
}

// --- real-byte data plane ------------------------------------------------------

Expected<core::Data> Session::put_file(const std::string& name, const std::string& path) {
  core::Content content;
  try {
    content = core::file_content(path);
  } catch (const std::exception& error) {
    return Error{Errc::kInvalidArgument, "session", error.what()};
  }
  // Reuse an already-registered slot whose descriptor matches the file —
  // this is what lets a re-run of `bitdew_cli put` resume the staged upload
  // of a previous, interrupted invocation. A name registered with
  // *different* content is a typed error: names are not unique keys in the
  // catalog, so registering a second datum here would leave later
  // lookups-by-name resolving to the stale first one. For the same reason
  // only kNotFound frees the name: any other search failure (the stale
  // socket's kTransport after a daemon restart) says nothing about it.
  core::Data data;
  const Expected<core::Data> existing = search(name);
  if (existing.ok()) {
    if (existing->size != content.size || existing->checksum != content.checksum) {
      return Error{Errc::kDuplicate, "session",
                   "'" + name + "' is already registered with different content (size " +
                       std::to_string(existing->size) + ", md5 " + existing->checksum +
                       ") — delete it first"};
    }
    data = *existing;
  } else if (existing.code() == Errc::kNotFound) {
    const Expected<core::Data> created = create_data(name, content);
    if (!created.ok()) return created;
    data = *created;
  } else {
    return existing;
  }
  // `content` was hashed from `path` just above and matches `data`, so skip
  // TcpTransfer::put_file's own hash of the file.
  const Status uploaded = run_transfer(
      data.uid, [&](transfer::TcpTransfer& engine) { return engine.upload(data, path); });
  if (!uploaded.ok()) return uploaded.propagate<core::Data>();
  return data;
}

Status Session::put_file(const core::Data& data, const std::string& path) {
  return run_transfer(
      data.uid, [&](transfer::TcpTransfer& engine) { return engine.put_file(data, path); });
}

Status Session::get_file(const core::Data& data, const std::string& path) {
  return run_transfer(
      data.uid, [&](transfer::TcpTransfer& engine) { return engine.get_file(data, path); });
}

Status Session::run_transfer(const util::Auid& uid,
                             const std::function<Status(transfer::TcpTransfer&)>& step) {
  transfer::TcpTransfer engine(
      bitdew_.bus(), transfer::TcpConfig{chunk_bytes_, transfer_attempts_, true}, pump_);
  if (tm_ != nullptr) tm_->begin(uid);
  const Status outcome = step(engine);
  if (tm_ != nullptr) tm_->finish(uid, outcome);
  return outcome;
}

Status Session::get_file(const util::Auid& uid, const std::string& path) {
  SessionFuture<core::Data> future;
  bitdew_.bus().dc_get(uid, future.resolver());
  const Expected<core::Data> data = wait(future);
  if (!data.ok()) return Status(data.error());
  return get_file(*data, path);
}

std::pair<std::vector<core::Data>, BatchStatus> Session::create_data_batch(
    const std::vector<std::pair<std::string, core::Content>>& slots) {
  auto slot = std::make_shared<std::optional<BatchStatus>>();
  std::vector<core::Data> data =
      bitdew_.create_data_batch(slots, [slot](BatchStatus statuses) {
        *slot = std::move(statuses);
      });
  auto statuses = wait_slot(slot);
  return {std::move(data), statuses.has_value() ? std::move(*statuses)
                                                : stalled_batch(slots.size())};
}

BatchStatus Session::register_batch(const std::vector<core::Data>& items) {
  auto slot = std::make_shared<std::optional<BatchStatus>>();
  bitdew_.bus().dc_register_batch(
      items, [slot](BatchStatus statuses) { *slot = std::move(statuses); });
  auto statuses = wait_slot(slot);
  return statuses.has_value() ? std::move(*statuses) : stalled_batch(items.size());
}

BatchLocators Session::locate_batch(const std::vector<util::Auid>& uids) {
  auto slot = std::make_shared<std::optional<BatchLocators>>();
  bitdew_.bus().dc_locators_batch(
      uids, [slot](BatchLocators locators) { *slot = std::move(locators); });
  auto locators = wait_slot(slot);
  if (locators.has_value()) return std::move(*locators);
  return BatchLocators(uids.size(),
                       Expected<std::vector<core::Locator>>(Error{
                           Errc::kUnavailable, "session", "stalled waiting for a reply"}));
}

BatchStatus Session::schedule_batch(const std::vector<services::ScheduledData>& items) {
  auto slot = std::make_shared<std::optional<BatchStatus>>();
  active_data_.schedule_batch(items,
                              [slot](BatchStatus statuses) { *slot = std::move(statuses); });
  auto statuses = wait_slot(slot);
  return statuses.has_value() ? std::move(*statuses) : stalled_batch(items.size());
}

BatchStatus Session::publish_batch(const std::vector<KeyValue>& pairs) {
  auto slot = std::make_shared<std::optional<BatchStatus>>();
  bitdew_.publish_batch(pairs,
                        [slot](BatchStatus statuses) { *slot = std::move(statuses); });
  auto statuses = wait_slot(slot);
  return statuses.has_value() ? std::move(*statuses) : stalled_batch(pairs.size());
}

}  // namespace bitdew::api
