#include "api/session.hpp"

#include <filesystem>
#include <fstream>

#include "transfer/tcp.hpp"

namespace bitdew::api {
namespace {

BatchStatus stalled_batch(std::size_t count) {
  return BatchStatus(
      count, Status(Error{Errc::kUnavailable, "session", "stalled waiting for a reply"}));
}

Error different_content(const std::string& name, const core::Data& existing) {
  return Error{Errc::kDuplicate, "session",
               "'" + name + "' is already registered with different content (size " +
                   std::to_string(existing.size) + ", md5 " +
                   (existing.checksum.empty() ? "pending" : existing.checksum) +
                   ") — delete it first"};
}

}  // namespace

// --- real-byte data plane ------------------------------------------------------

Expected<core::Data> Session::put_file(const std::string& name, const std::string& path) {
  // Refuse a file this process cannot read before anything is registered.
  std::error_code ec;
  const auto size = static_cast<std::int64_t>(std::filesystem::file_size(path, ec));
  if (ec || !std::ifstream(path, std::ios::binary)) {
    return Error{Errc::kInvalidArgument, "session",
                 "cannot read " + path + (ec ? ": " + ec.message() : "")};
  }
  // Names are not unique keys in the catalog: registering a second datum
  // under a taken name would leave later lookups-by-name resolving to the
  // stale first one. So only kNotFound frees the name: any other search
  // failure (the stale socket's kTransport after a daemon restart) says
  // nothing about it.
  const Expected<core::Data> existing = search(name);
  if (!existing.ok() && existing.code() != Errc::kNotFound) return existing;
  core::Data data;
  std::optional<std::int64_t> opened;
  if (!existing.ok()) {
    data.uid = util::next_auid();
    data.name = name;
    data.size = size;
    // Open the pending stage before registering, so a daemon that refuses
    // it leaves nothing under the name.
    SessionFuture<std::int64_t> started;
    bitdew_.bus().dr_put_start(data, started.resolver());
    const Expected<std::int64_t> start = wait(started);
    if (!start.ok()) return start.propagate<core::Data>();
    StatusFuture registered;
    bitdew_.bus().dc_register(data, registered.resolver());
    const Status pending = wait(registered);
    if (!pending.ok()) return pending.propagate<core::Data>();
    opened = *start;
  } else if (existing->checksum.empty()) {
    // An interrupted put's pending descriptor: resume under its uid.
    if (existing->size != size) return different_content(name, *existing);
    data = *existing;
  } else {
    // A completed descriptor: this is a re-put (and resumes its stage) only
    // if the file hashes to it.
    core::Content content;
    try {
      content = core::file_content(path);
    } catch (const std::exception& error) {
      return Error{Errc::kInvalidArgument, "session", error.what()};
    }
    if (existing->size != content.size || existing->checksum != content.checksum) {
      return different_content(name, *existing);
    }
    data = *existing;
  }
  const Status uploaded = run_transfer(data.uid, [&](transfer::TcpTransfer& engine) {
    return engine.upload(data, path, opened);
  });
  if (!uploaded.ok()) return uploaded.propagate<core::Data>();
  bitdew_.remember(data);
  return data;
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

}  // namespace bitdew::api
