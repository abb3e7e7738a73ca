// The bus endpoints: one handler per ServiceBus endpoint, mapping D* service
// outcomes to the typed error channel, and at the bottom the endpoint list
// that pairs each handler with its wire id. Every bus and ServiceHost run
// the same handler, so an operation fails with the *same* Error::code
// whether it travelled the simulated network, a function call or a socket
// — only transport-level kTransport errors are backend-specific.
#pragma once

#include <string>
#include <system_error>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/expected.hpp"
#include "dht/local_dht.hpp"
#include "rpc/wire.hpp"
#include "services/container.hpp"

namespace bitdew::api::ops {

// --- Data Catalog -----------------------------------------------------------

inline Status dc_register(services::ServiceContainer& c, const core::Data& data) {
  if (!data.valid()) return Error{Errc::kInvalidArgument, "dc", "nil uid"};
  if (!c.dc().register_data(data)) {
    return Error{Errc::kDuplicate, "dc", "uid " + data.uid.str() + " already registered"};
  }
  return ok_status();
}

inline Expected<core::Data> dc_get(services::ServiceContainer& c, const util::Auid& uid) {
  auto found = c.dc().get(uid);
  if (!found.has_value()) return Error{Errc::kNotFound, "dc", "unknown uid " + uid.str()};
  return std::move(*found);
}

inline Expected<std::vector<core::Data>> dc_search(services::ServiceContainer& c,
                                                   const std::string& name) {
  return c.dc().search(name);
}

inline Status dc_remove(services::ServiceContainer& c, const util::Auid& uid) {
  if (!c.dc().remove(uid)) return Error{Errc::kNotFound, "dc", "unknown uid " + uid.str()};
  return ok_status();
}

inline Status dc_add_locator(services::ServiceContainer& c, const core::Locator& locator) {
  if (!c.dc().add_locator(locator)) {
    return Error{Errc::kNotFound, "dc",
                 "locator for unregistered uid " + locator.data_uid.str()};
  }
  return ok_status();
}

inline Expected<std::vector<core::Locator>> dc_locators(services::ServiceContainer& c,
                                                        const util::Auid& uid) {
  if (!c.dc().get(uid).has_value()) {
    return Error{Errc::kNotFound, "dc", "unknown uid " + uid.str()};
  }
  return c.dc().locators(uid);
}

inline std::vector<Status> dc_register_batch(services::ServiceContainer& c,
                                             const std::vector<core::Data>& items) {
  std::vector<Status> out;
  out.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!items[i].valid()) {
      out.push_back(Error{Errc::kInvalidArgument, "dc", "nil uid"});
    } else {
      out.push_back(ok_status());
    }
  }
  // The catalog's native bulk insert; invalid items were pre-screened.
  std::vector<core::Data> valid;
  valid.reserve(items.size());
  for (const core::Data& data : items) {
    if (data.valid()) valid.push_back(data);
  }
  const std::vector<bool> registered = c.dc().register_batch(valid);
  std::size_t next = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!items[i].valid()) continue;
    if (!registered[next++]) {
      out[i] = Error{Errc::kDuplicate, "dc",
                     "uid " + items[i].uid.str() + " already registered"};
    }
  }
  return out;
}

inline std::vector<Expected<std::vector<core::Locator>>> dc_locators_batch(
    services::ServiceContainer& c, const std::vector<util::Auid>& uids) {
  std::vector<Expected<std::vector<core::Locator>>> out;
  out.reserve(uids.size());
  for (auto& locators : c.dc().locators_batch(uids)) out.push_back(std::move(locators));
  for (std::size_t i = 0; i < uids.size(); ++i) {
    if (out[i].ok() && out[i]->empty() && !c.dc().get(uids[i]).has_value()) {
      out[i] = Error{Errc::kNotFound, "dc", "unknown uid " + uids[i].str()};
    }
  }
  return out;
}

// --- Data Repository ----------------------------------------------------------

inline Expected<core::Locator> dr_put(services::ServiceContainer& c, const core::Data& data,
                                      const core::Content& content,
                                      const std::string& protocol) {
  if (!data.valid()) return Error{Errc::kInvalidArgument, "dr", "nil uid"};
  return c.dr().put(data, content, protocol);
}

inline Expected<core::Content> dr_get(services::ServiceContainer& c, const util::Auid& uid) {
  auto found = c.dr().get(uid);
  if (!found.has_value()) return Error{Errc::kNotFound, "dr", "no content for " + uid.str()};
  return std::move(*found);
}

inline Status dr_remove(services::ServiceContainer& c, const util::Auid& uid) {
  if (!c.dr().remove(uid)) return Error{Errc::kNotFound, "dr", "no content for " + uid.str()};
  return ok_status();
}

// --- Data Repository: chunked out-of-band data plane ---------------------------

/// Opens, resumes or seals a staged upload. An empty checksum opens a
/// pending stage, which a later start with the same size and the MD5 seals.
inline Expected<std::int64_t> dr_put_start(services::ServiceContainer& c,
                                           const core::Data& data) {
  if (!data.valid()) return Error{Errc::kInvalidArgument, "dr", "nil uid"};
  if (data.size < 0) {
    return Error{Errc::kInvalidArgument, "dr", "negative content size for " + data.uid.str()};
  }
  try {
    return c.dr().stage_begin(data);
  } catch (const std::system_error& error) {
    // An in-memory repository could not make its private content dir.
    return Error{Errc::kUnavailable, "dr", error.what()};
  }
}

/// dr_put_chunk's reply for a staging outcome. ServiceHost's staging fast
/// path maps its reserve and advance steps through it too.
inline Status chunk_status(services::ServiceContainer& c, const util::Auid& uid,
                           std::int64_t offset, services::ChunkResult result) {
  switch (result) {
    case services::ChunkResult::kOk:
      return ok_status();
    case services::ChunkResult::kNoStage:
      return Error{Errc::kNotFound, "dr", "no staged upload for " + uid.str()};
    case services::ChunkResult::kBadOffset:
      return Error{Errc::kRejected, "dr",
                   "chunk at offset " + std::to_string(offset) + " not accepted (" +
                       std::to_string(c.dr().stage_received(uid)) +
                       " bytes received; offset claimed by another chunk or stage restarted) "
                       "for " + uid.str()};
    case services::ChunkResult::kOversize:
      return Error{Errc::kInvalidArgument, "dr",
                   "chunk exceeds the per-chunk limit or the declared content size"};
    case services::ChunkResult::kEmpty:
      return Error{Errc::kInvalidArgument, "dr", "empty chunk"};
    case services::ChunkResult::kWriteFailed:
      return Error{Errc::kUnavailable, "dr",
                   "cannot write chunk at offset " + std::to_string(offset) + " to " +
                       c.dr().stage_path(uid)};
  }
  return Error{Errc::kUnavailable, "dr", "unreachable"};
}

inline Status dr_put_chunk(services::ServiceContainer& c, const util::Auid& uid,
                           std::int64_t offset, const std::string& bytes) {
  return chunk_status(c, uid, offset, c.dr().stage_chunk(uid, offset, bytes));
}

inline Expected<core::Locator> dr_put_commit(services::ServiceContainer& c,
                                             const util::Auid& uid,
                                             const std::string& protocol) {
  core::Locator locator;
  switch (c.dr().stage_commit(uid, protocol, &locator)) {
    case services::CommitResult::kOk:
      return locator;
    case services::CommitResult::kNoStage:
      return Error{Errc::kNotFound, "dr", "no staged upload for " + uid.str()};
    case services::CommitResult::kIncomplete:
      return Error{Errc::kRejected, "dr",
                   "staged upload incomplete for " + uid.str() + " (resume and finish first)"};
    case services::CommitResult::kUnsealed:
      return Error{Errc::kRejected, "dr",
                   "staged upload for " + uid.str() +
                       " has no checksum (seal it with dr_put_start first)"};
    case services::CommitResult::kChecksumMismatch:
      return Error{Errc::kChecksumMismatch, "dr",
                   "staged content MD5 differs from the registered checksum for " + uid.str() +
                       " (stage discarded)"};
  }
  return Error{Errc::kUnavailable, "dr", "unreachable"};
}

inline Expected<services::RepoStats> dr_stats(services::ServiceContainer& c) {
  return c.dr().stats();
}

inline Expected<std::string> dr_get_chunk(services::ServiceContainer& c, const util::Auid& uid,
                                          std::int64_t offset, std::int64_t max_bytes) {
  if (max_bytes <= 0 || max_bytes > services::kMaxChunkBytes) {
    return Error{Errc::kInvalidArgument, "dr", "bad chunk size " + std::to_string(max_bytes)};
  }
  auto bytes = c.dr().read_bytes(uid, offset, max_bytes);
  if (!bytes.has_value()) {
    return Error{Errc::kNotFound, "dr",
                 "no content bytes for " + uid.str() + " (metadata-only or unknown)"};
  }
  return std::move(*bytes);
}

/// The zero-copy variant (ServiceHost's kDrGetChunk fast path): same
/// validation and error mapping as dr_get_chunk, but the content comes
/// back as an fd slice for sendfile instead of a std::string.
inline Expected<rpc::ChunkRef> dr_get_chunk_ref(services::ServiceContainer& c,
                                                const util::Auid& uid, std::int64_t offset,
                                                std::int64_t max_bytes) {
  if (max_bytes <= 0 || max_bytes > services::kMaxChunkBytes) {
    return Error{Errc::kInvalidArgument, "dr", "bad chunk size " + std::to_string(max_bytes)};
  }
  auto chunk = c.dr().read_chunk_ref(uid, offset, max_bytes);
  if (!chunk.has_value()) {
    return Error{Errc::kNotFound, "dr",
                 "no content bytes for " + uid.str() + " (metadata-only or unknown)"};
  }
  return std::move(*chunk);
}

// --- Data Transfer --------------------------------------------------------------

inline Expected<services::TicketId> dt_register(services::ServiceContainer& c,
                                                const core::Data& data,
                                                const std::string& source,
                                                const std::string& destination,
                                                const std::string& protocol) {
  return c.dt().register_transfer(data, source, destination, protocol);
}

inline Status dt_monitor(services::ServiceContainer& c, services::TicketId ticket,
                         std::int64_t done_bytes) {
  c.dt().monitor(ticket, done_bytes);
  return ok_status();
}

inline Status dt_complete(services::ServiceContainer& c, services::TicketId ticket,
                          const std::string& received, const std::string& expected) {
  if (!c.dt().complete(ticket, received, expected)) {
    return Error{Errc::kChecksumMismatch, "dt",
                 "ticket " + std::to_string(ticket) + ": received checksum differs"};
  }
  return ok_status();
}

inline Status dt_failure(services::ServiceContainer& c, services::TicketId ticket,
                         std::int64_t bytes_held, bool can_resume) {
  c.dt().report_failure(ticket, bytes_held, can_resume);
  return ok_status();
}

inline Status dt_give_up(services::ServiceContainer& c, services::TicketId ticket) {
  c.dt().give_up(ticket);
  return ok_status();
}

// --- Data Scheduler ---------------------------------------------------------------

// DS mutations go through the container wrappers (not c.ds() directly) so a
// WAL-backed container persists Θ across restarts.
inline Status ds_schedule(services::ServiceContainer& c, const core::Data& data,
                          const core::DataAttributes& attributes) {
  if (!c.schedule_data(data, attributes)) {
    return Error{Errc::kRejected, "ds", "invalid attributes for " + data.name};
  }
  return ok_status();
}

inline std::vector<Status> ds_schedule_batch(services::ServiceContainer& c,
                                             const std::vector<services::ScheduledData>& items) {
  std::vector<Status> out;
  out.reserve(items.size());
  for (const bool accepted : c.schedule_data_batch(items)) {
    if (accepted) {
      out.push_back(ok_status());
    } else {
      out.push_back(Error{Errc::kRejected, "ds", "invalid attributes"});
    }
  }
  return out;
}

inline Status ds_pin(services::ServiceContainer& c, const util::Auid& uid,
                     const std::string& host) {
  if (!c.ds().pin(uid, host)) {
    return Error{Errc::kNotFound, "ds", "uid " + uid.str() + " not scheduled"};
  }
  return ok_status();
}

inline Status ds_unschedule(services::ServiceContainer& c, const util::Auid& uid) {
  if (!c.unschedule_data(uid)) {
    return Error{Errc::kNotFound, "ds", "uid " + uid.str() + " not scheduled"};
  }
  return ok_status();
}

inline Expected<std::vector<services::HostInfo>> ds_hosts(services::ServiceContainer& c) {
  return c.ds().host_table();
}

inline Expected<services::SyncReply> ds_sync(services::ServiceContainer& c,
                                             const services::SyncRequest& request) {
  return c.ds().sync(request);
}

// --- Job service (compute-to-data) --------------------------------------------------
// The JobService reports its own typed errors (service "jobs"); the
// helpers are pass-throughs so all three buses share the exact mapping.

inline Expected<util::Auid> job_submit(services::ServiceContainer& c,
                                       const jobs::JobSpec& spec) {
  return c.jobs().submit(spec);
}

inline Expected<jobs::JobStatusInfo> job_status(services::ServiceContainer& c,
                                                const util::Auid& job) {
  return c.jobs().status(job);
}

inline Expected<jobs::TaskOrder> job_claim(services::ServiceContainer& c,
                                           const util::Auid& task,
                                           const std::string& runner) {
  return c.jobs().claim(task, runner);
}

inline Status job_task_report(services::ServiceContainer& c,
                              const jobs::TaskReport& report) {
  return c.jobs().report(report);
}

// --- Distributed Data Catalog (fallback store) --------------------------------------

inline Status ddc_publish(dht::LocalDht& ddc, const std::string& key,
                          const std::string& value) {
  if (key.empty()) return Error{Errc::kInvalidArgument, "ddc", "empty key"};
  ddc.put(key, value);
  return ok_status();
}

inline Expected<std::vector<std::string>> ddc_search(dht::LocalDht& ddc,
                                                     const std::string& key) {
  return ddc.get(key);
}

inline std::vector<Status> ddc_publish_batch(
    dht::LocalDht& ddc, const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::vector<Status> out;
  out.reserve(pairs.size());
  std::vector<std::pair<std::string, std::string>> valid;
  valid.reserve(pairs.size());
  for (const auto& pair : pairs) {
    if (pair.first.empty()) {
      out.push_back(Error{Errc::kInvalidArgument, "ddc", "empty key"});
    } else {
      out.push_back(ok_status());
      valid.push_back(pair);
    }
  }
  ddc.put_batch(valid);
  return out;
}

// --- The bus endpoint list ------------------------------------------------------
// One entry per ServiceBus endpoint: its wire id and its handler. The
// request fields are the handler's arguments after the store, the reply is
// its return type, and both are encoded through rpc::wire::Field. The rest
// is generated from this list: ServiceHost's route table (rpc/server.cpp)
// and each bus's call<Op>, reached through the ServiceBus overrides in
// api/bus_base.hpp.

template <typename T>
inline constexpr bool kIsList = false;
template <typename T>
inline constexpr bool kIsList<std::vector<T>> = true;

template <typename Handler>
struct Signature;

template <typename R, typename Store, typename... Args>
struct Signature<R (*)(Store&, Args...)> {
  using Reply = R;
  using Target = Store;  ///< the container, or the catalog-local dht::LocalDht
  using Request = std::tuple<std::decay_t<Args>...>;
  /// A batch replies index-aligned with its one argument, the item list.
  static constexpr bool kBatch = kIsList<R>;
};

template <rpc::wire::Endpoint E, auto Handler>
struct Op : Signature<decltype(Handler)> {
  static constexpr rpc::wire::Endpoint endpoint = E;

  /// Runs the handler against the store it takes.
  template <typename... A>
  static typename Op::Reply run(services::ServiceContainer& c, dht::LocalDht& ddc,
                                const A&... args) {
    if constexpr (std::is_same_v<typename Op::Target, dht::LocalDht>) {
      return Handler(ddc, args...);
    } else {
      return Handler(c, args...);
    }
  }
};

using BusEndpoints = std::tuple<
    Op<rpc::wire::Endpoint::kDcRegister, &dc_register>,
    Op<rpc::wire::Endpoint::kDcGet, &dc_get>,
    Op<rpc::wire::Endpoint::kDcSearch, &dc_search>,
    Op<rpc::wire::Endpoint::kDcRemove, &dc_remove>,
    Op<rpc::wire::Endpoint::kDcAddLocator, &dc_add_locator>,
    Op<rpc::wire::Endpoint::kDcLocators, &dc_locators>,
    Op<rpc::wire::Endpoint::kDrPut, &dr_put>,
    Op<rpc::wire::Endpoint::kDrGet, &dr_get>,
    Op<rpc::wire::Endpoint::kDrRemove, &dr_remove>,
    Op<rpc::wire::Endpoint::kDtRegister, &dt_register>,
    Op<rpc::wire::Endpoint::kDtMonitor, &dt_monitor>,
    Op<rpc::wire::Endpoint::kDtComplete, &dt_complete>,
    Op<rpc::wire::Endpoint::kDtFailure, &dt_failure>,
    Op<rpc::wire::Endpoint::kDtGiveUp, &dt_give_up>,
    Op<rpc::wire::Endpoint::kDsSchedule, &ds_schedule>,
    Op<rpc::wire::Endpoint::kDsPin, &ds_pin>,
    Op<rpc::wire::Endpoint::kDsUnschedule, &ds_unschedule>,
    Op<rpc::wire::Endpoint::kDsSync, &ds_sync>,
    Op<rpc::wire::Endpoint::kDdcPublish, &ddc_publish>,
    Op<rpc::wire::Endpoint::kDdcSearch, &ddc_search>,
    Op<rpc::wire::Endpoint::kDcRegisterBatch, &dc_register_batch>,
    Op<rpc::wire::Endpoint::kDcLocatorsBatch, &dc_locators_batch>,
    Op<rpc::wire::Endpoint::kDsScheduleBatch, &ds_schedule_batch>,
    Op<rpc::wire::Endpoint::kDdcPublishBatch, &ddc_publish_batch>,
    Op<rpc::wire::Endpoint::kDrPutStart, &dr_put_start>,
    Op<rpc::wire::Endpoint::kDrPutChunk, &dr_put_chunk>,
    Op<rpc::wire::Endpoint::kDrPutCommit, &dr_put_commit>,
    Op<rpc::wire::Endpoint::kDrGetChunk, &dr_get_chunk>,
    Op<rpc::wire::Endpoint::kDsHosts, &ds_hosts>,
    Op<rpc::wire::Endpoint::kDrStats, &dr_stats>,
    Op<rpc::wire::Endpoint::kJobSubmit, &job_submit>,
    Op<rpc::wire::Endpoint::kJobStatus, &job_status>,
    Op<rpc::wire::Endpoint::kJobClaim, &job_claim>,
    Op<rpc::wire::Endpoint::kJobTaskReport, &job_task_report>>;

/// Calls f(Op{}) for every entry of the list.
template <typename F>
constexpr void for_each_endpoint(F&& f) {
  [&]<typename... Ops>(std::type_identity<std::tuple<Ops...>>) {
    (f(Ops{}), ...);
  }(std::type_identity<BusEndpoints>{});
}

template <rpc::wire::Endpoint E>
consteval std::size_t list_index() {
  std::size_t index = 0;
  bool found = false;
  for_each_endpoint([&](auto op) {
    found = found || decltype(op)::endpoint == E;
    if (!found) ++index;
  });
  if (!found) throw "not a bus endpoint";
  return index;
}

/// The list entry of endpoint E; a build error when E has none.
template <rpc::wire::Endpoint E>
using OpAt = std::tuple_element_t<list_index<E>(), BusEndpoints>;

}  // namespace bitdew::api::ops
