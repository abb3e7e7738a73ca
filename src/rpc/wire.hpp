// Wire shapes for the ServiceBus v2 messages: binary encode/decode of the
// core model types (Auid, Data, Locator, DataAttributes), the typed Error
// channel, the scalar request/reply payloads, the four batch request/reply
// messages, and the frame header (endpoint id + request id) that the TCP
// transport (rpc/transport.hpp, rpc/server.hpp) puts in front of every
// payload. SimServiceBus sizes batched RPCs by actually encoding them — the
// amortization the bulk endpoints claim (one envelope over N items) is
// measured on real bytes, not a hand-tuned constant. test_codec round-trips
// every shape.
#pragma once

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "api/expected.hpp"
#include "core/attributes.hpp"
#include "core/data.hpp"
#include "core/locator.hpp"
#include "jobs/job_types.hpp"
#include "rpc/codec.hpp"
#include "services/data_repository.hpp"
#include "services/data_scheduler.hpp"

namespace bitdew::rpc::wire {

// --- frame header ------------------------------------------------------------
// Every frame the TCP transport carries is header || body. Requests and
// replies share the shape: the server echoes the request id so a client can
// match a reply to the call it made.

/// RPC endpoints a ServiceHost serves. Values are wire-stable.
enum class Endpoint : std::uint16_t {
  kPing = 0,
  kDcRegister = 1,
  kDcGet = 2,
  kDcSearch = 3,
  kDcRemove = 4,
  kDcAddLocator = 5,
  kDcLocators = 6,
  kDrPut = 7,
  kDrGet = 8,
  kDrRemove = 9,
  kDtRegister = 10,
  kDtMonitor = 11,
  kDtComplete = 12,
  kDtFailure = 13,
  kDtGiveUp = 14,
  kDsSchedule = 15,
  kDsPin = 16,
  kDsUnschedule = 17,
  kDsSync = 18,
  kDdcPublish = 19,
  kDdcSearch = 20,
  kDcRegisterBatch = 21,
  kDcLocatorsBatch = 22,
  kDsScheduleBatch = 23,
  kDdcPublishBatch = 24,
  // Data plane (PR 3): chunked out-of-band content transfer. Chunk frames
  // carry real payload bytes; their size is bounded by
  // services::kMaxChunkBytes, well under kMaxFrameBytes.
  kDrPutStart = 25,   ///< Data → Expected<i64 resume offset>
  kDrPutChunk = 26,   ///< Auid, i64 offset, bytes → Status
  kDrPutCommit = 27,  ///< Auid, protocol → Expected<Locator>
  kDrGetChunk = 28,   ///< Auid, i64 offset, i64 max → Expected<bytes>
  // Worker tier (PR 4): failure-detector introspection.
  kDsHosts = 29,      ///< (empty) → Expected<vector<HostInfo>>
  // Peer data plane (PR 5): repository egress counters, so benches and CI
  // can assert collective distribution really bounded the central store's
  // outbound bytes.
  kDrStats = 30,      ///< (empty) → Expected<RepoStats>
  // Live DHT ring (PR 6): the Distributed Data Catalog's metadata plane
  // sharded across a ring of bitdewd members (docs/architecture.md §ring).
  kRingLookup = 31,     ///< u64 hash → Expected<RingLookupReply>
  kRingJoin = 32,       ///< RingNode joiner → Expected<RingJoinReply>
  kRingNotify = 33,     ///< RingNode candidate predecessor → Status
  kRingStabilize = 34,  ///< (empty) → Expected<RingStabilizeReply>
  kRingStore = 35,      ///< RingStoreRequest → status batch (one per op)
  kRingLeave = 36,      ///< RingLeaveRequest → Status
  kRingInfo = 37,       ///< (empty) → Expected<RingStatusInfo>
  kRingSearch = 38,     ///< name → Expected<data list>; member-local
                        ///< dc_search, never fanned out again
  // Job subsystem (PR 7): compute-to-data. Submit decomposes a JobSpec into
  // tasks the scheduler places with replica affinity; workers claim
  // delivered tasks (first claim wins) and report outcomes.
  kJobSubmit = 39,      ///< JobSpec → Expected<Auid job>
  kJobStatus = 40,      ///< Auid job → Expected<JobStatusInfo>
  kJobClaim = 41,       ///< Auid task, host → Expected<TaskOrder>
  kJobTaskReport = 42,  ///< TaskReport → Status
  // Sentinel: must stay last. kMaxEndpoint derives from it so the decode
  // range in read_frame_header can never drift when endpoints are added;
  // wire.cpp static_asserts that endpoint_name covers every value.
  kEndpointCount,
};

inline constexpr std::uint16_t kMaxEndpoint =
    static_cast<std::uint16_t>(Endpoint::kEndpointCount) - 1;

const char* endpoint_name(Endpoint endpoint);

struct FrameHeader {
  Endpoint endpoint = Endpoint::kPing;
  std::uint64_t request_id = 0;

  friend bool operator==(const FrameHeader&, const FrameHeader&) = default;
};

/// Encoded size of a frame header (u16 endpoint + u64 request id).
inline constexpr std::size_t kFrameHeaderBytes = 2 + 8;

void write_frame_header(Writer& w, const FrameHeader& header);
/// Throws CodecError on an unknown endpoint id.
FrameHeader read_frame_header(Reader& r);

// --- model types -------------------------------------------------------------
void write_auid(Writer& w, const util::Auid& uid);
util::Auid read_auid(Reader& r);

void write_data(Writer& w, const core::Data& data);
core::Data read_data(Reader& r);

void write_locator(Writer& w, const core::Locator& locator);
core::Locator read_locator(Reader& r);

void write_attributes(Writer& w, const core::DataAttributes& attributes);
core::DataAttributes read_attributes(Reader& r);

void write_content(Writer& w, const core::Content& content);
core::Content read_content(Reader& r);

void write_scheduled_data(Writer& w, const services::ScheduledData& item);
services::ScheduledData read_scheduled_data(Reader& r);

/// Sync protocol v2: the request body starts with a version byte so a
/// scheduler can reject frames from a foreign protocol generation with a
/// typed error instead of silently misparsing them.
inline constexpr std::uint8_t kSyncRequestWireVersion = 2;

void write_sync_request(Writer& w, const services::SyncRequest& request);
/// Throws CodecError when the leading version byte is not
/// kSyncRequestWireVersion (mixed-version fleets fail typed, not corrupt).
services::SyncRequest read_sync_request(Reader& r);

void write_sync_reply(Writer& w, const services::SyncReply& reply);
services::SyncReply read_sync_reply(Reader& r);

void write_host_info(Writer& w, const services::HostInfo& info);
services::HostInfo read_host_info(Reader& r);

void write_host_list(Writer& w, const std::vector<services::HostInfo>& hosts);
std::vector<services::HostInfo> read_host_list(Reader& r);

void write_repo_stats(Writer& w, const services::RepoStats& stats);
services::RepoStats read_repo_stats(Reader& r);

/// The per-download peer locator lists of a SyncReply (list of lists,
/// index-aligned with the download partition).
void write_source_lists(Writer& w, const std::vector<std::vector<core::Locator>>& sources);
std::vector<std::vector<core::Locator>> read_source_lists(Reader& r);

// --- job messages ------------------------------------------------------------
void write_job_spec(Writer& w, const jobs::JobSpec& spec);
jobs::JobSpec read_job_spec(Reader& r);

void write_task_order(Writer& w, const jobs::TaskOrder& order);
jobs::TaskOrder read_task_order(Reader& r);

void write_task_report(Writer& w, const jobs::TaskReport& report);
jobs::TaskReport read_task_report(Reader& r);

void write_task_info(Writer& w, const jobs::TaskInfo& info);
jobs::TaskInfo read_task_info(Reader& r);

void write_job_status_info(Writer& w, const jobs::JobStatusInfo& info);
jobs::JobStatusInfo read_job_status_info(Reader& r);

// --- ring messages -----------------------------------------------------------
// The live DHT ring (src/dht/live_ring.hpp) speaks these over the same
// framed transport as the catalog endpoints. A RingNode is a member's ring
// position plus the "host:port" its ServiceHost answers on.

struct RingNode {
  std::uint64_t id = 0;
  std::string endpoint;  ///< "host:port" of the member's ServiceHost

  friend bool operator==(const RingNode&, const RingNode&) = default;
};

/// One step of an iterative lookup: either the owner was resolved (`done`)
/// or `node` is the next member to ask.
struct RingLookupReply {
  bool done = false;
  RingNode node;

  friend bool operator==(const RingLookupReply&, const RingLookupReply&) = default;
};

/// A replayable catalog mutation: the original request body under its
/// endpoint. Only the keyed mutating endpoints (dc_register, dc_remove,
/// dc_add_locator, ddc_publish) are legal here — read_ring_op rejects
/// anything else, so a kRingStore frame can never smuggle arbitrary calls.
struct RingOp {
  Endpoint endpoint = Endpoint::kDcRegister;
  std::string body;

  friend bool operator==(const RingOp&, const RingOp&) = default;
};

/// True when `endpoint` may appear inside a RingOp.
bool ring_op_endpoint_allowed(Endpoint endpoint);

struct RingJoinReply {
  RingNode self;                     ///< the successor that admitted us
  bool has_pred = false;
  RingNode pred;                     ///< its previous predecessor (our hint)
  std::vector<RingNode> successors;  ///< its successor list
  std::vector<RingOp> handoff;       ///< keys in (pred, joiner] re-encoded

  friend bool operator==(const RingJoinReply&, const RingJoinReply&) = default;
};

struct RingStabilizeReply {
  bool has_pred = false;
  RingNode pred;
  std::vector<RingNode> successors;

  friend bool operator==(const RingStabilizeReply&, const RingStabilizeReply&) = default;
};

struct RingStoreRequest {
  /// true: the receiver owns these ops and re-replicates them to its own
  /// successor list; false: plain replica write, no further fan-out.
  bool replicate = false;
  std::vector<RingOp> ops;

  friend bool operator==(const RingStoreRequest&, const RingStoreRequest&) = default;
};

struct RingLeaveRequest {
  RingNode leaver;
  bool has_pred = false;
  RingNode pred;  ///< the leaver's predecessor, adopted by its successor

  friend bool operator==(const RingLeaveRequest&, const RingLeaveRequest&) = default;
};

struct RingStatusInfo {
  RingNode self;
  bool has_pred = false;
  RingNode pred;
  std::vector<RingNode> successors;
  std::uint32_t fingers_resolved = 0;
  std::uint32_t fingers_total = 0;
  std::uint64_t dc_keys = 0;   ///< catalog uids held (replicas included)
  std::uint64_t ddc_keys = 0;  ///< ddc keys held (replicas included)

  friend bool operator==(const RingStatusInfo&, const RingStatusInfo&) = default;
};

void write_ring_node(Writer& w, const RingNode& node);
RingNode read_ring_node(Reader& r);

void write_ring_lookup_reply(Writer& w, const RingLookupReply& reply);
RingLookupReply read_ring_lookup_reply(Reader& r);

void write_ring_op(Writer& w, const RingOp& op);
RingOp read_ring_op(Reader& r);

void write_ring_join_reply(Writer& w, const RingJoinReply& reply);
RingJoinReply read_ring_join_reply(Reader& r);

void write_ring_stabilize_reply(Writer& w, const RingStabilizeReply& reply);
RingStabilizeReply read_ring_stabilize_reply(Reader& r);

void write_ring_store_request(Writer& w, const RingStoreRequest& request);
RingStoreRequest read_ring_store_request(Reader& r);

void write_ring_leave_request(Writer& w, const RingLeaveRequest& request);
RingLeaveRequest read_ring_leave_request(Reader& r);

void write_ring_status_info(Writer& w, const RingStatusInfo& info);
RingStatusInfo read_ring_status_info(Reader& r);

// --- error channel -----------------------------------------------------------
void write_error(Writer& w, const api::Error& error);
api::Error read_error(Reader& r);

void write_status(Writer& w, const api::Status& status);
api::Status read_status(Reader& r);

// --- scalar reply payloads ---------------------------------------------------
// Expected<T> on the wire: a success flag, then the value or the Error.
// `write_value` / `read_value` encode the payload type.
template <typename T, typename WriteValue>
void write_expected(Writer& w, const api::Expected<T>& value, WriteValue&& write_value) {
  w.boolean(value.ok());
  if (value.ok()) {
    write_value(w, value.value());
  } else {
    write_error(w, value.error());
  }
}

template <typename T, typename ReadValue>
api::Expected<T> read_expected(Reader& r, ReadValue&& read_value) {
  if (r.boolean()) return api::Expected<T>(read_value(r));
  api::Error error = read_error(r);
  if (error.code == api::Errc::kOk) throw CodecError("failed reply with ok code");
  return api::Expected<T>(std::move(error));
}

// --- lists -------------------------------------------------------------------
// A u32 count, then the items. read_list rejects a count beyond the bytes
// left (every item takes at least one), so a garbage count is a typed
// decode error before anything is reserved.
template <typename T, typename WriteItem>
void write_list(Writer& w, const std::vector<T>& items, WriteItem&& write_item) {
  w.u32(static_cast<std::uint32_t>(items.size()));
  for (const T& item : items) write_item(w, item);
}

template <typename T, typename ReadItem>
std::vector<T> read_list(Reader& r, ReadItem&& read_item) {
  const std::uint32_t count = r.u32();
  if (count > r.remaining()) {
    throw CodecError("list count " + std::to_string(count) + " exceeds remaining " +
                     std::to_string(r.remaining()) + " bytes");
  }
  std::vector<T> out;
  out.reserve(std::min<std::size_t>(count, 4096));
  for (std::uint32_t i = 0; i < count; ++i) out.push_back(read_item(r));
  return out;
}

// List payloads shared by several scalar replies.
void write_auid_list(Writer& w, const std::vector<util::Auid>& uids);
std::vector<util::Auid> read_auid_list(Reader& r);

void write_data_list(Writer& w, const std::vector<core::Data>& items);
std::vector<core::Data> read_data_list(Reader& r);

void write_locator_list(Writer& w, const std::vector<core::Locator>& locators);
std::vector<core::Locator> read_locator_list(Reader& r);

void write_string_list(Writer& w, const std::vector<std::string>& values);
std::vector<std::string> read_string_list(Reader& r);

// --- batch messages ----------------------------------------------------------
// Requests are a u32 count followed by the items; replies are index-aligned
// per-item payloads. decode throws CodecError on malformed input.
void write_register_batch(Writer& w, const std::vector<core::Data>& items);
std::vector<core::Data> read_register_batch(Reader& r);

void write_locators_batch_request(Writer& w, const std::vector<util::Auid>& uids);
std::vector<util::Auid> read_locators_batch_request(Reader& r);

void write_locators_batch_reply(
    Writer& w, const std::vector<api::Expected<std::vector<core::Locator>>>& reply);
std::vector<api::Expected<std::vector<core::Locator>>> read_locators_batch_reply(Reader& r);

void write_schedule_batch(Writer& w,
                          const std::vector<std::pair<core::Data, core::DataAttributes>>& items);
std::vector<std::pair<core::Data, core::DataAttributes>> read_schedule_batch(Reader& r);

void write_publish_batch(Writer& w,
                         const std::vector<std::pair<std::string, std::string>>& pairs);
std::vector<std::pair<std::string, std::string>> read_publish_batch(Reader& r);

void write_status_batch(Writer& w, const std::vector<api::Status>& statuses);
std::vector<api::Status> read_status_batch(Reader& r);

// --- sizing helpers ----------------------------------------------------------
/// Encoded size of a ds_schedule_batch request.
std::int64_t schedule_batch_bytes(
    const std::vector<std::pair<core::Data, core::DataAttributes>>& items);
/// Encoded size of a ds_sync request — O(Δ) for delta beats, which is what
/// the soak bench's bytes-per-beat gate measures.
std::int64_t sync_request_bytes(const services::SyncRequest& request);

// --- field codec -------------------------------------------------------------
// Field<T>::write / Field<T>::read encode one T with the shapes above. The
// bus endpoint list (api/service_ops.hpp) encodes through it: a request
// body is the handler's arguments in order, a reply body is the handler's
// return value. Lists, pairs and Expected<T> compose.
template <typename T>
struct Field;

template <auto Write, auto Read>
struct Shape {
  static constexpr auto write = Write;
  static constexpr auto read = Read;
};

template <> struct Field<util::Auid> : Shape<&write_auid, &read_auid> {};
template <> struct Field<core::Data> : Shape<&write_data, &read_data> {};
template <> struct Field<core::Locator> : Shape<&write_locator, &read_locator> {};
template <> struct Field<core::Content> : Shape<&write_content, &read_content> {};
template <> struct Field<core::DataAttributes> : Shape<&write_attributes, &read_attributes> {};
template <>
struct Field<services::ScheduledData> : Shape<&write_scheduled_data, &read_scheduled_data> {};
template <>
struct Field<services::SyncRequest> : Shape<&write_sync_request, &read_sync_request> {};
template <> struct Field<services::SyncReply> : Shape<&write_sync_reply, &read_sync_reply> {};
template <> struct Field<services::HostInfo> : Shape<&write_host_info, &read_host_info> {};
template <> struct Field<services::RepoStats> : Shape<&write_repo_stats, &read_repo_stats> {};
template <> struct Field<jobs::JobSpec> : Shape<&write_job_spec, &read_job_spec> {};
template <> struct Field<jobs::TaskOrder> : Shape<&write_task_order, &read_task_order> {};
template <> struct Field<jobs::TaskReport> : Shape<&write_task_report, &read_task_report> {};
template <>
struct Field<jobs::JobStatusInfo> : Shape<&write_job_status_info, &read_job_status_info> {};
template <> struct Field<api::Status> : Shape<&write_status, &read_status> {};
template <>
struct Field<RingStatusInfo> : Shape<&write_ring_status_info, &read_ring_status_info> {};

template <> struct Field<std::string> {
  static void write(Writer& w, const std::string& value) { w.str(value); }
  static std::string read(Reader& r) { return r.str(); }
};
template <> struct Field<std::int64_t> {
  static void write(Writer& w, std::int64_t value) { w.i64(value); }
  static std::int64_t read(Reader& r) { return r.i64(); }
};
template <> struct Field<std::uint64_t> {
  static void write(Writer& w, std::uint64_t value) { w.u64(value); }
  static std::uint64_t read(Reader& r) { return r.u64(); }
};
template <> struct Field<bool> {
  static void write(Writer& w, bool value) { w.boolean(value); }
  static bool read(Reader& r) { return r.boolean(); }
};

template <typename A, typename B>
struct Field<std::pair<A, B>> {
  static void write(Writer& w, const std::pair<A, B>& value) {
    Field<A>::write(w, value.first);
    Field<B>::write(w, value.second);
  }
  static std::pair<A, B> read(Reader& r) {
    A first = Field<A>::read(r);
    return {std::move(first), Field<B>::read(r)};
  }
};

template <typename T>
struct Field<std::vector<T>> {
  static void write(Writer& w, const std::vector<T>& items) {
    write_list(w, items, Field<T>::write);
  }
  static std::vector<T> read(Reader& r) { return read_list<T>(r, Field<T>::read); }
};

template <typename T>
struct Field<api::Expected<T>> {
  static void write(Writer& w, const api::Expected<T>& value) {
    write_expected(w, value, Field<T>::write);
  }
  static api::Expected<T> read(Reader& r) { return read_expected<T>(r, Field<T>::read); }
};

/// Writes `fields` back to back: the request body of a bus endpoint.
template <typename... T>
void write_fields(Writer& w, const T&... fields) {
  (Field<T>::write(w, fields), ...);
}

/// Reads the fields of a tuple type back to back, left to right.
template <typename... T>
std::tuple<T...> read_fields(Reader& r, std::type_identity<std::tuple<T...>>) {
  return {Field<T>::read(r)...};
}

}  // namespace bitdew::rpc::wire
