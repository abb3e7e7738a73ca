#include "rpc/wire.hpp"

#include <algorithm>
#include <iterator>

namespace bitdew::rpc::wire {

namespace {

// Indexed by wire value. The static_assert ties this table to the
// kEndpointCount sentinel: adding an endpoint without naming it (or without
// keeping the sentinel last) fails the build instead of silently widening
// the decode range or reporting "unknown" for a live endpoint.
constexpr const char* kEndpointNames[] = {
    "ping",
    "dc_register",
    "dc_get",
    "dc_search",
    "dc_remove",
    "dc_add_locator",
    "dc_locators",
    "dr_put",
    "dr_get",
    "dr_remove",
    "dt_register",
    "dt_monitor",
    "dt_complete",
    "dt_failure",
    "dt_give_up",
    "ds_schedule",
    "ds_pin",
    "ds_unschedule",
    "ds_sync",
    "ddc_publish",
    "ddc_search",
    "dc_register_batch",
    "dc_locators_batch",
    "ds_schedule_batch",
    "ddc_publish_batch",
    "dr_put_start",
    "dr_put_chunk",
    "dr_put_commit",
    "dr_get_chunk",
    "ds_hosts",
    "dr_stats",
    "ring_lookup",
    "ring_join",
    "ring_notify",
    "ring_stabilize",
    "ring_store",
    "ring_leave",
    "ring_info",
    "ring_search",
    "job_submit",
    "job_status",
    "job_claim",
    "job_task_report",
};

static_assert(std::size(kEndpointNames) ==
                  static_cast<std::size_t>(Endpoint::kEndpointCount),
              "every Endpoint value needs an entry in kEndpointNames");

}  // namespace

const char* endpoint_name(Endpoint endpoint) {
  const auto value = static_cast<std::size_t>(endpoint);
  if (value >= std::size(kEndpointNames)) return "unknown";
  return kEndpointNames[value];
}

void write_frame_header(Writer& w, const FrameHeader& header) {
  w.u16(static_cast<std::uint16_t>(header.endpoint));
  w.u64(header.request_id);
}

FrameHeader read_frame_header(Reader& r) {
  const std::uint16_t endpoint = r.u16();
  if (endpoint > kMaxEndpoint) {
    throw CodecError("unknown endpoint id " + std::to_string(endpoint));
  }
  FrameHeader header;
  header.endpoint = static_cast<Endpoint>(endpoint);
  header.request_id = r.u64();
  return header;
}

void write_auid(Writer& w, const util::Auid& uid) {
  w.u64(uid.hi);
  w.u64(uid.lo);
}

util::Auid read_auid(Reader& r) {
  util::Auid uid;
  uid.hi = r.u64();
  uid.lo = r.u64();
  return uid;
}

void write_data(Writer& w, const core::Data& data) {
  write_auid(w, data.uid);
  w.str(data.name);
  w.str(data.checksum);
  w.i64(data.size);
  w.u32(data.flags);
}

core::Data read_data(Reader& r) {
  core::Data data;
  data.uid = read_auid(r);
  data.name = r.str();
  data.checksum = r.str();
  data.size = r.i64();
  data.flags = r.u32();
  return data;
}

void write_locator(Writer& w, const core::Locator& locator) {
  write_auid(w, locator.data_uid);
  w.str(locator.protocol);
  w.str(locator.host);
  w.str(locator.path);
  w.str(locator.credentials);
}

core::Locator read_locator(Reader& r) {
  core::Locator locator;
  locator.data_uid = read_auid(r);
  locator.protocol = r.str();
  locator.host = r.str();
  locator.path = r.str();
  locator.credentials = r.str();
  return locator;
}

void write_attributes(Writer& w, const core::DataAttributes& attributes) {
  w.str(attributes.name);
  w.i64(attributes.replica);
  w.boolean(attributes.fault_tolerant);
  w.u8(static_cast<std::uint8_t>(attributes.lifetime.kind));
  w.f64(attributes.lifetime.expires_at);
  write_auid(w, attributes.lifetime.reference);
  write_auid(w, attributes.affinity);
  w.str(attributes.affinity_name);
  w.str(attributes.protocol);
}

core::DataAttributes read_attributes(Reader& r) {
  core::DataAttributes attributes;
  attributes.name = r.str();
  attributes.replica = static_cast<int>(r.i64());
  attributes.fault_tolerant = r.boolean();
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(core::Lifetime::Kind::kDuration)) {
    throw CodecError("bad lifetime kind " + std::to_string(kind));
  }
  attributes.lifetime.kind = static_cast<core::Lifetime::Kind>(kind);
  attributes.lifetime.expires_at = r.f64();
  attributes.lifetime.reference = read_auid(r);
  attributes.affinity = read_auid(r);
  attributes.affinity_name = r.str();
  attributes.protocol = r.str();
  return attributes;
}

void write_content(Writer& w, const core::Content& content) {
  w.i64(content.size);
  w.str(content.checksum);
}

core::Content read_content(Reader& r) {
  core::Content content;
  content.size = r.i64();
  content.checksum = r.str();
  return content;
}

void write_scheduled_data(Writer& w, const services::ScheduledData& item) {
  write_data(w, item.data);
  write_attributes(w, item.attributes);
}

services::ScheduledData read_scheduled_data(Reader& r) {
  services::ScheduledData item;
  item.data = read_data(r);
  item.attributes = read_attributes(r);
  return item;
}

void write_error(Writer& w, const api::Error& error) {
  w.u8(static_cast<std::uint8_t>(error.code));
  w.str(error.service);
  w.str(error.message);
}

api::Error read_error(Reader& r) {
  api::Error error;
  const std::uint8_t code = r.u8();
  if (code > static_cast<std::uint8_t>(api::Errc::kRedirect)) {
    throw CodecError("bad error code " + std::to_string(code));
  }
  error.code = static_cast<api::Errc>(code);
  error.service = r.str();
  error.message = r.str();
  return error;
}

void write_status(Writer& w, const api::Status& status) {
  w.boolean(status.ok());
  if (!status.ok()) write_error(w, status.error());
}

api::Status read_status(Reader& r) {
  if (r.boolean()) return api::ok_status();
  api::Error error = read_error(r);
  if (error.code == api::Errc::kOk) throw CodecError("failed status with ok code");
  return error;
}

void write_auid_list(Writer& w, const std::vector<util::Auid>& uids) {
  write_list(w, uids, write_auid);
}

std::vector<util::Auid> read_auid_list(Reader& r) {
  return read_list<util::Auid>(r, read_auid);
}

void write_data_list(Writer& w, const std::vector<core::Data>& items) {
  write_list(w, items, write_data);
}

std::vector<core::Data> read_data_list(Reader& r) {
  return read_list<core::Data>(r, read_data);
}

void write_locator_list(Writer& w, const std::vector<core::Locator>& locators) {
  write_list(w, locators, write_locator);
}

std::vector<core::Locator> read_locator_list(Reader& r) {
  return read_list<core::Locator>(r, read_locator);
}

void write_string_list(Writer& w, const std::vector<std::string>& values) {
  write_list(w, values, [](Writer& wr, const std::string& value) { wr.str(value); });
}

std::vector<std::string> read_string_list(Reader& r) {
  return read_list<std::string>(r, [](Reader& rd) { return rd.str(); });
}

void write_source_lists(Writer& w, const std::vector<std::vector<core::Locator>>& sources) {
  write_list(w, sources, [](Writer& wr, const std::vector<core::Locator>& list) {
    write_locator_list(wr, list);
  });
}

std::vector<std::vector<core::Locator>> read_source_lists(Reader& r) {
  return read_list<std::vector<core::Locator>>(r, read_locator_list);
}

void write_sync_request(Writer& w, const services::SyncRequest& request) {
  w.u8(kSyncRequestWireVersion);
  w.str(request.host);
  w.u64(request.epoch);
  w.boolean(request.full);
  write_auid_list(w, request.added);
  write_auid_list(w, request.removed);
  write_auid_list(w, request.in_flight);
  w.str(request.endpoint);
}

services::SyncRequest read_sync_request(Reader& r) {
  const std::uint8_t version = r.u8();
  if (version != kSyncRequestWireVersion) {
    throw CodecError("unsupported ds_sync request version");
  }
  services::SyncRequest request;
  request.host = r.str();
  request.epoch = r.u64();
  request.full = r.boolean();
  request.added = read_auid_list(r);
  request.removed = read_auid_list(r);
  request.in_flight = read_auid_list(r);
  request.endpoint = r.str();
  return request;
}

void write_sync_reply(Writer& w, const services::SyncReply& reply) {
  w.u64(reply.epoch);
  w.boolean(reply.resync);
  write_auid_list(w, reply.keep);
  write_list(w, reply.download, write_scheduled_data);
  write_auid_list(w, reply.drop);
  write_source_lists(w, reply.sources);
}

services::SyncReply read_sync_reply(Reader& r) {
  services::SyncReply reply;
  reply.epoch = r.u64();
  reply.resync = r.boolean();
  reply.keep = read_auid_list(r);
  reply.download = read_list<services::ScheduledData>(r, read_scheduled_data);
  reply.drop = read_auid_list(r);
  reply.sources = read_source_lists(r);
  // The locator lists are per-download-item; a count that disagrees with
  // the download partition is a malformed reply, not a recoverable state.
  if (reply.sources.size() != reply.download.size()) {
    throw CodecError("sync reply sources not aligned with downloads");
  }
  return reply;
}

void write_host_info(Writer& w, const services::HostInfo& info) {
  w.str(info.name);
  w.f64(info.last_sync_age_s);
  w.boolean(info.alive);
  w.u32(info.cached);
  w.str(info.endpoint);
  w.u64(info.full_syncs);
  w.u64(info.delta_syncs);
  w.u32(info.last_delta_items);
}

services::HostInfo read_host_info(Reader& r) {
  services::HostInfo info;
  info.name = r.str();
  info.last_sync_age_s = r.f64();
  info.alive = r.boolean();
  info.cached = r.u32();
  info.endpoint = r.str();
  info.full_syncs = r.u64();
  info.delta_syncs = r.u64();
  info.last_delta_items = r.u32();
  return info;
}

void write_host_list(Writer& w, const std::vector<services::HostInfo>& hosts) {
  write_list(w, hosts, write_host_info);
}

std::vector<services::HostInfo> read_host_list(Reader& r) {
  return read_list<services::HostInfo>(r, read_host_info);
}

void write_repo_stats(Writer& w, const services::RepoStats& stats) {
  w.u64(stats.objects);
  w.i64(stats.stored_bytes);
  w.u64(stats.chunk_reads);
  w.i64(stats.chunk_read_bytes);
  w.u64(stats.blob_copies);
  w.u64(stats.slice_reads);
}

services::RepoStats read_repo_stats(Reader& r) {
  services::RepoStats stats;
  stats.objects = r.u64();
  stats.stored_bytes = r.i64();
  stats.chunk_reads = r.u64();
  stats.chunk_read_bytes = r.i64();
  stats.blob_copies = r.u64();
  stats.slice_reads = r.u64();
  return stats;
}

void write_job_spec(Writer& w, const jobs::JobSpec& spec) {
  write_auid(w, spec.uid);
  w.str(spec.name);
  write_string_list(w, spec.argv);
  write_string_list(w, spec.env);
  w.f64(spec.timeout_s);
  write_auid_list(w, spec.inputs);
  write_auid(w, spec.collector);
}

jobs::JobSpec read_job_spec(Reader& r) {
  jobs::JobSpec spec;
  spec.uid = read_auid(r);
  spec.name = r.str();
  spec.argv = read_string_list(r);
  spec.env = read_string_list(r);
  spec.timeout_s = r.f64();
  spec.inputs = read_auid_list(r);
  spec.collector = read_auid(r);
  return spec;
}

void write_task_order(Writer& w, const jobs::TaskOrder& order) {
  write_auid(w, order.task);
  write_auid(w, order.job);
  w.i64(order.index);
  write_string_list(w, order.argv);
  write_string_list(w, order.env);
  w.f64(order.timeout_s);
  write_data(w, order.input);
  w.str(order.result_name);
}

jobs::TaskOrder read_task_order(Reader& r) {
  jobs::TaskOrder order;
  order.task = read_auid(r);
  order.job = read_auid(r);
  order.index = static_cast<std::int32_t>(r.i64());
  order.argv = read_string_list(r);
  order.env = read_string_list(r);
  order.timeout_s = r.f64();
  order.input = read_data(r);
  order.result_name = r.str();
  return order;
}

void write_task_report(Writer& w, const jobs::TaskReport& report) {
  write_auid(w, report.task);
  w.str(report.runner);
  w.boolean(report.ok);
  w.i64(report.exit_code);
  w.boolean(report.timed_out);
  w.boolean(report.data_local);
  write_data(w, report.result);
}

jobs::TaskReport read_task_report(Reader& r) {
  jobs::TaskReport report;
  report.task = read_auid(r);
  report.runner = r.str();
  report.ok = r.boolean();
  report.exit_code = static_cast<std::int32_t>(r.i64());
  report.timed_out = r.boolean();
  report.data_local = r.boolean();
  report.result = read_data(r);
  return report;
}

void write_task_info(Writer& w, const jobs::TaskInfo& info) {
  w.i64(info.index);
  w.u8(static_cast<std::uint8_t>(info.phase));
  w.str(info.runner);
  w.i64(info.attempts);
  w.boolean(info.data_local);
  write_auid(w, info.result);
}

jobs::TaskInfo read_task_info(Reader& r) {
  jobs::TaskInfo info;
  info.index = static_cast<std::int32_t>(r.i64());
  const std::uint8_t phase = r.u8();
  if (phase > static_cast<std::uint8_t>(jobs::TaskPhase::kFailed)) {
    throw CodecError("unknown task phase " + std::to_string(phase));
  }
  info.phase = static_cast<jobs::TaskPhase>(phase);
  info.runner = r.str();
  info.attempts = static_cast<std::int32_t>(r.i64());
  info.data_local = r.boolean();
  info.result = read_auid(r);
  return info;
}

void write_job_status_info(Writer& w, const jobs::JobStatusInfo& info) {
  write_auid(w, info.job);
  w.str(info.name);
  w.i64(info.total);
  w.i64(info.waiting);
  w.i64(info.running);
  w.i64(info.done);
  w.i64(info.failed);
  w.i64(info.data_local);
  w.i64(info.replaced);
  write_list(w, info.tasks, write_task_info);
}

jobs::JobStatusInfo read_job_status_info(Reader& r) {
  jobs::JobStatusInfo info;
  info.job = read_auid(r);
  info.name = r.str();
  info.total = static_cast<std::int32_t>(r.i64());
  info.waiting = static_cast<std::int32_t>(r.i64());
  info.running = static_cast<std::int32_t>(r.i64());
  info.done = static_cast<std::int32_t>(r.i64());
  info.failed = static_cast<std::int32_t>(r.i64());
  info.data_local = static_cast<std::int32_t>(r.i64());
  info.replaced = static_cast<std::int32_t>(r.i64());
  info.tasks = read_list<jobs::TaskInfo>(r, read_task_info);
  return info;
}

void write_register_batch(Writer& w, const std::vector<core::Data>& items) {
  write_list(w, items, write_data);
}

std::vector<core::Data> read_register_batch(Reader& r) {
  return read_list<core::Data>(r, read_data);
}

void write_locators_batch_request(Writer& w, const std::vector<util::Auid>& uids) {
  write_list(w, uids, write_auid);
}

std::vector<util::Auid> read_locators_batch_request(Reader& r) {
  return read_list<util::Auid>(r, read_auid);
}

void write_locators_batch_reply(
    Writer& w, const std::vector<api::Expected<std::vector<core::Locator>>>& reply) {
  write_list(w, reply, [](Writer& wr, const api::Expected<std::vector<core::Locator>>& item) {
    wr.boolean(item.ok());
    if (item.ok()) {
      write_list(wr, item.value(), write_locator);
    } else {
      write_error(wr, item.error());
    }
  });
}

std::vector<api::Expected<std::vector<core::Locator>>> read_locators_batch_reply(Reader& r) {
  return read_list<api::Expected<std::vector<core::Locator>>>(
      r, [](Reader& rd) -> api::Expected<std::vector<core::Locator>> {
        if (rd.boolean()) return read_list<core::Locator>(rd, read_locator);
        api::Error error = read_error(rd);
        if (error.code == api::Errc::kOk) throw CodecError("failed reply with ok code");
        return error;
      });
}

void write_schedule_batch(
    Writer& w, const std::vector<std::pair<core::Data, core::DataAttributes>>& items) {
  write_list(w, items,
             [](Writer& wr, const std::pair<core::Data, core::DataAttributes>& item) {
               write_data(wr, item.first);
               write_attributes(wr, item.second);
             });
}

std::vector<std::pair<core::Data, core::DataAttributes>> read_schedule_batch(Reader& r) {
  return read_list<std::pair<core::Data, core::DataAttributes>>(r, [](Reader& rd) {
    core::Data data = read_data(rd);
    core::DataAttributes attributes = read_attributes(rd);
    return std::make_pair(std::move(data), std::move(attributes));
  });
}

void write_publish_batch(Writer& w,
                         const std::vector<std::pair<std::string, std::string>>& pairs) {
  write_list(w, pairs, [](Writer& wr, const std::pair<std::string, std::string>& pair) {
    wr.str(pair.first);
    wr.str(pair.second);
  });
}

std::vector<std::pair<std::string, std::string>> read_publish_batch(Reader& r) {
  return read_list<std::pair<std::string, std::string>>(r, [](Reader& rd) {
    std::string key = rd.str();
    std::string value = rd.str();
    return std::make_pair(std::move(key), std::move(value));
  });
}

void write_status_batch(Writer& w, const std::vector<api::Status>& statuses) {
  write_list(w, statuses, write_status);
}

std::vector<api::Status> read_status_batch(Reader& r) {
  return read_list<api::Status>(r, read_status);
}

bool ring_op_endpoint_allowed(Endpoint endpoint) {
  switch (endpoint) {
    case Endpoint::kDcRegister:
    case Endpoint::kDcRemove:
    case Endpoint::kDcAddLocator:
    case Endpoint::kDdcPublish:
      return true;
    default:
      return false;
  }
}

void write_ring_node(Writer& w, const RingNode& node) {
  w.u64(node.id);
  w.str(node.endpoint);
}

RingNode read_ring_node(Reader& r) {
  RingNode node;
  node.id = r.u64();
  node.endpoint = r.str();
  return node;
}

namespace {

void write_ring_node_list(Writer& w, const std::vector<RingNode>& nodes) {
  write_list(w, nodes, write_ring_node);
}

std::vector<RingNode> read_ring_node_list(Reader& r) {
  return read_list<RingNode>(r, read_ring_node);
}

void write_ring_op_list(Writer& w, const std::vector<RingOp>& ops) {
  write_list(w, ops, write_ring_op);
}

std::vector<RingOp> read_ring_op_list(Reader& r) {
  return read_list<RingOp>(r, read_ring_op);
}

}  // namespace

void write_ring_lookup_reply(Writer& w, const RingLookupReply& reply) {
  w.boolean(reply.done);
  write_ring_node(w, reply.node);
}

RingLookupReply read_ring_lookup_reply(Reader& r) {
  RingLookupReply reply;
  reply.done = r.boolean();
  reply.node = read_ring_node(r);
  return reply;
}

void write_ring_op(Writer& w, const RingOp& op) {
  w.u16(static_cast<std::uint16_t>(op.endpoint));
  w.str(op.body);
}

RingOp read_ring_op(Reader& r) {
  const std::uint16_t endpoint = r.u16();
  if (endpoint > kMaxEndpoint || !ring_op_endpoint_allowed(static_cast<Endpoint>(endpoint))) {
    throw CodecError("illegal ring op endpoint " + std::to_string(endpoint));
  }
  RingOp op;
  op.endpoint = static_cast<Endpoint>(endpoint);
  op.body = r.str();
  return op;
}

void write_ring_join_reply(Writer& w, const RingJoinReply& reply) {
  write_ring_node(w, reply.self);
  w.boolean(reply.has_pred);
  write_ring_node(w, reply.pred);
  write_ring_node_list(w, reply.successors);
  write_ring_op_list(w, reply.handoff);
}

RingJoinReply read_ring_join_reply(Reader& r) {
  RingJoinReply reply;
  reply.self = read_ring_node(r);
  reply.has_pred = r.boolean();
  reply.pred = read_ring_node(r);
  reply.successors = read_ring_node_list(r);
  reply.handoff = read_ring_op_list(r);
  return reply;
}

void write_ring_stabilize_reply(Writer& w, const RingStabilizeReply& reply) {
  w.boolean(reply.has_pred);
  write_ring_node(w, reply.pred);
  write_ring_node_list(w, reply.successors);
}

RingStabilizeReply read_ring_stabilize_reply(Reader& r) {
  RingStabilizeReply reply;
  reply.has_pred = r.boolean();
  reply.pred = read_ring_node(r);
  reply.successors = read_ring_node_list(r);
  return reply;
}

void write_ring_store_request(Writer& w, const RingStoreRequest& request) {
  w.boolean(request.replicate);
  write_ring_op_list(w, request.ops);
}

RingStoreRequest read_ring_store_request(Reader& r) {
  RingStoreRequest request;
  request.replicate = r.boolean();
  request.ops = read_ring_op_list(r);
  return request;
}

void write_ring_leave_request(Writer& w, const RingLeaveRequest& request) {
  write_ring_node(w, request.leaver);
  w.boolean(request.has_pred);
  write_ring_node(w, request.pred);
}

RingLeaveRequest read_ring_leave_request(Reader& r) {
  RingLeaveRequest request;
  request.leaver = read_ring_node(r);
  request.has_pred = r.boolean();
  request.pred = read_ring_node(r);
  return request;
}

void write_ring_status_info(Writer& w, const RingStatusInfo& info) {
  write_ring_node(w, info.self);
  w.boolean(info.has_pred);
  write_ring_node(w, info.pred);
  write_ring_node_list(w, info.successors);
  w.u32(info.fingers_resolved);
  w.u32(info.fingers_total);
  w.u64(info.dc_keys);
  w.u64(info.ddc_keys);
}

RingStatusInfo read_ring_status_info(Reader& r) {
  RingStatusInfo info;
  info.self = read_ring_node(r);
  info.has_pred = r.boolean();
  info.pred = read_ring_node(r);
  info.successors = read_ring_node_list(r);
  info.fingers_resolved = r.u32();
  info.fingers_total = r.u32();
  info.dc_keys = r.u64();
  info.ddc_keys = r.u64();
  return info;
}

std::int64_t schedule_batch_bytes(
    const std::vector<std::pair<core::Data, core::DataAttributes>>& items) {
  Writer w;
  write_schedule_batch(w, items);
  return static_cast<std::int64_t>(w.size());
}

std::int64_t sync_request_bytes(const services::SyncRequest& request) {
  Writer w;
  write_sync_request(w, request);
  return static_cast<std::int64_t>(w.size());
}

}  // namespace bitdew::rpc::wire
