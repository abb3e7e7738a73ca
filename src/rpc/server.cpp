#include "rpc/server.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <iterator>
#include <utility>

#include "api/service_ops.hpp"
#include "util/log.hpp"

namespace bitdew::rpc {
namespace {

using wire::Endpoint;

/// The endpoints ServiceHost answers itself, in ring_dispatch: liveness and
/// the ring protocol. Every other endpoint is on the bus endpoint list.
constexpr Endpoint kHostEndpoints[] = {
    Endpoint::kPing,       Endpoint::kRingLookup,    Endpoint::kRingJoin,
    Endpoint::kRingNotify, Endpoint::kRingStabilize, Endpoint::kRingStore,
    Endpoint::kRingLeave,  Endpoint::kRingInfo,      Endpoint::kRingSearch,
};

constexpr std::size_t kEndpoints = static_cast<std::size_t>(Endpoint::kEndpointCount);

constexpr bool every_endpoint_routed_once() {
  std::array<int, kEndpoints> routes{};
  for (const Endpoint endpoint : kHostEndpoints) ++routes[static_cast<std::size_t>(endpoint)];
  api::ops::for_each_endpoint(
      [&](auto op) { ++routes[static_cast<std::size_t>(decltype(op)::endpoint)]; });
  return std::all_of(routes.begin(), routes.end(), [](int count) { return count == 1; });
}

static_assert(every_endpoint_routed_once(),
              "every Endpoint needs exactly one route: an entry in the bus endpoint list "
              "(api/service_ops.hpp) or a ring_dispatch case (kHostEndpoints)");

/// Decodes Op's request, runs its handler and encodes the reply.
template <typename Op>
std::string serve(services::ServiceContainer& container, dht::LocalDht& ddc, Reader& r) {
  Writer w;
  std::apply(
      [&](const auto&... args) {
        wire::Field<typename Op::Reply>::write(w, Op::run(container, ddc, args...));
      },
      wire::read_fields(r, std::type_identity<typename Op::Request>{}));
  return w.take();
}

/// ds_sync: a body from a different sync-protocol generation (or a
/// truncated one) gets a typed kRejected reply instead of a dropped
/// connection — a mixed-version worker fails its beat cleanly and keeps
/// retrying full syncs until upgraded, rather than flapping its transport.
std::string serve_sync(services::ServiceContainer& container, dht::LocalDht& ddc, Reader& r) {
  try {
    return serve<api::ops::OpAt<Endpoint::kDsSync>>(container, ddc, r);
  } catch (const CodecError& error) {
    Writer w;
    wire::write_expected(w,
                         api::Expected<services::SyncReply>(
                             api::Error{api::Errc::kRejected, "ds", error.what()}),
                         wire::write_sync_reply);
    return w.take();
  }
}

using Route = std::string (*)(services::ServiceContainer&, dht::LocalDht&, Reader&);

/// The bus endpoints' routes, indexed by wire id (null for kHostEndpoints).
constexpr std::array<Route, kEndpoints> kRoutes = [] {
  std::array<Route, kEndpoints> routes{};
  api::ops::for_each_endpoint([&](auto op) {
    routes[static_cast<std::size_t>(decltype(op)::endpoint)] = &serve<decltype(op)>;
  });
  routes[static_cast<std::size_t>(Endpoint::kDsSync)] = &serve_sync;
  return routes;
}();

const util::Logger& logger() {
  static const util::Logger instance("servicehost");
  return instance;
}

EpollServerConfig server_config(const ServiceHostConfig& config) {
  EpollServerConfig out;
  out.port = config.port;
  out.loopback_only = config.loopback_only;
  out.idle_timeout_s = config.idle_timeout_s;
  out.write_timeout_s = config.write_timeout_s;
  out.worker_threads = config.worker_threads;
  out.max_in_flight_per_connection = config.max_in_flight_per_connection;
  return out;
}

}  // namespace

ServiceHost::ServiceHost(services::ServiceContainer& container, dht::LocalDht& ddc,
                         ServiceHostConfig config)
    : container_(container), ddc_(ddc), config_(config),
      server_(
          [this](std::uint64_t id, const std::string& payload) {
            return handle_frame(id, payload);
          },
          server_config(config)),
      data_shaper_(config.data_plane_upload_Bps) {}

ServiceHost::~ServiceHost() { stop(); }

api::Status ServiceHost::start() {
  if (running_.load()) return api::ok_status();
  const api::Status started = server_.start();
  if (!started.ok()) return started;
  running_.store(true);
  if (config_.failure_sweep_period_s > 0) {
    sweeper_ = std::thread(&ServiceHost::sweep_loop, this);
  }
  logger().debug("listening on port %u", static_cast<unsigned>(port()));
  return api::ok_status();
}

void ServiceHost::sweep_loop() {
  using clock_t = std::chrono::steady_clock;
  auto last_sweep = clock_t::now();
  auto last_tick = last_sweep;
  util::UniqueLock lock(sweep_mutex_);
  while (running_.load()) {
    const bool ring = ring_active_.load(std::memory_order_acquire);
    const double sweep_s = config_.failure_sweep_period_s;
    const double ring_s = ring ? ring_->config().stabilize_period_s : 0;
    double wait_s = 3600;
    if (sweep_s > 0) wait_s = std::min(wait_s, sweep_s);
    if (ring_s > 0) wait_s = std::min(wait_s, ring_s);
    const auto wake_at =
        clock_t::now() +
        std::chrono::duration_cast<clock_t::duration>(std::chrono::duration<double>(wait_s));
    while (running_.load() &&
           sweep_cv_.wait_until(lock, wake_at) != std::cv_status::timeout) {
    }
    if (!running_.load()) break;
    const auto now = clock_t::now();
    if (sweep_s > 0 &&
        std::chrono::duration<double>(now - last_sweep).count() + 1e-3 >= sweep_s) {
      last_sweep = now;
      std::vector<services::HostName> dead;
      std::size_t requeued = 0;
      {
        const util::LockGuard container_lock(container_mutex_);
        dead = container_.ds().detect_failures();
        // Job sweep rides the same beat: tasks whose runner just died (or
        // whose claim went overdue) are re-queued, and stale waiting tasks
        // loosen to any-host placement.
        requeued = container_.jobs().sweep();
      }
      for (const services::HostName& host : dead) {
        logger().info("failure sweep: host %s declared dead", host.c_str());
      }
      if (requeued > 0) {
        logger().info("job sweep: %zu task(s) re-placed", requeued);
      }
    }
    if (ring && std::chrono::duration<double>(now - last_tick).count() + 1e-3 >= ring_s) {
      last_tick = now;
      // Stabilization makes real RPCs: release sweep_mutex_ so stop() is
      // never parked behind a ring call timing out.
      lock.unlock();
      ring_->tick();
      router_->repair();
      lock.lock();
    }
  }
}

api::Status ServiceHost::start_ring(const RingOptions& options) {
  if (!running_.load()) {
    return api::Error{api::Errc::kUnavailable, "ring", "host not started"};
  }
  if (ring_active_.load(std::memory_order_acquire)) return api::ok_status();

  services::RingRouter::Hooks hooks;
  hooks.with_store = [this](const std::function<void()>& fn) {
    const util::LockGuard lock(container_mutex_);
    fn();
  };
  hooks.apply = [this](wire::Endpoint endpoint, Reader& r) {
    // Contract: the router only invokes apply inside with_store — the
    // capability is genuinely held, just through a std::function the
    // analysis cannot see into.
    container_mutex_.assert_held();
    return dispatch_unlocked(endpoint, r);
  };
  router_ = std::make_unique<services::RingRouter>(container_, ddc_, std::move(hooks));

  dht::LiveRingConfig ring_config;
  ring_config.ring_id = options.ring_id;
  ring_config.endpoint = options.advertise_host + ":" + std::to_string(port());
  ring_config.join_endpoint = options.join_endpoint;
  ring_config.arity = options.arity;
  ring_config.replication = options.replication_f;
  ring_config.stabilize_period_s = options.stabilize_period_s;
  ring_config.call_timeout_s = options.call_timeout_s;
  ring_ = std::make_unique<dht::LiveRing>(
      ring_config,
      [this](std::uint64_t from, std::uint64_t to) { return router_->ops_in_range(from, to); },
      [this](const std::vector<wire::RingOp>& ops) { router_->apply_ops(ops, false); });
  router_->attach(*ring_);
  router_->restore_persisted_state();

  // Publish before joining: the admitting member (and its peers) start
  // sending us lookups and stores as soon as the join is acknowledged.
  ring_active_.store(true, std::memory_order_release);
  const api::Status started = ring_->start();
  if (!started.ok()) {
    ring_active_.store(false, std::memory_order_release);
    return started;
  }
  // The sweep thread drives stabilization; make sure one exists even when
  // the failure sweep is disabled.
  if (!sweeper_.joinable()) sweeper_ = std::thread(&ServiceHost::sweep_loop, this);
  logger().info("ring member %s active (f=%d, k=%d)", ring_->self().endpoint.c_str(),
                ring_config.replication, ring_config.arity);
  return api::ok_status();
}

void ServiceHost::ring_leave() {
  if (!ring_active_.load(std::memory_order_acquire)) return;
  ring_->leave();
}

void ServiceHost::stop() {
  if (!running_.exchange(false)) return;
  {
    // Pair with the sweeper's CV wait: without this the notify can land
    // between its predicate check and the park, costing a full sweep
    // period of shutdown latency.
    const util::LockGuard lock(sweep_mutex_);
  }
  sweep_cv_.notify_all();
  if (sweeper_.joinable()) sweeper_.join();
  // The readiness loop closes the listener and every live connection before
  // its thread exits; the worker pool is drained and joined after it. No
  // thread can race a late accept.
  server_.stop();
}

std::optional<ReplyFrame> ServiceHost::handle_frame(std::uint64_t id,
                                                    const std::string& payload) {
  try {
    Reader r(payload);
    const wire::FrameHeader header = wire::read_frame_header(r);
    // The data plane is never ring-routed (chunks live where the content
    // lives), so its fast paths apply in ring mode too.
    if (header.endpoint == wire::Endpoint::kDrGetChunk) return chunk_reply(header, r);
    if (header.endpoint == wire::Endpoint::kDrPutChunk) return put_chunk_reply(header, r);
    const std::string body = dispatch(header.endpoint, r);
    if (!r.exhausted()) {
      logger().debug("connection %llu: trailing garbage behind request, dropping",
                     static_cast<unsigned long long>(id));
      return std::nullopt;
    }
    ReplyFrame reply;
    Writer w;
    wire::write_frame_header(w, header);
    w.append_raw(body);
    reply.bytes = w.take();
    return reply;
  } catch (const CodecError& error) {
    logger().debug("connection %llu: malformed frame (%s), dropping",
                   static_cast<unsigned long long>(id), error.what());
    return std::nullopt;
  } catch (const std::exception& error) {
    logger().warn("connection %llu: dispatch failed (%s), dropping",
                  static_cast<unsigned long long>(id), error.what());
    return std::nullopt;
  }
}

std::optional<ReplyFrame> ServiceHost::chunk_reply(const wire::FrameHeader& header,
                                                   Reader& r) {
  // Zero-copy fast path: answer the content as an fd slice the
  // readiness loop ships with sendfile. The reply body is byte-identical to
  // what write_expected(w, Expected<string>, str) would produce — the
  // client's read_expected + r.str() cannot tell the difference.
  const util::Auid uid = wire::read_auid(r);
  const std::int64_t offset = r.i64();
  const std::int64_t max_bytes = r.i64();
  if (!r.exhausted()) return std::nullopt;

  api::Expected<ChunkRef> chunk = [&]() -> api::Expected<ChunkRef> {
    const util::LockGuard lock(container_mutex_);
    return api::ops::dr_get_chunk_ref(container_, uid, offset, max_bytes);
  }();

  ReplyFrame reply;
  Writer w;
  wire::write_frame_header(w, header);
  if (!chunk.ok()) {
    wire::write_status(w, api::Status(chunk.error()));
    reply.bytes = w.take();
    return reply;
  }
  const std::int64_t size = chunk->size();
  w.boolean(true);  // Expected<string> success ...
  w.u32(static_cast<std::uint32_t>(size));  // ... and the str() length prefix
  if (chunk->file_backed()) {
    reply.file = std::move(chunk->file);
    reply.file_offset = chunk->offset;
    reply.file_length = chunk->length;
  } else {
    w.append_raw(chunk->bytes);
  }
  reply.bytes = w.take();
  data_shaper_.consume(size);
  return reply;
}

std::optional<ReplyFrame> ServiceHost::put_chunk_reply(const wire::FrameHeader& header,
                                                       Reader& r) {
  // The chunk is read in place: `bytes` views the request frame, which the
  // worker keeps alive through the reply's continuation. The reply body is
  // what serve<dr_put_chunk> would encode.
  const util::Auid uid = wire::read_auid(r);
  const std::int64_t offset = r.i64();
  const std::string_view bytes = r.str_view();
  if (!r.exhausted()) return std::nullopt;

  services::DataRepository& dr = container_.dr();
  services::StageSlot slot;
  api::Status status = [&] {
    const util::LockGuard lock(container_mutex_);
    return api::ops::chunk_status(
        container_, uid, offset,
        dr.stage_reserve(uid, offset, static_cast<std::int64_t>(bytes.size()), slot));
  }();
  if (status.ok()) {
    dr.stage_write(slot, bytes);
    const util::LockGuard lock(container_mutex_);
    status = api::ops::chunk_status(container_, uid, offset, dr.stage_advance(slot));
  }

  ReplyFrame reply;
  Writer w;
  wire::write_frame_header(w, header);
  wire::write_status(w, status);
  reply.bytes = w.take();
  // kOk: the bytes are in the .part file and the row has advanced. The MD5
  // follows the reply, so it overlaps the client's next chunk; commit waits
  // for it.
  if (status.ok()) reply.then = [&dr, slot, bytes] { dr.stage_hash(slot, bytes); };
  return reply;
}

std::string ServiceHost::dispatch(Endpoint endpoint, Reader& r) {
  // Ping and ring frames first — handle_join reaches back into the store
  // through the router's hooks, so they must not run under the container lock.
  if (auto reply = ring_dispatch(endpoint, r)) return std::move(*reply);
  // Then hash routing for the keyed catalog plane.
  if (ring_active_.load(std::memory_order_acquire)) {
    if (auto reply = router_->route(endpoint, r)) return std::move(*reply);
  }
  return local_dispatch(endpoint, r);
}

std::optional<std::string> ServiceHost::ring_dispatch(Endpoint endpoint, Reader& r) {
  if (std::find(std::begin(kHostEndpoints), std::end(kHostEndpoints), endpoint) ==
      std::end(kHostEndpoints)) {
    return std::nullopt;
  }
  Writer w;
  if (endpoint == Endpoint::kPing) return w.take();  // empty reply body: liveness only
  if (!ring_active_.load(std::memory_order_acquire)) {
    // Not a ring member. The error-status encoding is a valid prefix of
    // every reply shape.
    r.skip(r.remaining());
    wire::write_status(w, api::Error{api::Errc::kUnavailable, "ring", "ring mode disabled"});
    return w.take();
  }
  switch (endpoint) {
    case Endpoint::kRingLookup:
      wire::write_expected(w, api::Expected<wire::RingLookupReply>(ring_->handle_lookup(r.u64())),
                           wire::write_ring_lookup_reply);
      break;
    case Endpoint::kRingJoin:
      wire::write_expected(w, ring_->handle_join(wire::read_ring_node(r)),
                           wire::write_ring_join_reply);
      break;
    case Endpoint::kRingNotify:
      ring_->handle_notify(wire::read_ring_node(r));
      wire::write_status(w, api::ok_status());
      break;
    case Endpoint::kRingStabilize:
      wire::write_expected(w,
                           api::Expected<wire::RingStabilizeReply>(ring_->handle_stabilize()),
                           wire::write_ring_stabilize_reply);
      break;
    case Endpoint::kRingStore: {
      const wire::RingStoreRequest request = wire::read_ring_store_request(r);
      wire::write_status_batch(w, router_->apply_ops(request.ops, request.replicate));
      break;
    }
    case Endpoint::kRingLeave:
      ring_->handle_leave(wire::read_ring_leave_request(r));
      wire::write_status(w, api::ok_status());
      break;
    case Endpoint::kRingInfo: {
      wire::RingStatusInfo info = ring_->status();
      router_->fill_counts(info);
      wire::write_expected(w, api::Expected<wire::RingStatusInfo>(std::move(info)),
                           wire::write_ring_status_info);
      break;
    }
    case Endpoint::kRingSearch:
      // A peer's dc_search fan-out: answer from the local shard only —
      // kDcSearch through dispatch() would fan out all over again.
      return local_dispatch(Endpoint::kDcSearch, r);
    default:
      break;
  }
  return w.take();
}

std::string ServiceHost::local_dispatch(Endpoint endpoint, Reader& r) {
  const util::LockGuard lock(container_mutex_);
  return dispatch_unlocked(endpoint, r);
}

std::string ServiceHost::dispatch_unlocked(Endpoint endpoint, Reader& r) {
  const Route route = kRoutes.at(static_cast<std::size_t>(endpoint));
  if (route == nullptr) {
    throw CodecError(std::string(wire::endpoint_name(endpoint)) + " is not a bus endpoint");
  }
  return route(container_, ddc_, r);
}

}  // namespace bitdew::rpc
