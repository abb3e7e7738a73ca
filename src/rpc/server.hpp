// ServiceHost: the networked deployment of a ServiceContainer (paper
// Fig. 1's stable service node, for real this time). Since PR 9 it is built
// on the epoll readiness loop in rpc/reactor.hpp instead of a
// thread-per-connection pool: one loop thread owns every accepted socket
// (nonblocking, per-connection read/write buffers), decoded frames execute
// on a small worker pool, and replies complete OUT OF ORDER per connection
// — clients pipeline any number of requests on one socket and match
// replies by the frame header's request id (ClientChannel's demux). A
// malformed or truncated frame still produces a typed decode failure and
// drops only that connection.
//
// Dispatch is a route table generated from the bus endpoint list in
// api/service_ops.hpp — the same handlers DirectServiceBus and
// SimServiceBus run, so every error code is identical over the network.
// Ping and the ring protocol are answered by the host itself
// (ring_dispatch). The data plane takes two fast paths. kDrGetChunk is
// zero-copy: content is answered as a frame header + length prefix plus
// an fd slice the loop ships with sendfile, never materializing the chunk
// in a std::string. kDrPutChunk holds the container lock only to reserve
// the chunk's offset and to advance the stage row: the bytes go from the
// request frame to the upload's .part file under the upload's own lock,
// and their MD5 runs after the reply.
// bitdewd wraps one of these in a daemon; RemoteServiceBus is the matching
// client.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "api/expected.hpp"
#include "dht/live_ring.hpp"
#include "dht/local_dht.hpp"
#include "rpc/reactor.hpp"
#include "rpc/transport.hpp"
#include "services/container.hpp"
#include "services/ring_router.hpp"
#include "util/shaper.hpp"
#include "util/thread_annotations.hpp"

namespace bitdew::rpc {

struct ServiceHostConfig {
  std::uint16_t port = 0;       ///< 0 = ephemeral (read back via port())
  bool loopback_only = false;   ///< bind 127.0.0.1 instead of INADDR_ANY
  double idle_timeout_s = -1;   ///< per-connection read-idle cutoff (<0 = none)
  double write_timeout_s = 30;  ///< reply send budget: a client that stops
                                ///< reading cannot park replies forever
  /// Period of the Data Scheduler failure-detector sweep (<= 0 disables).
  /// On the real path nobody pumps a simulator, so the host itself drives
  /// detect_failures() off the wall clock — dead workers are declared on
  /// time even when no surviving client happens to call in.
  double failure_sweep_period_s = 1.0;
  /// Data-plane egress cap in bytes/s, shared across every connection's
  /// dr_get_chunk replies (0 = unlimited). Bounds what the repository
  /// ships, like a deployment's uplink; control traffic is never shaped.
  double data_plane_upload_Bps = 0;
  /// Request-executor pool size (0 = auto). Handlers may block (container
  /// lock, shaping) without stalling the readiness loop.
  int worker_threads = 0;
  /// Pipelining cap: a connection with this many requests executing has its
  /// read interest paused until replies drain (backpressure).
  int max_in_flight_per_connection = 32;
};

/// Live-ring membership knobs (start_ring). The host's bound port completes
/// the advertised endpoint, which is why the ring starts as a second step
/// after start() instead of through ServiceHostConfig.
struct RingOptions {
  std::uint64_t ring_id = 0;  ///< 0 = derive from the advertised endpoint
  std::string advertise_host = "127.0.0.1";
  std::string join_endpoint;  ///< "host:port" of any member; empty = bootstrap
  int replication_f = 2;      ///< f: owner + (f-1) successors hold each key
  int arity = 4;              ///< k: DKS search arity
  double stabilize_period_s = 2.0;
  double call_timeout_s = 2.0;
};

class ServiceHost {
 public:
  ServiceHost(services::ServiceContainer& container, dht::LocalDht& ddc,
              ServiceHostConfig config = {});
  ~ServiceHost();
  ServiceHost(const ServiceHost&) = delete;
  ServiceHost& operator=(const ServiceHost&) = delete;

  /// Binds, listens and spawns the readiness loop + worker pool.
  /// Errc::kTransport when the port cannot be bound. Restartable after
  /// stop().
  api::Status start();

  /// Deterministic shutdown: parks the sweeper, then the epoll loop (which
  /// closes every live connection and the listener before exiting), then
  /// drains and joins the worker pool. Idempotent; also called by the
  /// destructor.
  void stop();

  bool running() const { return running_.load(); }
  std::uint16_t port() const { return server_.port(); }

  /// Joins (or bootstraps) the live DHT ring, sharding the dc_*/ddc_*
  /// metadata plane across the membership. Must be called after start()
  /// (the advertised endpoint needs the bound port). Once active, keyed
  /// catalog requests are served, replicated or redirected by hash
  /// ownership, and the sweep thread drives ring stabilization.
  api::Status start_ring(const RingOptions& options);

  /// Planned departure: hands every owned key to the successor and
  /// announces the leave. The host keeps serving (and keeps answering ring
  /// frames) until stop(); call this before stop() for a graceful exit.
  /// A crash (stop() without ring_leave()) is survived by f-replication.
  void ring_leave();

  bool ring_active() const { return ring_active_.load(std::memory_order_acquire); }
  /// nullptr until start_ring() succeeds.
  dht::LiveRing* ring() { return ring_active() ? ring_.get() : nullptr; }

  std::uint64_t requests_served() const { return server_.requests_served(); }
  std::uint64_t connections_accepted() const { return server_.connections_accepted(); }
  /// Connections dropped because a frame failed to decode.
  std::uint64_t frames_rejected() const { return server_.frames_rejected(); }
  /// Currently open connections (idle ones included).
  std::size_t connections_open() const { return server_.connections_open(); }

 private:
  void sweep_loop();
  /// The EpollServer handler: decodes one frame, dispatches, encodes the
  /// reply. nullopt (malformed frame, trailing garbage) drops the
  /// connection. Runs on a worker thread.
  std::optional<ReplyFrame> handle_frame(std::uint64_t connection_id,
                                         const std::string& payload);
  /// kDrGetChunk fast path: content answers as an fd slice.
  std::optional<ReplyFrame> chunk_reply(const wire::FrameHeader& header, Reader& body);
  /// kDrPutChunk fast path: stages the chunk with the container lock held
  /// only around its row steps, and hashes it in the reply's continuation.
  std::optional<ReplyFrame> put_chunk_reply(const wire::FrameHeader& header, Reader& body)
      EXCLUDES(container_mutex_);
  /// Decodes `body`, runs the operation, and returns the encoded reply
  /// body. Malformed requests throw CodecError (the caller drops the
  /// connection). Layered: ring frames and ring-routed catalog ops peel
  /// off first (they take the container lock themselves, through the
  /// router's hooks); everything else falls through to local_dispatch.
  std::string dispatch(wire::Endpoint endpoint, Reader& body);
  /// Ping and the ring server-side frames (kRing*), answered without the
  /// container lock. nullopt = a bus endpoint.
  std::optional<std::string> ring_dispatch(wire::Endpoint endpoint, Reader& body);
  /// Takes the container lock and runs the plain single-node operation.
  std::string local_dispatch(wire::Endpoint endpoint, Reader& body)
      EXCLUDES(container_mutex_);
  /// Runs a bus endpoint's handler through the route table.
  std::string dispatch_unlocked(wire::Endpoint endpoint, Reader& body)
      REQUIRES(container_mutex_);

  services::ServiceContainer& container_;
  dht::LocalDht& ddc_;
  ServiceHostConfig config_;

  // Ring state. Constructed by start_ring(), then published through the
  // release-store on ring_active_; dispatch/sweeper only touch ring_ and
  // router_ after an acquire-load sees true. Never destroyed while the
  // host runs (a failed start_ring only clears the flag).
  std::unique_ptr<services::RingRouter> router_;
  std::unique_ptr<dht::LiveRing> ring_;
  std::atomic<bool> ring_active_{false};

  std::atomic<bool> running_{false};
  std::thread sweeper_;
  util::Mutex sweep_mutex_;
  util::CondVar sweep_cv_;

  util::Mutex container_mutex_;  ///< serializes container/ddc access

  EpollServer server_;
  util::RateShaper data_shaper_{0};
};

}  // namespace bitdew::rpc
