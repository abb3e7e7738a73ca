// Live DKS/Chord-style ring over the real RPC transport (the networked
// counterpart of the simulated dht/ring.hpp — same DKS(N, k, f) knobs, same
// interval math, real frames instead of simulator events).
//
// Each bitdewd member runs one LiveRing next to its ServiceHost. The ring
// keeps the classic Chord routing state under one mutex — predecessor,
// successor list of length f, k-ary fingers — and repairs it from the
// host's failure-sweep thread (tick(): predecessor ping, stabilize+notify,
// one finger fix per round). Lookups are iterative: handle_lookup answers
// one routing step from local tables only (it never calls out, so serving
// a lookup can never deadlock two members against each other), and
// resolve_owner chases steps node to node with a hop budget.
//
// The ring knows nothing about the catalog. Key enumeration and handoff
// ingestion are delegated to callbacks (services::RingRouter binds them),
// keeping the locking story one-directional: the router may call into the
// ring while holding the container lock is NEVER required here — the ring
// invokes the callbacks only while holding none of its own locks.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/expected.hpp"
#include "dht/ring_math.hpp"
#include "rpc/transport.hpp"
#include "rpc/wire.hpp"
#include "util/thread_annotations.hpp"

namespace bitdew::dht {

struct LiveRingConfig {
  std::uint64_t ring_id = 0;   ///< 0 = derive from the advertised endpoint
  std::string endpoint;        ///< self "host:port" (the ServiceHost address)
  std::string join_endpoint;   ///< member to join through; empty = bootstrap
  int arity = 4;               ///< k: search arity (finger fan-out)
  int replication = 2;         ///< f: owner + (f-1) successors hold a key
  double stabilize_period_s = 2.0;
  double call_timeout_s = 2.0;  ///< per ring RPC (connect and reply budget)
  int max_hops = 32;            ///< iterative lookup budget
};

class LiveRing {
 public:
  /// Re-encodes every locally held catalog entry whose key hash lies in
  /// (from_excl, to_incl] as replayable ops. (from, from] means everything.
  using OpsSource = std::function<std::vector<rpc::wire::RingOp>(std::uint64_t from_excl,
                                                                 std::uint64_t to_incl)>;
  /// Applies handed-off ops to the local store (no re-replication).
  using OpsSink = std::function<void(const std::vector<rpc::wire::RingOp>&)>;

  LiveRing(LiveRingConfig config, OpsSource ops_in_range, OpsSink apply_handoff);
  LiveRing(const LiveRing&) = delete;
  LiveRing& operator=(const LiveRing&) = delete;

  /// Bootstraps a fresh ring (empty join_endpoint) or joins through the
  /// configured member: iterative lookup of our own id, then kRingJoin to
  /// the admitting successor, ingesting the key handoff it returns.
  api::Status start();

  /// Planned departure: pushes every locally held entry to the first
  /// reachable successor (replicate=true, so it re-fans out as the new
  /// owner) and announces the leave so the successor adopts our
  /// predecessor. Safe to call more than once.
  void leave();

  const rpc::wire::RingNode& self() const { return self_; }
  const LiveRingConfig& config() const { return config_; }

  /// Strict ownership: true only when local tables prove `hash` is ours
  /// (standalone, or a live predecessor with hash in (pred, self]). When
  /// unsure the caller must resolve_owner() — claiming keys on a dead
  /// predecessor's say-so would swallow other members' ranges.
  bool owns(std::uint64_t hash) const;

  /// Iterative lookup from self; marks unreachable members suspect and
  /// restarts locally, bounded by max_hops total steps.
  api::Expected<rpc::wire::RingNode> resolve_owner(std::uint64_t hash);

  std::vector<rpc::wire::RingNode> successors() const;

  /// Walks successor pointers clockwise collecting the membership (bounded
  /// by `cap` and by id cycles). Used by dc_search fan-out and kRingInfo
  /// consumers; tolerates partial walks when a member is unreachable.
  std::vector<rpc::wire::RingNode> collect_members(std::size_t cap = 128);

  /// One framed call to a member, through a cached per-endpoint channel.
  /// Failure marks the member suspect; success clears the suspicion.
  api::Expected<std::string> call(const std::string& endpoint, rpc::wire::Endpoint ep,
                                  const std::function<void(rpc::Writer&)>& encode);

  /// Ships ops to a member; returns per-op statuses (index-aligned).
  std::vector<api::Status> store_at(const rpc::wire::RingNode& target,
                                    const rpc::wire::RingStoreRequest& request);

  // --- server-side handlers (called from ServiceHost dispatch) -----------
  rpc::wire::RingLookupReply handle_lookup(std::uint64_t hash);
  api::Expected<rpc::wire::RingJoinReply> handle_join(const rpc::wire::RingNode& joiner);
  void handle_notify(const rpc::wire::RingNode& candidate);
  rpc::wire::RingStabilizeReply handle_stabilize();
  void handle_leave(const rpc::wire::RingLeaveRequest& request);

  /// Membership + finger health snapshot (key counts are filled in by the
  /// router, which owns the key index).
  rpc::wire::RingStatusInfo status() const;

  /// One maintenance round: revive aged suspects, ping the predecessor,
  /// stabilize with the first live successor, fix one finger. Runs on the
  /// ServiceHost sweep thread; holds no lock across any RPC.
  void tick();

 private:
  struct Link {
    util::Mutex mutex;  ///< ClientChannel is strictly one call at a time
    rpc::ClientChannel channel GUARDED_BY(mutex);
    Link(std::string host, std::uint16_t port, double timeout_s)
        : channel(std::move(host), port, timeout_s, timeout_s) {}
  };

  std::shared_ptr<Link> link_for(const std::string& endpoint) EXCLUDES(links_mutex_);
  bool suspect_locked(const std::string& endpoint) const REQUIRES(mutex_);
  rpc::wire::RingNode first_live_successor_locked() const REQUIRES(mutex_);
  rpc::wire::RingNode closest_preceding_locked(std::uint64_t hash) const REQUIRES(mutex_);
  void adopt_pred_locked(const rpc::wire::RingNode& candidate) REQUIRES(mutex_);

  LiveRingConfig config_;
  rpc::wire::RingNode self_;
  OpsSource ops_in_range_;
  OpsSink apply_handoff_;

  mutable util::Mutex mutex_;
  bool has_pred_ GUARDED_BY(mutex_) = false;
  rpc::wire::RingNode pred_ GUARDED_BY(mutex_);
  std::vector<rpc::wire::RingNode> successors_ GUARDED_BY(mutex_);
  std::vector<std::uint64_t> finger_targets_ GUARDED_BY(mutex_);
  /// Finger table; empty endpoint = unresolved.
  std::vector<rpc::wire::RingNode> fingers_ GUARDED_BY(mutex_);
  std::size_t next_finger_ GUARDED_BY(mutex_) = 0;
  bool left_ GUARDED_BY(mutex_) = false;
  /// Members that failed an RPC, with the time of suspicion; skipped by
  /// routing until revived (re-probed) after ~10 stabilization periods.
  std::unordered_map<std::string, std::chrono::steady_clock::time_point> suspects_
      GUARDED_BY(mutex_);

  util::Mutex links_mutex_ ACQUIRED_AFTER(mutex_);
  std::unordered_map<std::string, std::shared_ptr<Link>> links_ GUARDED_BY(links_mutex_);
};

}  // namespace bitdew::dht
