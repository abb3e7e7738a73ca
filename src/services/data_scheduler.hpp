// Data Scheduler (DS): implements Algorithm 1 of the paper verbatim.
//
// Reservoir hosts periodically synchronize their local cache Δk against the
// scheduler's data set Θ. The reply Ψk tells the host what to keep
// (Δk ∩ Ψk), what to download (Ψk \ Δk) and what to delete (Δk \ Ψk):
//
//   Step 1 keeps cached data that is still in Θ, whose absolute lifetime
//          has not expired and whose relative lifetime reference is still
//          in Θ; fault-tolerant data refreshes its owner set Ω.
//   Step 2 adds missing data, first by affinity (placement dependency on a
//          datum already cached — stronger than replica), then by replica
//          count (|Ω(Dj)| < replica, or replica == -1 meaning every host),
//          stopping when |Ψk \ Δk| reaches MaxDataSchedule.
//
// Host failures are detected by timeout on the periodic synchronizations
// (3x the heartbeat period by default, matching the paper's Fig. 4): the
// owner set of fault-tolerant data drops the dead host, so the replica rule
// re-schedules the data elsewhere; non-fault-tolerant data keeps the dead
// owner, so the replica is simply unavailable while the host is down —
// exactly the semantics of the `fault tolerance` attribute.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/attributes.hpp"
#include "core/data.hpp"
#include "core/locator.hpp"
#include "util/clock.hpp"

namespace bitdew::services {

/// Reservoir hosts are identified by name (transport-agnostic).
using HostName = std::string;

/// Protocol name of the locators minted for worker chunk servers (the peer
/// data plane). Matches transfer::kPeerProtocol; duplicated here because
/// the service tier does not depend on the transfer engines.
inline constexpr const char* kPeerLocatorProtocol = "p2p";

struct SchedulerConfig {
  int max_data_schedule = 8;        ///< Algorithm 1's MaxDataSchedule
  double heartbeat_period_s = 1.0;  ///< expected sync period
  double failure_timeout_factor = 3.0;  ///< timeout = factor * heartbeat
  /// Out-of-band protocols schedule() accepts in `attributes.protocol`; an
  /// unknown name is a typed rejection at schedule time, not a silent
  /// fallback at download time. Empty = accept anything (simulation
  /// experiments plug arbitrary protocols into the registry).
  std::set<std::string> known_protocols = {"ftp", "http", "bittorrent",
                                           "localfile", "tcp", "p2p"};
  /// Peer locators attached to one download order (wire-size bound).
  int max_peer_sources = 8;
  /// Collective-distribution gate for p2p data: at most
  /// swarm_factor * |owners| assignments may be in flight at once (minimum
  /// one — the seed pulls from the repository). The swarm doubles each
  /// generation instead of stampeding the repository; <= 0 disables.
  int swarm_factor = 2;
  /// Host-table garbage collection: a host dead for more than this many
  /// failure sweeps is forgotten entirely (ds_hosts stops listing it).
  /// Owner sets in Θ are untouched — non-fault-tolerant data keeps its dead
  /// owner, per the paper. 0 (the default) never forgets, matching the
  /// pre-GC behavior simulations were calibrated against.
  int host_gc_sweeps = 0;
};

struct ScheduledData {
  core::Data data;
  core::DataAttributes attributes;
};

/// One reservoir synchronization request (sync protocol v2, incremental).
///
/// A full sync carries the host's complete Δk in `added` (removed is
/// ignored) and is always accepted; the reply mints a fresh epoch. A delta
/// sync (`full == false`) carries only the cache changes since the last
/// *acked* beat and is accepted only when `epoch` matches the scheduler's
/// per-host epoch and the host is alive — otherwise the reply sets `resync`
/// and the host must immediately repeat the sync in full. Deltas are
/// idempotent (sets, not counters), so a host whose reply was lost simply
/// re-sends the same delta on the next beat.
struct SyncRequest {
  HostName host;
  std::uint64_t epoch = 0;  ///< scheduler-minted sync epoch; 0 = none yet
  bool full = true;         ///< `added` is the complete Δk, not a delta
  std::vector<util::Auid> added;    ///< full: Δk; delta: gained since ack
  std::vector<util::Auid> removed;  ///< delta: dropped since ack
  /// Downloads still running (keeps their provisional assignment alive).
  std::vector<util::Auid> in_flight;
  /// Chunk-server endpoint ("host:port", empty = not serving).
  std::string endpoint;

  friend bool operator==(const SyncRequest&, const SyncRequest&) = default;
};

/// Reply to one synchronization (the three Ψk partitions).
struct SyncReply {
  /// Sync epoch the host must echo in its next delta. A full sync mints a
  /// fresh value; a delta reply repeats the current one.
  std::uint64_t epoch = 0;
  /// The request's delta was not accepted (epoch mismatch, scheduler
  /// restart, or the host was presumed dead): every partition is empty and
  /// the host must repeat the sync in full.
  bool resync = false;
  /// Confirmed cached data: the full Δk ∩ Ψk on a full sync, only the
  /// newly confirmed (added ∩ Θ) uids on a delta sync.
  std::vector<util::Auid> keep;
  std::vector<ScheduledData> download;     ///< Ψk \ Δk, with attributes
  std::vector<util::Auid> drop;            ///< Δk \ Ψk — safe to delete
  /// Peer locators for each download item (index-aligned with `download`):
  /// live hosts that confirmed holding the datum and announced a chunk
  /// server endpoint. Dead hosts and the requesting host are filtered; an
  /// empty list means "repository only" (e.g. the first copy of a swarm).
  std::vector<std::vector<core::Locator>> sources;
};

/// One row of the scheduler's host table (the failure detector's view of a
/// reservoir node), served over the bus as the ds_hosts endpoint so CLIs and
/// CI can observe liveness instead of inferring it.
struct HostInfo {
  HostName name;
  double last_sync_age_s = 0;  ///< seconds since the last ds_sync
  bool alive = true;
  std::uint32_t cached = 0;    ///< size of the mirrored Δk
  /// Chunk-server endpoint ("host:port") the node announced via ds_sync;
  /// empty when the node does not serve peers.
  std::string endpoint;
  // Sync protocol v2 accounting: how much the incremental path is saving.
  std::uint64_t full_syncs = 0;        ///< full Δk reports processed
  std::uint64_t delta_syncs = 0;       ///< incremental beats processed
  std::uint32_t last_delta_items = 0;  ///< |added| + |removed| of the last delta

  friend bool operator==(const HostInfo&, const HostInfo&) = default;
};

struct SchedulerStats {
  std::uint64_t syncs = 0;
  std::uint64_t full_syncs = 0;    ///< syncs carrying the complete Δk
  std::uint64_t delta_syncs = 0;   ///< incremental (v2) beats accepted
  std::uint64_t resyncs = 0;       ///< deltas refused (epoch mismatch/revival)
  std::uint64_t orders = 0;        ///< download orders issued
  std::uint64_t drops = 0;         ///< deletion orders issued
  std::uint64_t failures = 0;      ///< hosts declared dead
  std::uint64_t reaped = 0;        ///< data expired out of Θ
  std::uint64_t hosts_gcd = 0;     ///< dead hosts forgotten by the table GC
};

class DataScheduler {
 public:
  DataScheduler(const util::Clock& clock, SchedulerConfig config = {});

  // --- data set Θ -----------------------------------------------------------
  /// Adds or updates a datum with its attributes (the ActiveData schedule
  /// call lands here). Returns false (rejection) when the request is
  /// invalid: nil uid, replica below the broadcast marker, an `oob`
  /// protocol outside config.known_protocols, or a self-referential
  /// affinity / relative lifetime — Θ is untouched then. A duration
  /// lifetime (the DSL's abstime) is anchored HERE, on this scheduler's
  /// clock: the stored entry becomes kAbsolute at now + duration.
  bool schedule(const core::Data& data, const core::DataAttributes& attributes);

  /// Bulk schedule: per-item accept/reject outcomes aligned with the input.
  /// The native back-end of the bus's ds_schedule_batch endpoint.
  std::vector<bool> schedule_batch(const std::vector<ScheduledData>& items);

  /// Pins a datum to a host: the host is recorded as a permanent owner, the
  /// datum is pushed to that host at its next sync if not already cached
  /// (even when replica/affinity would not place it), and it will never be
  /// dropped from that host's cache. Returns false when the datum is not
  /// scheduled.
  bool pin(const util::Auid& uid, const HostName& host);

  /// Removes a datum from Θ; hosts delete it at their next sync, and any
  /// data with a relative lifetime on it expires too (paper's Collector
  /// pattern).
  bool unschedule(const util::Auid& uid);

  // --- reservoir protocol -----------------------------------------------------
  /// One reservoir synchronization (Algorithm 1, sync protocol v2). The
  /// request carries either the complete Δk (full) or the delta since the
  /// last acked beat; `in_flight` lists downloads the host is still
  /// running, which keeps their provisional assignment alive. An assignment
  /// that is neither confirmed (appearing in Δk) nor refreshed (in_flight)
  /// expires after the failure timeout and the datum is re-scheduled — a
  /// host that failed a download cannot permanently absorb a replica.
  /// A delta beat costs O(|added| + |removed| + |in_flight| + |demand|)
  /// work, never O(|Θ|) or O(|Δk|): the scheduler mirrors each host's
  /// reported cache and indexes Θ by demand, name and expiry.
  SyncReply sync(const SyncRequest& request);

  /// Legacy full-report form (sync protocol v1): every beat carries the
  /// whole Δk. Equivalent to a SyncRequest with full = true.
  SyncReply sync(const HostName& host, const std::vector<util::Auid>& cache,
                 const std::vector<util::Auid>& in_flight = {},
                 const std::string& endpoint = {});

  /// Scans for hosts whose last sync exceeded the failure timeout and
  /// updates owner sets. Returns the hosts newly declared dead.
  std::vector<HostName> detect_failures();

  // --- introspection ------------------------------------------------------------
  std::set<HostName> owners(const util::Auid& uid) const;
  std::size_t scheduled_count() const { return theta_.size(); }
  std::optional<ScheduledData> scheduled(const util::Auid& uid) const;
  bool host_alive(const HostName& host) const;
  /// The failure detector's host table, sorted by name.
  std::vector<HostInfo> host_table() const;
  const SchedulerStats& stats() const { return stats_; }
  const SchedulerConfig& config() const { return config_; }

 private:
  struct HostState {
    double last_sync = 0;
    bool alive = true;
    std::uint64_t epoch = 0;      // current sync epoch (0 = never full-synced)
    std::set<util::Auid> cache;   // mirror of the host's reported Δk
    std::size_t reported = 0;     // mirror size after the last sync (host_table)
    std::string endpoint;         // announced chunk-server address ("" = none)
    int dead_sweeps = 0;          // failure sweeps survived while dead (GC)
    std::set<util::Auid> owned;        // inverse Ω index: uids this host owns
    std::set<util::Auid> pending_uids; // uids provisionally assigned here
    /// Deletion orders not yet acked by a `removed` delta; re-emitted every
    /// beat until the host confirms (a lost reply cannot strand a drop).
    std::set<util::Auid> drop_queue;
    std::uint64_t full_syncs = 0;
    std::uint64_t delta_syncs = 0;
    std::size_t last_delta_items = 0;
  };

  struct Entry {
    core::Data data;
    core::DataAttributes attributes;
    std::set<HostName> owners;   // Ω(D): hosts that confirmed holding D
    std::set<HostName> holders;  // hosts whose mirrored Δk contains D
    std::map<HostName, double> pending;  // assigned, unconfirmed -> deadline
    std::set<HostName> pinned;

    /// Owners plus still-credible assignments (the replica-rule count).
    std::size_t effective_owners(double now) const;
  };

  /// Drops data whose absolute lifetime passed or whose relative reference
  /// left Θ. O(expired), driven by the expiry min-heap and the relative-
  /// lifetime dependency index, not a Θ scan.
  void reap(double now);

  bool lifetime_valid(const Entry& entry, double now) const;

  /// Erases one datum from Θ with full index upkeep: queues drops to every
  /// mirrored holder and cascades into its relative-lifetime dependents.
  void erase_entry(const util::Auid& uid, bool count_reaped);

  /// Recomputes the datum's membership in the step-2 demand index: a datum
  /// is in demand when some host not holding it could still be assigned it
  /// (broadcast, unmet replica count, affinity rule, or a pin).
  void update_demand(const util::Auid& uid, const Entry& entry);

  /// Registers `host` as a confirmed owner (Ω insert + inverse index).
  void grant_owner(const util::Auid& uid, Entry& entry, const HostName& host,
                   HostState& state);

  /// Marks one reported uid as held: grants ownership when the datum is
  /// scheduled and valid (confirming any pending assignment), queues a drop
  /// otherwise. Appends confirmed uids to `reply.keep`.
  void admit_reported(const util::Auid& uid, HostState& state, const HostName& host,
                      double now, SyncReply& reply);

  /// The per-beat Algorithm 1 step 2 over the demand index, and the re-
  /// emission / cancellation of queued deletion orders.
  void assign_and_drop(const HostName& host, HostState& state, double now,
                       double pending_ttl, SyncReply& reply);

  /// Live peer locators for a datum, excluding `requester` (at most
  /// config_.max_peer_sources, deterministic order).
  std::vector<core::Locator> peer_sources(const util::Auid& uid, const Entry& entry,
                                          const HostName& requester) const;

  const util::Clock& clock_;
  SchedulerConfig config_;
  std::map<util::Auid, Entry> theta_;  // Θ, deterministic iteration order
  std::unordered_map<HostName, HostState> hosts_;
  SchedulerStats stats_;

  std::uint64_t epoch_counter_ = 0;  ///< mints per-host sync epochs
  /// Step-2 candidates: uids some host might still be assigned. Kept sorted
  /// so assignment order (and thus MaxDataSchedule truncation) matches the
  /// v1 full-Θ scan exactly.
  std::set<util::Auid> demand_;
  /// Θ by data name, for the affinity_name (class affinity) rule.
  std::map<std::string, std::set<util::Auid>> name_index_;
  /// Absolute-lifetime expiries, lazily deleted (re-schedules push a new
  /// node; stale nodes are skipped on pop).
  std::priority_queue<std::pair<double, util::Auid>,
                      std::vector<std::pair<double, util::Auid>>,
                      std::greater<>>
      expiry_heap_;
  /// reference uid -> datums whose relative lifetime hangs off it.
  std::map<util::Auid, std::set<util::Auid>> lifetime_deps_;
  /// Relative-lifetime datums scheduled before their reference: resolved
  /// (or reaped) on the next reap pass.
  std::set<util::Auid> dangling_;
};

}  // namespace bitdew::services
