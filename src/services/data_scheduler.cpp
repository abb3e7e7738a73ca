#include "services/data_scheduler.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace bitdew::services {
namespace {

const util::Logger& logger() {
  static const util::Logger instance("ds");
  return instance;
}

}  // namespace

DataScheduler::DataScheduler(const util::Clock& clock, SchedulerConfig config)
    : clock_(clock), config_(config) {}

std::size_t DataScheduler::Entry::effective_owners(double now) const {
  std::size_t count = owners.size();
  for (const auto& [host, deadline] : pending) {
    if (deadline > now && !owners.contains(host)) ++count;
  }
  return count;
}

bool DataScheduler::schedule(const core::Data& data, const core::DataAttributes& attributes) {
  // An unknown out-of-band protocol is rejected HERE, typed, instead of a
  // worker silently substituting another engine at download time.
  const bool unknown_protocol = !config_.known_protocols.empty() &&
                                !config_.known_protocols.contains(attributes.protocol);
  if (data.uid.is_nil() || attributes.replica < core::kReplicaAll || unknown_protocol ||
      attributes.affinity == data.uid ||
      (attributes.lifetime.kind == core::Lifetime::Kind::kRelative &&
       attributes.lifetime.reference == data.uid)) {
    logger().debug("rejecting schedule of %s (%s)", data.name.c_str(),
                   unknown_protocol ? "unknown oob protocol" : "invalid attributes");
    return false;
  }
  auto& entry = theta_[data.uid];
  const bool existed = !entry.data.uid.is_nil();
  // Re-schedules may change the name or the lifetime shape: retire the old
  // index registrations before installing the new ones.
  if (existed && entry.data.name != data.name) {
    const auto ni = name_index_.find(entry.data.name);
    if (ni != name_index_.end()) {
      ni->second.erase(data.uid);
      if (ni->second.empty()) name_index_.erase(ni);
    }
  }
  if (existed && entry.attributes.lifetime.kind == core::Lifetime::Kind::kRelative) {
    const auto dep = lifetime_deps_.find(entry.attributes.lifetime.reference);
    if (dep != lifetime_deps_.end()) {
      dep->second.erase(data.uid);
      if (dep->second.empty()) lifetime_deps_.erase(dep);
    }
    dangling_.erase(data.uid);
  }
  entry.data = data;
  entry.attributes = attributes;
  if (entry.attributes.lifetime.kind == core::Lifetime::Kind::kDuration) {
    // The DSL's abstime is a duration; anchor it on THIS clock at receipt.
    // Client-side anchoring is meaningless on the live path, where the
    // caller's clock epoch has no relation to the daemon's.
    entry.attributes.lifetime =
        core::Lifetime::absolute(clock_.now() + entry.attributes.lifetime.expires_at);
  }
  name_index_[data.name].insert(data.uid);
  const core::Lifetime& lifetime = entry.attributes.lifetime;
  if (lifetime.kind == core::Lifetime::Kind::kAbsolute) {
    // Lazily deleted: a re-schedule pushes a fresh node and the stale one
    // is skipped on pop (reap re-checks the live attributes).
    expiry_heap_.push({lifetime.expires_at, data.uid});
  } else if (lifetime.kind == core::Lifetime::Kind::kRelative) {
    if (theta_.contains(lifetime.reference)) {
      lifetime_deps_[lifetime.reference].insert(data.uid);
    } else {
      // Reference not scheduled (yet): resolved — or reaped, matching the
      // v1 full-scan semantics — on the next reap pass.
      dangling_.insert(data.uid);
    }
  }
  update_demand(data.uid, entry);
  return true;
}

std::vector<bool> DataScheduler::schedule_batch(const std::vector<ScheduledData>& items) {
  std::vector<bool> out;
  out.reserve(items.size());
  for (const ScheduledData& item : items) out.push_back(schedule(item.data, item.attributes));
  return out;
}

bool DataScheduler::pin(const util::Auid& uid, const HostName& host) {
  const auto it = theta_.find(uid);
  if (it == theta_.end()) return false;
  it->second.pinned.insert(host);
  it->second.owners.insert(host);
  const auto hs = hosts_.find(host);
  if (hs != hosts_.end()) hs->second.owned.insert(uid);
  update_demand(uid, it->second);
  return true;
}

bool DataScheduler::unschedule(const util::Auid& uid) {
  const bool existed = theta_.contains(uid);
  erase_entry(uid, /*count_reaped=*/false);  // cascades relative lifetimes
  if (existed) reap(clock_.now());
  return existed;
}

bool DataScheduler::lifetime_valid(const Entry& entry, double now) const {
  const core::Lifetime& lifetime = entry.attributes.lifetime;
  switch (lifetime.kind) {
    case core::Lifetime::Kind::kForever: return true;
    case core::Lifetime::Kind::kAbsolute: return lifetime.expires_at > now;
    case core::Lifetime::Kind::kRelative: return theta_.contains(lifetime.reference);
    case core::Lifetime::Kind::kDuration: return true;  // anchored at schedule()
  }
  return true;
}

void DataScheduler::erase_entry(const util::Auid& uid, bool count_reaped) {
  const auto it = theta_.find(uid);
  if (it == theta_.end()) return;
  const Entry entry = std::move(it->second);
  theta_.erase(it);
  if (count_reaped) ++stats_.reaped;
  // Every host still mirroring the datum owes us a deletion: queue the drop
  // order, re-emitted each beat until the host acks it with a `removed`.
  for (const HostName& holder : entry.holders) {
    const auto hs = hosts_.find(holder);
    if (hs != hosts_.end()) hs->second.drop_queue.insert(uid);
  }
  for (const HostName& owner : entry.owners) {
    const auto hs = hosts_.find(owner);
    if (hs != hosts_.end()) hs->second.owned.erase(uid);
  }
  for (const auto& [host, deadline] : entry.pending) {
    const auto hs = hosts_.find(host);
    if (hs != hosts_.end()) hs->second.pending_uids.erase(uid);
  }
  const auto ni = name_index_.find(entry.data.name);
  if (ni != name_index_.end()) {
    ni->second.erase(uid);
    if (ni->second.empty()) name_index_.erase(ni);
  }
  demand_.erase(uid);
  dangling_.erase(uid);
  if (entry.attributes.lifetime.kind == core::Lifetime::Kind::kRelative) {
    const auto dep = lifetime_deps_.find(entry.attributes.lifetime.reference);
    if (dep != lifetime_deps_.end()) {
      dep->second.erase(uid);
      if (dep->second.empty()) lifetime_deps_.erase(dep);
    }
  }
  // Cascade: data whose relative lifetime references this datum dies with
  // it (the paper's Collector chain), however deep the chain goes.
  const auto deps = lifetime_deps_.find(uid);
  if (deps != lifetime_deps_.end()) {
    const std::set<util::Auid> dependents = std::move(deps->second);
    lifetime_deps_.erase(deps);
    for (const util::Auid& dependent : dependents) {
      logger().debug("reaping %s (relative lifetime on erased %s)", dependent.str().c_str(),
                     uid.str().c_str());
      erase_entry(dependent, /*count_reaped=*/true);
    }
  }
}

void DataScheduler::reap(double now) {
  while (!expiry_heap_.empty() && expiry_heap_.top().first <= now) {
    const util::Auid uid = expiry_heap_.top().second;
    expiry_heap_.pop();
    const auto it = theta_.find(uid);
    if (it == theta_.end()) continue;  // stale heap node
    const core::Lifetime& lifetime = it->second.attributes.lifetime;
    if (lifetime.kind == core::Lifetime::Kind::kAbsolute && lifetime.expires_at <= now) {
      logger().debug("reaping expired data %s", it->second.data.name.c_str());
      erase_entry(uid, /*count_reaped=*/true);
    }
  }
  if (dangling_.empty()) return;
  // Relative-lifetime data scheduled before its reference: adopt it into
  // the dependency index if the reference has shown up, reap it otherwise
  // (exactly what the v1 full scan did on the next sync).
  const std::set<util::Auid> unresolved = dangling_;
  for (const util::Auid& uid : unresolved) {
    const auto it = theta_.find(uid);
    if (it == theta_.end()) {
      dangling_.erase(uid);
      continue;
    }
    const core::Lifetime& lifetime = it->second.attributes.lifetime;
    if (lifetime.kind != core::Lifetime::Kind::kRelative) {
      dangling_.erase(uid);
    } else if (theta_.contains(lifetime.reference)) {
      lifetime_deps_[lifetime.reference].insert(uid);
      dangling_.erase(uid);
    } else {
      logger().debug("reaping %s (relative lifetime reference never scheduled)",
                     it->second.data.name.c_str());
      erase_entry(uid, /*count_reaped=*/true);
    }
  }
}

void DataScheduler::update_demand(const util::Auid& uid, const Entry& entry) {
  const core::DataAttributes& a = entry.attributes;
  const bool wanted =
      a.replica == core::kReplicaAll ||
      (a.replica > 0 && entry.owners.size() < static_cast<std::size_t>(a.replica)) ||
      !a.affinity.is_nil() || !a.affinity_name.empty() || !entry.pinned.empty();
  if (wanted) {
    demand_.insert(uid);
  } else {
    demand_.erase(uid);
  }
}

void DataScheduler::grant_owner(const util::Auid& uid, Entry& entry, const HostName& host,
                                HostState& state) {
  entry.owners.insert(host);
  state.owned.insert(uid);
  update_demand(uid, entry);
}

void DataScheduler::admit_reported(const util::Auid& uid, HostState& state,
                                   const HostName& host, double now, SyncReply& reply) {
  const auto it = theta_.find(uid);
  if (it == theta_.end() || !lifetime_valid(it->second, now)) {
    // D ∉ Θ (or expired, defensively — reap runs first): order deletion.
    state.drop_queue.insert(uid);
    return;
  }
  Entry& entry = it->second;
  entry.holders.insert(host);
  grant_owner(uid, entry, host, state);  // the host demonstrably holds it: update Ω
  entry.pending.erase(host);             // assignment confirmed
  state.pending_uids.erase(uid);
  state.drop_queue.erase(uid);
  reply.keep.push_back(uid);
}

SyncReply DataScheduler::sync(const HostName& host, const std::vector<util::Auid>& cache,
                              const std::vector<util::Auid>& in_flight,
                              const std::string& endpoint) {
  SyncRequest request;
  request.host = host;
  request.full = true;
  request.added = cache;
  request.in_flight = in_flight;
  request.endpoint = endpoint;
  return sync(request);
}

SyncReply DataScheduler::sync(const SyncRequest& request) {
  const double now = clock_.now();
  const double pending_ttl =
      config_.heartbeat_period_s * config_.failure_timeout_factor;
  ++stats_.syncs;
  reap(now);

  SyncReply reply;
  if (!request.full) {
    const auto hs = hosts_.find(request.host);
    HostState* existing = hs != hosts_.end() ? &hs->second : nullptr;
    if (existing == nullptr || !existing->alive || existing->epoch == 0 ||
        existing->epoch != request.epoch) {
      // Refuse the delta: unknown host (scheduler restarted and lost the
      // mirror), a host presumed dead (ownership was revoked and must be
      // re-granted from a full report — the PR 4 rejoin-with-cache
      // semantics), or a stale epoch. The host repeats the sync in full.
      ++stats_.resyncs;
      if (existing != nullptr) {
        existing->last_sync = now;
        existing->epoch = 0;
      }
      reply.resync = true;
      logger().debug("refusing delta sync from %s (epoch %llu): full resync required",
                     request.host.c_str(),
                     static_cast<unsigned long long>(request.epoch));
      return reply;
    }
  }

  const bool first_contact = !hosts_.contains(request.host);
  HostState& state = hosts_[request.host];
  if (first_contact) {
    // A host with no table row can still appear in owner sets: it was
    // pinned before ever syncing, or it was GC'd from the table and came
    // back (GC leaves Ω untouched, per the paper). One Θ scan on first
    // contact rebuilds the inverse index so reconciliation and failure
    // handling stay O(owned) on every later beat.
    for (const auto& [uid, entry] : theta_) {
      if (entry.owners.contains(request.host)) state.owned.insert(uid);
    }
  }
  if (now - state.last_sync > 2.5 && state.last_sync > 0) {
    logger().debug("[%.2f] sync from %s arrived %.2fs after the previous one", now,
                   request.host.c_str(), now - state.last_sync);
  }
  state.last_sync = now;
  state.alive = true;
  state.dead_sweeps = 0;  // a returning host restarts its GC countdown
  state.endpoint = request.endpoint;

  if (request.full) {
    // --- Step 1, full form: rebuild the mirror from the report ------------
    state.epoch = ++epoch_counter_;
    ++state.full_syncs;
    ++stats_.full_syncs;
    state.last_delta_items = 0;
    const std::set<util::Auid> mirror(request.added.begin(), request.added.end());
    for (const util::Auid& uid : state.cache) {
      if (mirror.contains(uid)) continue;
      const auto it = theta_.find(uid);
      if (it != theta_.end()) it->second.holders.erase(request.host);
    }
    state.cache = mirror;
    state.drop_queue.clear();  // superseded by the authoritative report
    for (const util::Auid& uid : state.cache) {
      admit_reported(uid, state, request.host, now, reply);
    }
    // Ω reconciliation: the report is authoritative for what the host
    // holds. A restarted worker whose replica failed verification (or a
    // rejoining host that lost its disk) reports Δk without the datum — it
    // must stop counting as an owner, or the replica rule would never
    // re-send the data. In-flight downloads are not ownership claims (they
    // never entered Ω) and pinned hosts are permanent owners by definition.
    const std::set<util::Auid> in_flight_set(request.in_flight.begin(),
                                             request.in_flight.end());
    const std::set<util::Auid> kept(reply.keep.begin(), reply.keep.end());
    for (auto owned_it = state.owned.begin(); owned_it != state.owned.end();) {
      const util::Auid uid = *owned_it;
      if (kept.contains(uid) || in_flight_set.contains(uid)) {
        ++owned_it;
        continue;
      }
      const auto it = theta_.find(uid);
      if (it == theta_.end()) {
        owned_it = state.owned.erase(owned_it);
        continue;
      }
      Entry& entry = it->second;
      if (entry.pinned.contains(request.host)) {
        ++owned_it;
        continue;
      }
      logger().debug("host %s no longer reports %s: revoking ownership",
                     request.host.c_str(), entry.data.name.c_str());
      entry.owners.erase(request.host);
      owned_it = state.owned.erase(owned_it);
      update_demand(uid, entry);
    }
  } else {
    // --- Step 1, delta form: O(|added| + |removed|) ------------------------
    ++state.delta_syncs;
    ++stats_.delta_syncs;
    state.last_delta_items = request.added.size() + request.removed.size();
    for (const util::Auid& uid : request.removed) {
      state.cache.erase(uid);
      state.drop_queue.erase(uid);  // a reported removal acks any drop order
      const auto it = theta_.find(uid);
      if (it == theta_.end()) continue;
      Entry& entry = it->second;
      entry.holders.erase(request.host);
      entry.pending.erase(request.host);
      state.pending_uids.erase(uid);
      if (!entry.pinned.contains(request.host)) {
        entry.owners.erase(request.host);
        state.owned.erase(uid);
        update_demand(uid, entry);
      }
    }
    for (const util::Auid& uid : request.added) {
      state.cache.insert(uid);
      admit_reported(uid, state, request.host, now, reply);
    }
  }
  reply.epoch = state.epoch;

  // Refresh provisional assignments the host is still downloading; expired
  // ones are pruned lazily on the failure sweep (every assignment rule
  // checks the deadline, so a stale map entry has no semantic weight).
  for (const util::Auid& uid : request.in_flight) {
    const auto it = theta_.find(uid);
    if (it != theta_.end() && it->second.pending.contains(request.host)) {
      it->second.pending[request.host] = now + pending_ttl;
    }
  }

  assign_and_drop(request.host, state, now, pending_ttl, reply);

  if (logger().enabled(util::LogLevel::kTrace)) {
    for (const auto& item : reply.download) {
      logger().trace("sync %s <- download %s %s", request.host.c_str(),
                     item.data.name.c_str(), item.data.uid.str().c_str());
    }
    for (const auto& uid : reply.drop) {
      logger().trace("sync %s <- drop %s", request.host.c_str(), uid.str().c_str());
    }
  }
  stats_.orders += reply.download.size();
  stats_.drops += reply.drop.size();
  state.reported = state.cache.size();
  return reply;
}

void DataScheduler::assign_and_drop(const HostName& host, HostState& state, double now,
                                    double pending_ttl, SyncReply& reply) {
  // Queued deletion orders: cancel those whose datum was re-scheduled while
  // the host still holds it (a confirmed replica again, not garbage);
  // re-emit the rest until the host acks with a `removed` delta.
  for (auto dq = state.drop_queue.begin(); dq != state.drop_queue.end();) {
    const util::Auid uid = *dq;
    if (!state.cache.contains(uid)) {
      dq = state.drop_queue.erase(dq);  // the host no longer holds it anyway
      continue;
    }
    const auto it = theta_.find(uid);
    if (it != theta_.end() && lifetime_valid(it->second, now)) {
      Entry& entry = it->second;
      entry.holders.insert(host);
      grant_owner(uid, entry, host, state);
      dq = state.drop_queue.erase(dq);
      continue;
    }
    reply.drop.push_back(uid);
    ++dq;
  }

  // --- Step 2: add new data (over the demand index, in uid order — the
  // same order, and the same MaxDataSchedule truncation point, as the v1
  // full-Θ scan) ------------------------------------------------------------
  int new_downloads = 0;
  for (const util::Auid& uid : demand_) {
    if (new_downloads >= config_.max_data_schedule) break;
    if (state.cache.contains(uid)) continue;
    const auto it = theta_.find(uid);
    if (it == theta_.end()) continue;  // defensive: demand_ ⊆ Θ
    Entry& entry = it->second;

    // Pin: a pinned host is a permanent owner by definition, so it must be
    // (re)sent the datum even when no other rule would place it — this is
    // how a replica=0 collector datum reaches exactly its collector node.
    bool assign = entry.pinned.contains(host);
    // Affinity: placement dependency on a datum the host already caches.
    // The mirrored, confirmed Δk stands in for Algorithm 1's "tests against
    // Δk": data assigned in this same sync is not yet mirrored, so it does
    // not attract dependents until the next round. Class affinity
    // (affinity_name) matches any cached datum of that name.
    if (!assign && !entry.attributes.affinity.is_nil() &&
        state.cache.contains(entry.attributes.affinity) &&
        theta_.contains(entry.attributes.affinity)) {
      assign = true;
    } else if (!assign && !entry.attributes.affinity_name.empty()) {
      const auto ni = name_index_.find(entry.attributes.affinity_name);
      if (ni != name_index_.end()) {
        for (const util::Auid& held : ni->second) {
          if (state.cache.contains(held)) {
            assign = true;
            break;
          }
        }
      }
    }
    // Replica: fewer credible owners than requested (or broadcast).
    if (!assign && entry.attributes.replica != 0) {
      const auto want = entry.attributes.replica;
      if (want == core::kReplicaAll ||
          entry.effective_owners(now) < static_cast<std::size_t>(want)) {
        assign = true;
      }
    }
    if (!assign) continue;

    // Collective-distribution gate (paper Fig. 3a/5): a p2p datum fans out
    // like a swarm — at most swarm_factor * |owners| downloads in flight,
    // minimum one (the seed pulls from the repository). Each generation of
    // verified replicas doubles the serving capacity; without the gate
    // every host of a replica=-1 broadcast would stampede the repository in
    // the very first heartbeat and no peer would ever have bytes to serve.
    if (config_.swarm_factor > 0 && entry.data.size > 0 &&
        entry.attributes.protocol == kPeerLocatorProtocol) {
      std::size_t in_progress = 0;
      for (const auto& [assignee, deadline] : entry.pending) {
        if (deadline > now && !entry.owners.contains(assignee)) ++in_progress;
      }
      const std::size_t allowed = std::max<std::size_t>(
          1, entry.owners.size() * static_cast<std::size_t>(config_.swarm_factor));
      if (in_progress >= allowed) continue;  // wait for the current generation
    }

    // Provisional until the host's cache confirms it (or it expires).
    entry.pending[host] = now + pending_ttl;
    state.pending_uids.insert(uid);
    reply.download.push_back(ScheduledData{entry.data, entry.attributes});
    reply.sources.push_back(peer_sources(uid, entry, host));
    ++new_downloads;
  }
}

std::vector<core::Locator> DataScheduler::peer_sources(const util::Auid& uid,
                                                       const Entry& entry,
                                                       const HostName& requester) const {
  std::vector<core::Locator> out;
  for (const HostName& owner : entry.owners) {
    if (config_.max_peer_sources > 0 &&
        out.size() >= static_cast<std::size_t>(config_.max_peer_sources)) {
      break;
    }
    if (owner == requester) continue;
    // Dead hosts are filtered: a locator pointing at a crashed worker would
    // cost the downloader a connect timeout before it rotates away.
    const auto it = hosts_.find(owner);
    if (it == hosts_.end() || !it->second.alive || it->second.endpoint.empty()) continue;
    core::Locator locator;
    locator.data_uid = uid;
    locator.protocol = kPeerLocatorProtocol;
    locator.host = it->second.endpoint;
    locator.path = owner;  // the serving host's name, for logs and the DT ticket
    out.push_back(std::move(locator));
  }
  return out;
}

std::vector<HostName> DataScheduler::detect_failures() {
  const double now = clock_.now();
  const double timeout = config_.heartbeat_period_s * config_.failure_timeout_factor;
  // Lazily prune expired provisional assignments (v1 pruned on every sync;
  // every assignment rule checks the deadline, so this sweep is pure
  // bookkeeping and can run off the beat path).
  for (auto& [uid, entry] : theta_) {
    std::erase_if(entry.pending, [&, &entry_uid = uid](const auto& item) {
      if (item.second > now) return false;
      const auto hs = hosts_.find(item.first);
      if (hs != hosts_.end()) hs->second.pending_uids.erase(entry_uid);
      return true;
    });
  }
  std::vector<HostName> newly_dead;
  for (auto& [host, state] : hosts_) {
    if (!state.alive || now - state.last_sync <= timeout) continue;
    state.alive = false;
    state.epoch = 0;  // revival must re-register through a full resync
    newly_dead.push_back(host);
    ++stats_.failures;
    logger().debug("host %s declared dead (last sync %.2fs ago)", host.c_str(),
                   now - state.last_sync);
    // Fault-tolerant data forgets the dead owner so the replica rule
    // re-schedules it; non-fault-tolerant data keeps the owner (replica
    // unavailable until the host returns), per the paper. O(owned), via
    // the inverse Ω index, instead of a Θ scan per dead host.
    for (auto owned_it = state.owned.begin(); owned_it != state.owned.end();) {
      const util::Auid uid = *owned_it;
      const auto it = theta_.find(uid);
      if (it == theta_.end()) {
        owned_it = state.owned.erase(owned_it);
        continue;
      }
      Entry& entry = it->second;
      if (entry.attributes.fault_tolerant && !entry.pinned.contains(host)) {
        entry.owners.erase(host);
        owned_it = state.owned.erase(owned_it);
        update_demand(uid, entry);
      } else {
        ++owned_it;
      }
    }
    // A dead host cannot complete a download.
    for (const util::Auid& uid : state.pending_uids) {
      const auto it = theta_.find(uid);
      if (it != theta_.end()) it->second.pending.erase(host);
    }
    state.pending_uids.clear();
  }
  // Host-table GC: a host dead longer than host_gc_sweeps sweeps is
  // forgotten, so ds_hosts (and `bitdew_cli status`) stop listing churned
  // nodes forever. A returning host re-registers on its next sync. Owner
  // sets in Θ are untouched — non-fault-tolerant data keeps its dead
  // owner, per the paper — but the mirror back-references are scrubbed.
  if (config_.host_gc_sweeps > 0) {
    for (auto it = hosts_.begin(); it != hosts_.end();) {
      HostState& state = it->second;
      if (state.alive) {
        ++it;
      } else if (++state.dead_sweeps > config_.host_gc_sweeps) {
        logger().debug("host %s forgotten after %d sweeps dead", it->first.c_str(),
                       state.dead_sweeps);
        for (const util::Auid& uid : state.cache) {
          const auto entry = theta_.find(uid);
          if (entry != theta_.end()) entry->second.holders.erase(it->first);
        }
        ++stats_.hosts_gcd;
        it = hosts_.erase(it);
      } else {
        ++it;
      }
    }
  }
  return newly_dead;
}

std::set<HostName> DataScheduler::owners(const util::Auid& uid) const {
  const auto it = theta_.find(uid);
  return it != theta_.end() ? it->second.owners : std::set<HostName>{};
}

std::optional<ScheduledData> DataScheduler::scheduled(const util::Auid& uid) const {
  const auto it = theta_.find(uid);
  if (it == theta_.end()) return std::nullopt;
  return ScheduledData{it->second.data, it->second.attributes};
}

bool DataScheduler::host_alive(const HostName& host) const {
  const auto it = hosts_.find(host);
  return it != hosts_.end() && it->second.alive;
}

std::vector<HostInfo> DataScheduler::host_table() const {
  const double now = clock_.now();
  std::vector<HostInfo> out;
  out.reserve(hosts_.size());
  for (const auto& [host, state] : hosts_) {
    HostInfo info;
    info.name = host;
    info.last_sync_age_s = now - state.last_sync;
    info.alive = state.alive;
    info.cached = static_cast<std::uint32_t>(state.reported);
    info.endpoint = state.endpoint;
    info.full_syncs = state.full_syncs;
    info.delta_syncs = state.delta_syncs;
    info.last_delta_items = static_cast<std::uint32_t>(state.last_delta_items);
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const HostInfo& a, const HostInfo& b) { return a.name < b.name; });
  return out;
}

}  // namespace bitdew::services
