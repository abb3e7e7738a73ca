#include "dht/live_ring.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_set>
#include <utility>

#include "util/log.hpp"

namespace bitdew::dht {
namespace {

namespace wire = rpc::wire;
using wire::Endpoint;

const util::Logger& logger() {
  static const util::Logger instance("livering");
  return instance;
}

/// Splits "host:port"; false on a malformed endpoint.
bool split_endpoint(const std::string& endpoint, std::string& host, std::uint16_t& port) {
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= endpoint.size()) return false;
  unsigned long value = 0;
  for (std::size_t i = colon + 1; i < endpoint.size(); ++i) {
    const char c = endpoint[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<unsigned long>(c - '0');
    if (value > 65535) return false;
  }
  if (value == 0) return false;
  host = endpoint.substr(0, colon);
  port = static_cast<std::uint16_t>(value);
  return true;
}

}  // namespace

LiveRing::LiveRing(LiveRingConfig config, OpsSource ops_in_range, OpsSink apply_handoff)
    : config_(std::move(config)),
      ops_in_range_(std::move(ops_in_range)),
      apply_handoff_(std::move(apply_handoff)) {
  assert(config_.arity >= 2);
  assert(config_.replication >= 1);
  self_.endpoint = config_.endpoint;
  self_.id = config_.ring_id != 0 ? config_.ring_id
                                  : ring_hash("ring-node:" + config_.endpoint);
  finger_targets_ = finger_targets(self_.id, config_.arity);
  fingers_.assign(finger_targets_.size(), wire::RingNode{});
}

std::shared_ptr<LiveRing::Link> LiveRing::link_for(const std::string& endpoint) {
  const util::LockGuard lock(links_mutex_);
  const auto it = links_.find(endpoint);
  if (it != links_.end()) return it->second;
  std::string host;
  std::uint16_t port = 0;
  if (!split_endpoint(endpoint, host, port)) return nullptr;
  auto link = std::make_shared<Link>(std::move(host), port, config_.call_timeout_s);
  links_.emplace(endpoint, link);
  return link;
}

api::Expected<std::string> LiveRing::call(const std::string& endpoint, Endpoint ep,
                                          const std::function<void(rpc::Writer&)>& encode) {
  const std::shared_ptr<Link> link = link_for(endpoint);
  if (link == nullptr) {
    return api::Error{api::Errc::kTransport, "ring", "malformed member endpoint " + endpoint};
  }
  api::Expected<std::string> reply = [&] {
    const util::LockGuard lock(link->mutex);
    return link->channel.call(ep, encode);
  }();
  {
    const util::LockGuard lock(mutex_);
    if (reply.ok()) {
      suspects_.erase(endpoint);
    } else {
      suspects_[endpoint] = std::chrono::steady_clock::now();
    }
  }
  return reply;
}

bool LiveRing::suspect_locked(const std::string& endpoint) const {
  return suspects_.count(endpoint) > 0;
}

wire::RingNode LiveRing::first_live_successor_locked() const {
  for (const wire::RingNode& s : successors_) {
    if (s.id != self_.id && !suspect_locked(s.endpoint)) return s;
  }
  return {};
}

wire::RingNode LiveRing::closest_preceding_locked(std::uint64_t hash) const {
  wire::RingNode best;
  std::uint64_t best_distance = ~0ULL;
  // Plain loops, not a considered-candidate lambda: a lambda body does not
  // inherit the held capability, so guarded reads inside one trip the
  // analysis.
  const std::vector<wire::RingNode>* tables[] = {&fingers_, &successors_};
  for (const auto* table : tables) {
    for (const wire::RingNode& candidate : *table) {
      if (candidate.endpoint.empty() || candidate.id == self_.id) continue;
      if (suspect_locked(candidate.endpoint)) continue;
      if (!ring_in_open(candidate.id, self_.id, hash)) continue;
      const std::uint64_t distance = hash - candidate.id;  // clockwise to the key
      if (distance < best_distance) {
        best_distance = distance;
        best = candidate;
      }
    }
  }
  return best;
}

bool LiveRing::owns(std::uint64_t hash) const {
  const util::LockGuard lock(mutex_);
  if (has_pred_ && !suspect_locked(pred_.endpoint)) {
    return ring_in_half_open(hash, pred_.id, self_.id);
  }
  // No live predecessor: we own everything only when provably standalone.
  return first_live_successor_locked().endpoint.empty();
}

wire::RingLookupReply LiveRing::handle_lookup(std::uint64_t hash) {
  const util::LockGuard lock(mutex_);
  if (has_pred_ && !suspect_locked(pred_.endpoint) &&
      ring_in_half_open(hash, pred_.id, self_.id)) {
    return {true, self_};
  }
  const wire::RingNode succ = first_live_successor_locked();
  if (succ.endpoint.empty()) return {true, self_};  // degenerate / standalone
  if (ring_in_half_open(hash, self_.id, succ.id)) return {true, succ};
  wire::RingNode next = closest_preceding_locked(hash);
  if (next.endpoint.empty() || next.id == self_.id) next = succ;
  return {false, next};
}

api::Expected<wire::RingNode> LiveRing::resolve_owner(std::uint64_t hash) {
  wire::RingNode at = self_;
  for (int hop = 0; hop < config_.max_hops; ++hop) {
    wire::RingLookupReply step;
    if (at.id == self_.id) {
      step = handle_lookup(hash);
    } else {
      const api::Expected<std::string> reply =
          call(at.endpoint, Endpoint::kRingLookup, [&](rpc::Writer& w) { w.u64(hash); });
      if (!reply.ok()) {
        at = self_;  // member marked suspect; restart on repaired tables
        continue;
      }
      try {
        rpc::Reader r(*reply);
        const api::Expected<wire::RingLookupReply> decoded =
            wire::read_expected<wire::RingLookupReply>(r, wire::read_ring_lookup_reply);
        if (!decoded.ok()) {
          at = self_;
          continue;
        }
        step = *decoded;
      } catch (const rpc::CodecError&) {
        at = self_;
        continue;
      }
    }
    if (step.done) return step.node;
    if (step.node.id == at.id) return step.node;  // no progress: stop here
    at = step.node;
  }
  return api::Error{api::Errc::kUnavailable, "ring", "lookup exceeded hop budget"};
}

std::vector<wire::RingNode> LiveRing::successors() const {
  const util::LockGuard lock(mutex_);
  return successors_;
}

std::vector<wire::RingNode> LiveRing::collect_members(std::size_t cap) {
  std::vector<wire::RingNode> members{self_};
  std::unordered_set<std::uint64_t> seen{self_.id};
  wire::RingNode cursor;
  {
    const util::LockGuard lock(mutex_);
    cursor = first_live_successor_locked();
  }
  while (!cursor.endpoint.empty() && seen.insert(cursor.id).second && members.size() < cap) {
    members.push_back(cursor);
    const api::Expected<std::string> reply =
        call(cursor.endpoint, Endpoint::kRingStabilize, [](rpc::Writer&) {});
    if (!reply.ok()) break;
    wire::RingNode next;
    try {
      rpc::Reader r(*reply);
      const api::Expected<wire::RingStabilizeReply> decoded =
          wire::read_expected<wire::RingStabilizeReply>(r, wire::read_ring_stabilize_reply);
      if (!decoded.ok()) break;
      const util::LockGuard lock(mutex_);
      for (const wire::RingNode& s : decoded->successors) {
        if (!suspect_locked(s.endpoint)) {
          next = s;
          break;
        }
      }
    } catch (const rpc::CodecError&) {
      break;
    }
    cursor = next;
  }
  return members;
}

std::vector<api::Status> LiveRing::store_at(const wire::RingNode& target,
                                            const wire::RingStoreRequest& request) {
  if (request.ops.empty()) return {};
  const api::Expected<std::string> reply =
      call(target.endpoint, Endpoint::kRingStore,
           [&](rpc::Writer& w) { wire::write_ring_store_request(w, request); });
  if (!reply.ok()) return std::vector<api::Status>(request.ops.size(), reply.error());
  try {
    rpc::Reader r(*reply);
    std::vector<api::Status> statuses = wire::read_status_batch(r);
    if (!r.exhausted() || statuses.size() != request.ops.size()) {
      throw rpc::CodecError("ring store reply not index-aligned");
    }
    return statuses;
  } catch (const rpc::CodecError& error) {
    return std::vector<api::Status>(
        request.ops.size(),
        api::Status(api::Error{api::Errc::kTransport, "ring", error.what()}));
  }
}

// --- membership ---------------------------------------------------------------

api::Status LiveRing::start() {
  if (config_.join_endpoint.empty()) return api::ok_status();  // bootstrap

  // Iterative lookup of our own ring position, seeded at the bootstrap
  // member (mirrors the simulator's join: the owner of our id is the
  // successor that must admit us).
  wire::RingNode at{0, config_.join_endpoint};
  wire::RingNode successor;
  bool resolved = false;
  for (int hop = 0; hop < config_.max_hops && !resolved; ++hop) {
    const api::Expected<std::string> reply =
        call(at.endpoint, Endpoint::kRingLookup, [&](rpc::Writer& w) { w.u64(self_.id); });
    if (!reply.ok()) {
      if (at.endpoint == config_.join_endpoint) return reply.error();
      at = {0, config_.join_endpoint};  // fall back to the bootstrap member
      continue;
    }
    try {
      rpc::Reader r(*reply);
      const api::Expected<wire::RingLookupReply> decoded =
          wire::read_expected<wire::RingLookupReply>(r, wire::read_ring_lookup_reply);
      if (!decoded.ok()) return decoded.error();
      if (decoded->done) {
        successor = decoded->node;
        resolved = true;
      } else if (decoded->node.id == at.id) {
        successor = decoded->node;
        resolved = true;
      } else {
        at = decoded->node;
      }
    } catch (const rpc::CodecError& error) {
      return api::Error{api::Errc::kTransport, "ring", error.what()};
    }
  }
  if (!resolved) {
    return api::Error{api::Errc::kUnavailable, "ring", "join lookup exceeded hop budget"};
  }
  if (successor.id == self_.id) {
    return api::Error{api::Errc::kRejected, "ring",
                      "ring id collision with " + successor.endpoint};
  }

  const api::Expected<std::string> reply =
      call(successor.endpoint, Endpoint::kRingJoin,
           [&](rpc::Writer& w) { wire::write_ring_node(w, self_); });
  if (!reply.ok()) return reply.error();
  wire::RingJoinReply admitted;
  try {
    rpc::Reader r(*reply);
    const api::Expected<wire::RingJoinReply> decoded =
        wire::read_expected<wire::RingJoinReply>(r, wire::read_ring_join_reply);
    if (!decoded.ok()) return decoded.error();
    admitted = std::move(*decoded);
  } catch (const rpc::CodecError& error) {
    return api::Error{api::Errc::kTransport, "ring", error.what()};
  }

  {
    const util::LockGuard lock(mutex_);
    successors_.assign(1, successor);
    for (const wire::RingNode& s : admitted.successors) {
      if (successors_.size() >= static_cast<std::size_t>(config_.replication)) break;
      if (s.id == self_.id || s.id == successor.id) continue;
      successors_.push_back(s);
    }
    if (admitted.has_pred && admitted.pred.id != self_.id) {
      pred_ = admitted.pred;
      has_pred_ = true;
    }
  }
  if (!admitted.handoff.empty()) apply_handoff_(admitted.handoff);
  logger().info("joined ring via %s as id %016llx (%zu handoff ops)",
                successor.endpoint.c_str(),
                static_cast<unsigned long long>(self_.id), admitted.handoff.size());
  return api::ok_status();
}

void LiveRing::leave() {
  {
    const util::LockGuard lock(mutex_);
    if (left_) return;
    left_ = true;
  }
  const std::vector<wire::RingNode> succs = successors();
  wire::RingLeaveRequest request;
  request.leaver = self_;
  {
    const util::LockGuard lock(mutex_);
    request.has_pred = has_pred_ && !suspect_locked(pred_.endpoint);
    request.pred = pred_;
  }
  // Everything we hold — owned keys and replicas alike — goes to the first
  // reachable successor as owner-with-replication; replay is idempotent.
  const wire::RingStoreRequest handoff{true, ops_in_range_(self_.id, self_.id)};
  for (const wire::RingNode& s : succs) {
    if (s.id == self_.id) continue;
    if (!handoff.ops.empty()) {
      const std::vector<api::Status> statuses = store_at(s, handoff);
      if (!statuses.empty() && !statuses.front().ok() &&
          statuses.front().error().code == api::Errc::kTransport) {
        continue;  // unreachable: try the next successor
      }
    }
    const api::Expected<std::string> reply =
        call(s.endpoint, Endpoint::kRingLeave,
             [&](rpc::Writer& w) { wire::write_ring_leave_request(w, request); });
    if (reply.ok()) {
      logger().info("left ring; %zu ops handed to %s", handoff.ops.size(),
                    s.endpoint.c_str());
      return;
    }
  }
  if (!succs.empty()) logger().warn("leave: no successor reachable for handoff");
}

api::Expected<wire::RingJoinReply> LiveRing::handle_join(const wire::RingNode& joiner) {
  if (joiner.id == self_.id || joiner.endpoint.empty()) {
    return api::Error{api::Errc::kRejected, "ring", "ring id collision"};
  }
  wire::RingJoinReply reply;
  std::uint64_t from = 0;
  {
    const util::LockGuard lock(mutex_);
    reply.self = self_;
    reply.has_pred = has_pred_;
    reply.pred = pred_;
    reply.successors = successors_;
    from = (has_pred_ && !suspect_locked(pred_.endpoint)) ? pred_.id : self_.id;
    adopt_pred_locked(joiner);
    if (successors_.empty()) successors_.push_back(joiner);  // first joiner
  }
  // Handed-off keys stay local too: they become our replicas of the new
  // owner's range, which is exactly the f-replication invariant.
  reply.handoff = ops_in_range_(from, joiner.id);
  logger().info("admitted %s (id %016llx), handing %zu ops", joiner.endpoint.c_str(),
                static_cast<unsigned long long>(joiner.id), reply.handoff.size());
  return reply;
}

void LiveRing::adopt_pred_locked(const wire::RingNode& candidate) {
  if (candidate.id == self_.id || candidate.endpoint.empty()) return;
  if (!has_pred_ || suspect_locked(pred_.endpoint) ||
      ring_in_open(candidate.id, pred_.id, self_.id)) {
    pred_ = candidate;
    has_pred_ = true;
    suspects_.erase(candidate.endpoint);  // it just reached us: it is alive
  }
}

void LiveRing::handle_notify(const wire::RingNode& candidate) {
  const util::LockGuard lock(mutex_);
  adopt_pred_locked(candidate);
}

wire::RingStabilizeReply LiveRing::handle_stabilize() {
  const util::LockGuard lock(mutex_);
  wire::RingStabilizeReply reply;
  reply.has_pred = has_pred_;
  reply.pred = pred_;
  reply.successors = successors_;
  return reply;
}

void LiveRing::handle_leave(const wire::RingLeaveRequest& request) {
  const util::LockGuard lock(mutex_);
  suspects_[request.leaver.endpoint] = std::chrono::steady_clock::now();
  if (has_pred_ && pred_.id == request.leaver.id) {
    if (request.has_pred && request.pred.id != self_.id) {
      pred_ = request.pred;
    } else {
      has_pred_ = false;
    }
  }
  std::erase_if(successors_,
                [&](const wire::RingNode& s) { return s.id == request.leaver.id; });
  for (wire::RingNode& f : fingers_) {
    if (f.id == request.leaver.id) f = wire::RingNode{};
  }
}

wire::RingStatusInfo LiveRing::status() const {
  const util::LockGuard lock(mutex_);
  wire::RingStatusInfo info;
  info.self = self_;
  info.has_pred = has_pred_ && !suspect_locked(pred_.endpoint);
  info.pred = pred_;
  info.successors = successors_;
  info.fingers_total = static_cast<std::uint32_t>(fingers_.size());
  for (const wire::RingNode& f : fingers_) {
    if (!f.endpoint.empty() && !suspect_locked(f.endpoint)) ++info.fingers_resolved;
  }
  return info;
}

void LiveRing::tick() {
  const auto now = std::chrono::steady_clock::now();
  const auto revive_after = std::chrono::duration<double>(10 * config_.stabilize_period_s);

  // 1. Revive aged suspects so transient failures (and restarted members)
  // get re-probed instead of being shunned forever.
  wire::RingNode pred;
  bool ping_pred = false;
  {
    const util::LockGuard lock(mutex_);
    std::erase_if(suspects_, [&](const auto& entry) {
      return now - entry.second > revive_after;
    });
    if (has_pred_ && !suspect_locked(pred_.endpoint)) {
      pred = pred_;
      ping_pred = true;
    }
  }

  // 2. Predecessor liveness: the ownership rule leans on a live pred, so
  // probe it every round (call() marks it suspect on failure).
  if (ping_pred) call(pred.endpoint, Endpoint::kPing, [](rpc::Writer&) {});

  // 3. Stabilize with the first live successor (classic Chord: adopt its
  // closer predecessor, rebuild the list, notify).
  wire::RingNode succ;
  {
    const util::LockGuard lock(mutex_);
    // Manual erase loop: suspect_locked requires the capability, which a
    // lambda body handed to std::erase_if would not inherit.
    for (auto it = successors_.begin(); it != successors_.end();) {
      it = suspect_locked(it->endpoint) ? successors_.erase(it) : it + 1;
    }
    if (successors_.empty()) {
      // Fall back to any live finger, then to the predecessor: a two-node
      // ring must survive its successor entry going suspect.
      for (const wire::RingNode& f : fingers_) {
        if (!f.endpoint.empty() && f.id != self_.id && !suspect_locked(f.endpoint)) {
          successors_.push_back(f);
          break;
        }
      }
      if (successors_.empty() && has_pred_ && !suspect_locked(pred_.endpoint)) {
        successors_.push_back(pred_);
      }
    }
    if (!successors_.empty()) succ = successors_.front();
  }
  if (!succ.endpoint.empty()) {
    const api::Expected<std::string> reply =
        call(succ.endpoint, Endpoint::kRingStabilize, [](rpc::Writer&) {});
    if (reply.ok()) {
      try {
        rpc::Reader r(*reply);
        const api::Expected<wire::RingStabilizeReply> decoded =
            wire::read_expected<wire::RingStabilizeReply>(r, wire::read_ring_stabilize_reply);
        if (decoded.ok()) {
          wire::RingNode notify_target;
          {
            const util::LockGuard lock(mutex_);
            wire::RingNode new_succ = succ;
            if (decoded->has_pred && decoded->pred.id != self_.id &&
                !decoded->pred.endpoint.empty() && !suspect_locked(decoded->pred.endpoint) &&
                ring_in_open(decoded->pred.id, self_.id, succ.id)) {
              new_succ = decoded->pred;
            }
            successors_.assign(1, new_succ);
            for (const wire::RingNode& s : decoded->successors) {
              if (successors_.size() >= static_cast<std::size_t>(config_.replication)) break;
              if (s.id == self_.id || s.endpoint.empty() || suspect_locked(s.endpoint)) continue;
              if (std::any_of(successors_.begin(), successors_.end(),
                              [&](const wire::RingNode& have) { return have.id == s.id; })) {
                continue;
              }
              successors_.push_back(s);
            }
            notify_target = successors_.front();
          }
          call(notify_target.endpoint, Endpoint::kRingNotify,
               [&](rpc::Writer& w) { wire::write_ring_node(w, self_); });
        }
      } catch (const rpc::CodecError&) {
        // Malformed reply: treat like a failed round; next tick retries.
      }
    } else {
      const util::LockGuard lock(mutex_);
      if (!successors_.empty() && successors_.front().id == succ.id) {
        successors_.erase(successors_.begin());
      }
    }
  }

  // 4. Fix one finger per round.
  if (!finger_targets_.empty()) {
    std::size_t slot = 0;
    std::uint64_t target = 0;
    {
      const util::LockGuard lock(mutex_);
      slot = next_finger_++ % finger_targets_.size();
      target = finger_targets_[slot];
    }
    const api::Expected<wire::RingNode> owner = resolve_owner(target);
    const util::LockGuard lock(mutex_);
    fingers_[slot] = owner.ok() ? *owner : wire::RingNode{};
  }
}

}  // namespace bitdew::dht
