#include "dht/ring.hpp"

#include <algorithm>
#include <cassert>

#include "util/log.hpp"

namespace bitdew::dht {
namespace {

const util::Logger& logger() {
  static const util::Logger instance("dht");
  return instance;
}

// Lookup replies traverse the network once; allow a few hop round-trips.
constexpr double kLookupTimeoutFactor = 4.0;

}  // namespace

Ring::Ring(sim::Simulator& sim, net::Network& net, RingConfig config)
    : sim_(sim), net_(net), config_(config) {
  assert(config_.arity >= 2);
  assert(config_.replication >= 1);
}

NodeIndex Ring::add_node(net::HostId host) {
  Node node;
  node.host = host;
  // Ring position: hash of the host name (stable, collision-improbable).
  node.id = ring_hash("dht-node:" + net_.host_name(host) + ":" +
                      std::to_string(nodes_.size()));
  node.fingers.assign(finger_targets(node.id, config_.arity).size(), kNoNode);
  nodes_.push_back(std::move(node));
  return static_cast<NodeIndex>(nodes_.size() - 1);
}

void Ring::bootstrap_all() {
  std::vector<NodeIndex> live;
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].alive) live.push_back(i);
  }
  std::sort(live.begin(), live.end(),
            [this](NodeIndex a, NodeIndex b) { return nodes_[a].id < nodes_[b].id; });
  const std::size_t n = live.size();
  for (std::size_t i = 0; i < n; ++i) {
    Node& node = nodes_[live[i]];
    node.joined = true;
    node.predecessor = live[(i + n - 1) % n];
    node.successors.clear();
    for (std::size_t j = 1; j <= static_cast<std::size_t>(config_.replication) && j < n + 1;
         ++j) {
      node.successors.push_back(live[(i + j) % n]);
    }
    if (node.successors.empty()) node.successors.push_back(live[i]);
    // Perfect fingers from the oracle membership.
    const std::vector<std::uint64_t> targets = finger_targets(node.id, config_.arity);
    for (std::size_t t = 0; t < targets.size(); ++t) {
      // First live node clockwise from the target.
      NodeIndex best = live[0];
      std::uint64_t best_distance = ~0ULL;
      for (const NodeIndex candidate : live) {
        const std::uint64_t distance = nodes_[candidate].id - targets[t];  // mod 2^64
        if (distance < best_distance) {
          best_distance = distance;
          best = candidate;
        }
      }
      node.fingers[t] = best;
    }
  }
}

void Ring::start_maintenance() {
  timers_.clear();
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    auto timer = std::make_unique<sim::PeriodicTimer>();
    sim::PeriodicTimer* raw = timer.get();
    const double phase = sim_.rng().uniform(0, config_.stabilize_period_s);
    sim_.after(phase, [this, i, raw] {
      raw->start(sim_, config_.stabilize_period_s, [this, i] {
        if (!nodes_[i].alive || !nodes_[i].joined) return;
        stabilize_node(i);
        fix_one_finger(i);
      });
    });
    timers_.push_back(std::move(timer));
  }
}

void Ring::send(NodeIndex from, NodeIndex to, std::int64_t payload_bytes,
                std::function<void()> handler, std::function<void()> on_lost) {
  ++stats_.messages;
  const double deadline = sim_.now() + config_.rpc_timeout_s;
  net_.start_flow(
      nodes_[from].host, nodes_[to].host, payload_bytes + config_.message_overhead_bytes,
      [this, to, handler = std::move(handler), on_lost = std::move(on_lost),
       deadline](const net::FlowResult& result) {
        if (!result.ok || !nodes_[to].alive) {
          if (on_lost) {
            ++stats_.timeouts;
            sim_.at(deadline, on_lost);
          }
          return;
        }
        sim_.after(config_.processing_delay_s, handler);
      });
}

NodeIndex Ring::first_live_successor(const Node& node) const {
  for (const NodeIndex s : node.successors) {
    if (nodes_[s].alive) return s;
  }
  return kNoNode;
}

NodeIndex Ring::successor_of(NodeIndex node) const {
  return first_live_successor(nodes_[node]);
}

NodeIndex Ring::closest_preceding(const Node& node, std::uint64_t key_hash) const {
  NodeIndex best = kNoNode;
  std::uint64_t best_distance = ~0ULL;
  auto consider = [&](NodeIndex candidate) {
    if (candidate == kNoNode || !nodes_[candidate].alive) return;
    const std::uint64_t id = nodes_[candidate].id;
    if (!ring_in_open(id, node.id, key_hash)) return;
    const std::uint64_t distance = key_hash - id;  // clockwise distance to key
    if (distance < best_distance) {
      best_distance = distance;
      best = candidate;
    }
  };
  for (const NodeIndex f : node.fingers) consider(f);
  for (const NodeIndex s : node.successors) consider(s);
  return best;
}

NodeIndex Ring::oracle_owner(const std::string& key) const {
  const std::uint64_t hash = ring_hash(key);
  NodeIndex best = kNoNode;
  std::uint64_t best_distance = ~0ULL;
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].alive || !nodes_[i].joined) continue;
    const std::uint64_t distance = nodes_[i].id - hash;  // clockwise from key
    if (distance < best_distance) {
      best_distance = distance;
      best = i;
    }
  }
  return best;
}

std::size_t Ring::stored_pairs(NodeIndex node) const {
  std::size_t pairs = 0;
  for (const auto& [hash, keys] : nodes_[node].store) {
    for (const auto& [key, values] : keys) pairs += values.size();
  }
  return pairs;
}

// --- lookup -----------------------------------------------------------------

void Ring::lookup(NodeIndex from, const std::string& key,
                  std::function<void(LookupResult)> done) {
  const std::uint64_t hash = ring_hash(key);
  const std::uint64_t request_id = next_request_id_++;
  ++stats_.lookups;
  pending_lookups_[request_id] = std::move(done);
  lookup_timeouts_[request_id] =
      sim_.after(config_.rpc_timeout_s * kLookupTimeoutFactor, [this, request_id] {
        ++stats_.timeouts;
        finish_lookup(request_id, LookupResult{});
      });
  lookup_step(from, from, hash, 0, request_id);
}

void Ring::finish_lookup(std::uint64_t request_id, LookupResult result) {
  const auto it = pending_lookups_.find(request_id);
  if (it == pending_lookups_.end()) return;
  auto done = std::move(it->second);
  pending_lookups_.erase(it);
  const auto timeout = lookup_timeouts_.find(request_id);
  if (timeout != lookup_timeouts_.end()) {
    sim_.cancel(timeout->second);
    lookup_timeouts_.erase(timeout);
  }
  stats_.lookup_hops += static_cast<std::uint64_t>(result.hops);
  done(result);
}

void Ring::lookup_step(NodeIndex origin, NodeIndex at, std::uint64_t key_hash, int hops,
                       std::uint64_t request_id) {
  const Node& node = nodes_[at];
  if (!node.alive) return;  // dropped; origin's timeout will fire

  auto reply = [this, origin, at, request_id](NodeIndex owner, int total_hops) {
    const LookupResult result{true, owner, total_hops};
    if (origin == at) {
      finish_lookup(request_id, result);
      return;
    }
    send(at, origin, 32, [this, request_id, result] { finish_lookup(request_id, result); },
         nullptr);
  };

  // Owner is this node?
  if (node.predecessor != kNoNode && nodes_[node.predecessor].alive &&
      ring_in_half_open(key_hash, nodes_[node.predecessor].id, node.id)) {
    reply(at, hops);
    return;
  }
  const NodeIndex successor = first_live_successor(node);
  if (successor == kNoNode || successor == at) {
    reply(at, hops);  // degenerate single-node ring
    return;
  }
  // Owner is the immediate successor?
  if (ring_in_half_open(key_hash, node.id, nodes_[successor].id)) {
    reply(successor, hops);
    return;
  }
  NodeIndex next = closest_preceding(node, key_hash);
  if (next == kNoNode || next == at) next = successor;
  send(at, next, 32,
       [this, origin, next, key_hash, hops, request_id] {
         lookup_step(origin, next, key_hash, hops + 1, request_id);
       },
       nullptr);
}

// --- key operations -----------------------------------------------------------

void Ring::store_pair(Node& node, std::uint64_t key_hash, const std::string& key,
                      const std::string& value) {
  node.store[key_hash][key].insert(value);
}

void Ring::replicate(NodeIndex owner, const std::string& key, const std::string& value) {
  const Node& node = nodes_[owner];
  const std::uint64_t hash = ring_hash(key);
  int copies = config_.replication - 1;
  for (const NodeIndex s : node.successors) {
    if (copies-- <= 0) break;
    if (s == owner) continue;
    send(owner, s,
         static_cast<std::int64_t>(key.size() + value.size()),
         [this, s, hash, key, value] { store_pair(nodes_[s], hash, key, value); }, nullptr);
  }
}

void Ring::put(NodeIndex from, const std::string& key, const std::string& value,
               std::function<void(bool)> done) {
  lookup(from, key, [this, from, key, value, done = std::move(done)](LookupResult result) {
    if (!result.ok) {
      done(false);
      return;
    }
    const NodeIndex owner = result.owner;
    const std::uint64_t hash = ring_hash(key);
    send(from, owner, static_cast<std::int64_t>(key.size() + value.size()),
         [this, from, owner, hash, key, value, done] {
           store_pair(nodes_[owner], hash, key, value);
           replicate(owner, key, value);
           // Ack back to the requester.
           send(owner, from, 16, [done] { done(true); }, [done] { done(false); });
         },
         [done] { done(false); });
  });
}

void Ring::get(NodeIndex from, const std::string& key,
               std::function<void(std::vector<std::string>)> done) {
  lookup(from, key, [this, from, key, done = std::move(done)](LookupResult result) {
    if (!result.ok) {
      done({});
      return;
    }
    const NodeIndex owner = result.owner;
    const std::uint64_t hash = ring_hash(key);
    send(from, owner, static_cast<std::int64_t>(key.size()),
         [this, from, owner, hash, key, done] {
           std::vector<std::string> values;
           const auto& store = nodes_[owner].store;
           const auto by_hash = store.find(hash);
           if (by_hash != store.end()) {
             const auto by_key = by_hash->second.find(key);
             if (by_key != by_hash->second.end()) {
               values.assign(by_key->second.begin(), by_key->second.end());
             }
           }
           const auto payload = static_cast<std::int64_t>(values.size() * 24 + 16);
           send(owner, from, payload, [done, values] { done(values); },
                [done] { done({}); });
         },
         [done] { done({}); });
  });
}

void Ring::remove(NodeIndex from, const std::string& key, const std::string& value,
                  std::function<void(bool)> done) {
  lookup(from, key, [this, from, key, value, done = std::move(done)](LookupResult result) {
    if (!result.ok) {
      done(false);
      return;
    }
    const NodeIndex owner = result.owner;
    const std::uint64_t hash = ring_hash(key);
    auto erase_at = [this, hash, key, value](NodeIndex at) {
      auto& store = nodes_[at].store;
      const auto by_hash = store.find(hash);
      if (by_hash == store.end()) return;
      const auto by_key = by_hash->second.find(key);
      if (by_key == by_hash->second.end()) return;
      by_key->second.erase(value);
      if (by_key->second.empty()) by_hash->second.erase(by_key);
      if (by_hash->second.empty()) store.erase(by_hash);
    };
    send(from, owner, static_cast<std::int64_t>(key.size() + value.size()),
         [this, from, owner, erase_at, key, value, done] {
           erase_at(owner);
           int copies = config_.replication - 1;
           for (const NodeIndex s : nodes_[owner].successors) {
             if (copies-- <= 0) break;
             if (s == owner) continue;
             send(owner, s, 32, [erase_at, s] { erase_at(s); }, nullptr);
           }
           send(owner, from, 16, [done] { done(true); }, [done] { done(false); });
         },
         [done] { done(false); });
  });
}

// --- membership ----------------------------------------------------------------

void Ring::join(NodeIndex node, NodeIndex bootstrap, std::function<void(bool)> done) {
  Node& joining = nodes_[node];
  joining.joined = false;
  joining.predecessor = kNoNode;
  const std::string key = "join:" + std::to_string(joining.id);
  // Find the successor of our ring position through the bootstrap node.
  const std::uint64_t request_id = next_request_id_++;
  ++stats_.lookups;
  pending_lookups_[request_id] = [this, node, done = std::move(done)](LookupResult result) {
    if (!result.ok || result.owner == kNoNode) {
      done(false);
      return;
    }
    Node& joining = nodes_[node];
    const NodeIndex successor = result.owner;
    joining.successors.assign(1, successor);
    joining.joined = true;
    // Ask the successor to hand over our keys and adopt us as predecessor.
    send(node, successor,
         64,
         [this, node, successor] {
           Node& succ = nodes_[successor];
           // Keys in (joining.id backwards from succ) now belong to `node`:
           // every stored hash h with h <= joining.id measured in succ's arc.
           std::vector<std::pair<std::uint64_t, std::pair<std::string, std::string>>> moved;
           const std::uint64_t boundary = nodes_[node].id;
           for (const auto& [hash, keys] : succ.store) {
             const std::uint64_t from_id =
                 succ.predecessor != kNoNode ? nodes_[succ.predecessor].id : succ.id;
             if (ring_in_half_open(hash, from_id, boundary)) {
               for (const auto& [key, values] : keys) {
                 for (const auto& value : values) moved.push_back({hash, {key, value}});
               }
             }
           }
           for (const auto& [hash, kv] : moved) {
             store_pair(nodes_[node], hash, kv.first, kv.second);
           }
           if (succ.predecessor == kNoNode || !nodes_[succ.predecessor].alive ||
               ring_in_open(nodes_[node].id, nodes_[succ.predecessor].id, succ.id)) {
             succ.predecessor = node;
           }
         },
         nullptr);
    done(true);
  };
  lookup_timeouts_[request_id] =
      sim_.after(config_.rpc_timeout_s * kLookupTimeoutFactor, [this, request_id] {
        ++stats_.timeouts;
        finish_lookup(request_id, LookupResult{});
      });
  lookup_step(bootstrap, bootstrap, joining.id, 0, request_id);
}

void Ring::fail(NodeIndex node) {
  nodes_[node].alive = false;
  logger().debug("dht node %u failed", node);
}

void Ring::stabilize_node(NodeIndex index) {
  Node& node = nodes_[index];
  if (node.predecessor != kNoNode && !nodes_[node.predecessor].alive) {
    node.predecessor = kNoNode;
  }
  // Drop dead successors.
  std::erase_if(node.successors, [this](NodeIndex s) { return !nodes_[s].alive; });
  if (node.successors.empty()) {
    // Fall back to any live finger; otherwise the node is isolated.
    for (const NodeIndex f : node.fingers) {
      if (f != kNoNode && nodes_[f].alive && f != index) {
        node.successors.push_back(f);
        break;
      }
    }
    if (node.successors.empty()) return;
  }
  const NodeIndex successor = node.successors.front();
  // Classic Chord stabilize: ask the successor for its predecessor and
  // successor list, adopt a closer successor if one appeared, then notify.
  send(index, successor, 48,
       [this, index, successor] {
         const Node& succ = nodes_[successor];
         const NodeIndex between = succ.predecessor;
         const std::vector<NodeIndex> succ_list = succ.successors;
         send(successor, index, 96,
              [this, index, successor, between, succ_list] {
                Node& node = nodes_[index];
                NodeIndex new_successor = successor;
                if (between != kNoNode && between != index && nodes_[between].alive &&
                    ring_in_open(nodes_[between].id, node.id, nodes_[successor].id)) {
                  new_successor = between;
                }
                // Rebuild successor list: new successor + its list.
                node.successors.assign(1, new_successor);
                for (const NodeIndex s : succ_list) {
                  if (node.successors.size() >=
                      static_cast<std::size_t>(config_.replication)) {
                    break;
                  }
                  if (s != index && nodes_[s].alive &&
                      std::find(node.successors.begin(), node.successors.end(), s) ==
                          node.successors.end()) {
                    node.successors.push_back(s);
                  }
                }
                // Notify: we may be our successor's predecessor.
                const NodeIndex target = node.successors.front();
                send(index, target, 16,
                     [this, index, target] {
                       Node& succ = nodes_[target];
                       if (succ.predecessor == kNoNode || !nodes_[succ.predecessor].alive ||
                           ring_in_open(nodes_[index].id, nodes_[succ.predecessor].id, succ.id)) {
                         succ.predecessor = index;
                       }
                     },
                     nullptr);
              },
              nullptr);
       },
       [this, index] {
         // Successor unreachable: drop it now; next round promotes the next.
         Node& node = nodes_[index];
         if (!node.successors.empty() && !nodes_[node.successors.front()].alive) {
           node.successors.erase(node.successors.begin());
         }
       });
}

void Ring::fix_one_finger(NodeIndex index) {
  Node& node = nodes_[index];
  if (node.fingers.empty()) return;
  const std::size_t slot = node.next_finger_to_fix++ % node.fingers.size();
  const std::uint64_t target = finger_targets(node.id, config_.arity)[slot];
  const std::uint64_t request_id = next_request_id_++;
  ++stats_.lookups;
  pending_lookups_[request_id] = [this, index, slot](LookupResult result) {
    if (result.ok && result.owner != kNoNode) nodes_[index].fingers[slot] = result.owner;
  };
  lookup_timeouts_[request_id] =
      sim_.after(config_.rpc_timeout_s * kLookupTimeoutFactor, [this, request_id] {
        finish_lookup(request_id, LookupResult{});
      });
  lookup_step(index, index, target, 0, request_id);
}

void Ring::rebuild_successor_list(NodeIndex index) { stabilize_node(index); }

}  // namespace bitdew::dht
