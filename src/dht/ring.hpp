// Simulated DKS/Chord-style DHT (the paper's Distributed Data Catalog).
//
// The paper implements its DDC with the DKS(N, k, f) DHT family [Alima et
// al. 2003]: N nodes, search arity k, replication degree f. This module
// reproduces those three knobs on a 64-bit ring:
//  * k-ary fingers — each node keeps (k-1) pointers per level, dividing the
//    remaining key distance by k; lookups take O(log_k N) hops;
//  * a successor list of length f used for both routing fall-back and
//    key replication (a key is stored on its owner and f-1 successors);
//  * periodic stabilization repairing successors/predecessor/fingers after
//    joins, graceful leaves and crashes.
// Every hop is a real message flow on the simulated network (plus a
// configurable per-hop processing delay modelling DHT software overhead),
// which is what the Table 3 benchmark measures against the centralized DC.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "dht/ring_math.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace bitdew::dht {

using NodeIndex = std::uint32_t;

inline constexpr NodeIndex kNoNode = 0xffffffffu;

struct RingConfig {
  int arity = 4;                   // k: search arity
  int replication = 3;             // f: owner + (f-1) successors hold a key
  double stabilize_period_s = 2.0;
  double rpc_timeout_s = 1.5;
  double processing_delay_s = 1e-3;  // per-hop software overhead
  std::int64_t message_overhead_bytes = 96;  // header cost per message
};

struct LookupResult {
  bool ok = false;
  NodeIndex owner = kNoNode;
  int hops = 0;
};

struct RingStats {
  std::uint64_t messages = 0;
  std::uint64_t lookup_hops = 0;
  std::uint64_t lookups = 0;
  std::uint64_t timeouts = 0;
  double mean_hops() const {
    return lookups > 0 ? static_cast<double>(lookup_hops) / static_cast<double>(lookups) : 0.0;
  }
};

class Ring {
 public:
  Ring(sim::Simulator& sim, net::Network& net, RingConfig config = {});

  /// Registers a node on `host`. Nodes start detached; call bootstrap_all()
  /// for an initial deployment or join() for late arrivals.
  NodeIndex add_node(net::HostId host);

  /// Builds the correct ring over all currently-added live nodes (initial
  /// deployment; the paper's experiments start from a converged catalog).
  void bootstrap_all();

  /// Starts the stabilization timers (successor repair + finger fixing).
  void start_maintenance();

  /// Asynchronously joins a detached node through a bootstrap node.
  void join(NodeIndex node, NodeIndex bootstrap, std::function<void(bool)> done);

  /// Abrupt failure: the node stops responding (its host is killed by the
  /// caller or here) and its keys survive on replicas.
  void fail(NodeIndex node);

  // --- asynchronous key operations (issued from `from`'s host) ----------
  void lookup(NodeIndex from, const std::string& key, std::function<void(LookupResult)> done);
  void put(NodeIndex from, const std::string& key, const std::string& value,
           std::function<void(bool)> done);
  void get(NodeIndex from, const std::string& key,
           std::function<void(std::vector<std::string>)> done);
  void remove(NodeIndex from, const std::string& key, const std::string& value,
              std::function<void(bool)> done);

  // --- introspection ------------------------------------------------------
  std::size_t node_count() const { return nodes_.size(); }
  bool node_alive(NodeIndex node) const { return nodes_[node].alive; }
  std::uint64_t node_ring_id(NodeIndex node) const { return nodes_[node].id; }
  NodeIndex successor_of(NodeIndex node) const;
  /// Number of (key, value) pairs stored at a node (replicas included).
  std::size_t stored_pairs(NodeIndex node) const;
  /// Brute-force owner for a key given current live membership (oracle for
  /// tests; not used by the protocol).
  NodeIndex oracle_owner(const std::string& key) const;
  const RingStats& stats() const { return stats_; }
  const RingConfig& config() const { return config_; }

 private:
  struct Node {
    std::uint64_t id = 0;
    net::HostId host = 0;
    bool alive = true;
    bool joined = false;
    NodeIndex predecessor = kNoNode;
    std::vector<NodeIndex> successors;           // length <= f
    std::vector<NodeIndex> fingers;              // k-ary fingers, flattened
    std::size_t next_finger_to_fix = 0;
    // key-hash -> key -> set of values (multi-valued store)
    std::map<std::uint64_t, std::map<std::string, std::set<std::string>>> store;
  };

  /// Sends a message from one node's host to another, invoking handler at
  /// the destination after transfer + processing delay. If the destination
  /// is dead, on_lost fires after the rpc timeout.
  void send(NodeIndex from, NodeIndex to, std::int64_t payload_bytes,
            std::function<void()> handler, std::function<void()> on_lost);

  void lookup_step(NodeIndex origin, NodeIndex at, std::uint64_t key_hash, int hops,
                   std::uint64_t request_id);
  NodeIndex closest_preceding(const Node& node, std::uint64_t key_hash) const;
  NodeIndex first_live_successor(const Node& node) const;
  void store_pair(Node& node, std::uint64_t key_hash, const std::string& key,
                  const std::string& value);
  void replicate(NodeIndex owner, const std::string& key, const std::string& value);
  void stabilize_node(NodeIndex index);
  void fix_one_finger(NodeIndex index);
  void rebuild_successor_list(NodeIndex index);
  void finish_lookup(std::uint64_t request_id, LookupResult result);

  sim::Simulator& sim_;
  net::Network& net_;
  RingConfig config_;
  std::vector<Node> nodes_;
  RingStats stats_;
  std::vector<std::unique_ptr<sim::PeriodicTimer>> timers_;
  std::unordered_map<std::uint64_t, std::function<void(LookupResult)>> pending_lookups_;
  std::unordered_map<std::uint64_t, sim::EventId> lookup_timeouts_;
  std::uint64_t next_request_id_ = 1;
};

}  // namespace bitdew::dht
