// SimRuntime: the composition root of the discrete-event deployment.
//
// One stable service host runs the D* ServiceContainer behind a FIFO
// processing queue; volatile nodes (clients and reservoirs, paper §3.1) get
// a SimServiceBus plus the three API objects. Reservoir nodes run the pull
// protocol: a periodic ds_sync heartbeat, downloads of newly assigned data
// through the protocol registry with DT tickets (register / monitor every
// 500 ms / complete-with-checksum, retry-with-resume on failure), and
// deletion of dropped data — firing the ActiveData life-cycle events user
// code installs. The failure injector kills hosts outright, which is how
// the Fig. 4 experiment is driven.
#pragma once

#include <memory>
#include <set>
#include <unordered_map>

#include "api/active_data.hpp"
#include "api/bitdew.hpp"
#include "api/pull_core.hpp"
#include "api/transfer_manager.hpp"
#include "runtime/sim_service_bus.hpp"
#include "transfer/bittorrent.hpp"
#include "transfer/flaky.hpp"
#include "transfer/ftp.hpp"
#include "transfer/http.hpp"

namespace bitdew::runtime {

class SimRuntime;

struct SimRuntimeConfig {
  services::SchedulerConfig scheduler;   ///< heartbeat 1 s, timeout 3x (paper)
  double dt_monitor_period_s = services::kMonitorPeriodS;  ///< DT transfer monitoring
  double failure_detect_period_s = 1.0;  ///< DS failure-detector sweep
  double service_time_s = 500e-6;        ///< per-RPC service processing
  int max_transfer_attempts = 3;
  transfer::FtpConfig ftp;
  transfer::HttpConfig http;
  transfer::BtConfig bt;
  /// Failure injection on the point-to-point protocols (ftp/http): dropped
  /// or corrupted transfers exercise DT's retry/resume/checksum paths.
  transfer::FlakyConfig flaky;
};

/// One volatile node: the API objects plus the reservoir cache machinery.
class SimNode {
 public:
  SimNode(SimRuntime& runtime, net::HostId host);

  api::BitDew& bitdew() { return bitdew_; }
  api::ActiveData& active_data() { return active_data_; }
  api::TransferManager& transfer_manager() { return tm_; }
  SimServiceBus& bus() { return bus_; }

  /// Starts the periodic cache synchronization (reservoir role).
  void start_reservoir();
  void stop();
  /// Restarts a stopped node's heartbeat (the rejoin half of a churn
  /// storm). The pull state survives the outage — the sim analogue of the
  /// live tier's WAL-restored cache — so the first beat is a stale-epoch
  /// delta that the scheduler answers with a resync order, exercising the
  /// revival path of sync protocol v2.
  void restart();

  net::HostId host() const { return host_; }
  const std::string& name() const;
  bool has(const util::Auid& uid) const { return core_.has(uid); }
  const std::set<util::Auid>& cache() const { return core_.cache(); }
  /// Seconds between a datum being assigned and its download completing,
  /// for the most recent completed download (Fig. 4's instrumentation).
  double last_download_duration() const { return last_download_duration_; }
  double last_download_rate() const { return last_download_rate_; }

  /// Seeds the local cache without a transfer (data born on this node).
  /// With `fire_event`, dispatches on_data_copy locally — a locally
  /// produced replica "arrives" too (the master-computes-a-task case).
  void adopt_local(const core::Data& data, const core::DataAttributes& attributes = {},
                   bool fire_event = false);

 private:
  friend class SimRuntime;

  void do_sync();
  void apply_reply(const services::SyncReply& reply);
  void start_download(const services::ScheduledData& item);
  void attempt_fetch(const services::ScheduledData& item, services::TicketId ticket,
                     int attempt, std::int64_t offset);
  void attempt_fetch_with_source(const services::ScheduledData& item,
                                 services::TicketId ticket, const core::Locator& source,
                                 const std::string& protocol_name, int attempt,
                                 std::int64_t offset);
  void download_succeeded(const services::ScheduledData& item, double assigned_at);
  void download_failed(const services::ScheduledData& item, const api::Error& why);

  SimRuntime& runtime_;
  net::HostId host_;
  SimServiceBus bus_;
  api::BitDew bitdew_;
  api::ActiveData active_data_;
  api::TransferManager tm_;
  api::PullCore core_;  ///< shared reservoir pull state (also NodeRuntime's)
  sim::PeriodicTimer sync_timer_;
  bool reservoir_ = false;
  bool stopped_ = false;
  double last_assigned_at_ = 0;
  double last_download_duration_ = 0;
  double last_download_rate_ = 0;
};

class SimRuntime {
 public:
  SimRuntime(sim::Simulator& sim, net::Network& net, net::HostId service_host,
             SimRuntimeConfig config = {});

  /// Adds a volatile node; reservoirs start syncing immediately.
  SimNode& add_node(net::HostId host, bool reservoir = true);

  /// Builds a DHT ring over the given hosts and routes the DDC through it.
  void enable_ddc(const std::vector<net::HostId>& ring_hosts, dht::RingConfig config = {});

  /// Kills a volatile host: flows fail, timers stop, the scheduler's
  /// heartbeat timeout will declare it dead.
  void kill_node(net::HostId host);

  /// Revives a killed volatile host and restarts its reservoir heartbeat
  /// (rejoin-with-cache; see SimNode::restart for the protocol flow).
  void revive_node(net::HostId host);

  services::ServiceContainer& container() { return container_; }
  ServiceQueue& service_queue() { return queue_; }
  sim::Simulator& simulator() { return sim_; }
  net::Network& network() { return net_; }
  net::HostId service_host() const { return service_host_; }
  const SimRuntimeConfig& config() const { return config_; }
  transfer::Protocol* protocol(const std::string& name) const {
    return protocols_.find(name);
  }
  transfer::BtProtocol& bittorrent() { return *bt_; }
  dht::Ring* ring() { return ring_.get(); }
  SimNode* node_at(net::HostId host);
  net::HostId host_by_name(const std::string& name) const;
  std::uint64_t total_rpcs() const;
  dht::LocalDht& fallback_ddc_for_bus() { return fallback_ddc_; }

 private:
  sim::Simulator& sim_;
  net::Network& net_;
  net::HostId service_host_;
  SimRuntimeConfig config_;
  services::ServiceContainer container_;
  ServiceQueue queue_;
  dht::LocalDht fallback_ddc_;
  transfer::ProtocolRegistry protocols_;
  transfer::BtProtocol* bt_ = nullptr;  // owned by protocols_
  std::vector<std::unique_ptr<SimNode>> nodes_;
  std::unordered_map<net::HostId, SimNode*> by_host_;
  std::unordered_map<std::string, net::HostId> host_names_;
  std::unique_ptr<dht::Ring> ring_;
  std::unordered_map<net::HostId, dht::NodeIndex> ring_nodes_;
  sim::PeriodicTimer failure_detector_;
};

}  // namespace bitdew::runtime
