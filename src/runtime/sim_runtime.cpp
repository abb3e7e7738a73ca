#include "runtime/sim_runtime.hpp"

#include "util/log.hpp"

namespace bitdew::runtime {
namespace {

const util::Logger& logger() {
  static const util::Logger instance("runtime");
  return instance;
}

}  // namespace

// --- SimNode ---------------------------------------------------------------

SimNode::SimNode(SimRuntime& runtime, net::HostId host)
    : runtime_(runtime),
      host_(host),
      bus_(runtime.simulator(), runtime.network(), host, runtime.service_host(),
           runtime.container(), runtime.service_queue(), runtime.fallback_ddc_for_bus()),
      bitdew_(bus_, runtime.network().host_name(host)),
      active_data_(bus_, runtime.network().host_name(host)),
      tm_(),
      core_(active_data_) {}

const std::string& SimNode::name() const { return runtime_.network().host_name(host_); }

void SimNode::adopt_local(const core::Data& data, const core::DataAttributes& attributes,
                          bool fire_event) {
  core_.adopt_local(data, attributes, fire_event);
}

void SimNode::start_reservoir() {
  if (reservoir_) return;
  reservoir_ = true;
  const double period = runtime_.config().scheduler.heartbeat_period_s;
  // Stagger the first sync so hosts do not thunder in lockstep.
  runtime_.simulator().after(
      runtime_.simulator().rng().uniform(0, period), [this, period] {
        if (stopped_) return;
        do_sync();
        sync_timer_.start(runtime_.simulator(), period, [this] { do_sync(); });
      });
}

void SimNode::stop() {
  stopped_ = true;
  sync_timer_.stop();
}

void SimNode::restart() {
  if (!stopped_) return;
  stopped_ = false;
  if (reservoir_) {
    reservoir_ = false;  // re-arm start_reservoir's idempotence guard
    start_reservoir();
  }
}

void SimNode::do_sync() {
  if (stopped_ || !runtime_.network().alive(host_)) return;
  logger().trace("[%.2f] %s: sync (cache=%zu, inflight=%zu)", runtime_.simulator().now(),
                 name().c_str(), core_.cache().size(), core_.downloading_set().size());
  // Sync protocol v2: deltas since the last acked beat. The sim node is
  // single-threaded, so the build/ack pair brackets one bus callback.
  const api::PullCore::SyncDelta delta = core_.build_sync();
  services::SyncRequest request;
  request.host = name();
  request.epoch = delta.epoch;
  request.full = delta.full;
  request.added = delta.added;
  request.removed = delta.removed;
  request.in_flight = core_.downloading_list();
  // Sim nodes announce no chunk-server endpoint: the simulated swarm moves
  // through the modeled protocols (bittorrent.*), not the live peer plane.
  bus_.ds_sync(request, [this, delta](api::Expected<services::SyncReply> reply) {
    if (stopped_ || !reply.ok()) return;  // lost sync: next beat retries
    if (reply->resync) {
      // Scheduler cannot trust the delta (restart / declared-dead revival):
      // fall back to a full report right away. A full request is always
      // accepted, so this cannot loop.
      core_.force_resync();
      do_sync();
      return;
    }
    core_.ack_sync(delta, reply->epoch);
    apply_reply(*reply);
  });
}

void SimNode::apply_reply(const services::SyncReply& reply) {
  // Δk \ Ψk: safe to delete (PullCore fires on_data_delete).
  core_.apply_drops(reply);
  // Ψk \ Δk: download newly assigned data.
  for (const services::ScheduledData& item : reply.download) {
    start_download(item);
  }
}

void SimNode::start_download(const services::ScheduledData& item) {
  // kInstant adopted a zero-size datum without a transfer; kAlreadyHeld is
  // a duplicate assignment. Only kStarted needs the protocol machinery.
  if (core_.begin_download(item) != api::PullCore::Admission::kStarted) return;
  logger().debug("%s: downloading %s (%s)", name().c_str(), item.data.name.c_str(),
                 item.attributes.protocol.c_str());

  tm_.admit([this, item] {
    tm_.begin(item.data.uid);
    const double assigned_at = runtime_.simulator().now();
    // Protocol setup, as in the paper's overhead experiment: locate the
    // source (DC), then register the transfer (DT), then go out-of-band.
    bus_.dc_locators(item.data.uid, [this, item, assigned_at](
                                        api::Expected<std::vector<core::Locator>> reply) {
      if (stopped_) return;
      if (!reply.ok() || reply->empty()) {
        // Nothing serves this datum yet (e.g. producer still uploading):
        // fail this round; the next sync retries.
        download_failed(item, reply.ok()
                                  ? api::Error{api::Errc::kUnavailable, "dc", "no locators"}
                                  : reply.error());
        return;
      }
      const std::vector<core::Locator>& locators = *reply;
      // Prefer a locator matching the requested protocol.
      core::Locator chosen = locators.front();
      for (const core::Locator& locator : locators) {
        if (locator.protocol == item.attributes.protocol) {
          chosen = locator;
          break;
        }
      }
      const std::string protocol_name = item.attributes.protocol.empty()
                                            ? chosen.protocol
                                            : item.attributes.protocol;
      logger().trace("%s: %s locator %s via %s", name().c_str(), item.data.name.c_str(),
                     chosen.url().c_str(), protocol_name.c_str());
      bus_.dt_register(
          item.data, chosen.host, name(), protocol_name,
          [this, item, chosen, protocol_name,
           assigned_at](api::Expected<services::TicketId> ticket) {
            if (stopped_) return;
            if (!ticket.ok()) {
              download_failed(item, ticket.error());
              return;
            }
            last_assigned_at_ = assigned_at;
            attempt_fetch_with_source(item, *ticket, chosen, protocol_name, 1, 0);
          });
    });
  });
}

void SimNode::attempt_fetch(const services::ScheduledData& item, services::TicketId ticket,
                            int attempt, std::int64_t offset) {
  // Re-resolve the locator on retries (the original source may be gone).
  bus_.dc_locators(item.data.uid,
                   [this, item, ticket, attempt,
                    offset](api::Expected<std::vector<core::Locator>> reply) {
                     if (stopped_) return;
                     if (!reply.ok() || reply->empty()) {
                       download_failed(
                           item, reply.ok() ? api::Error{api::Errc::kUnavailable, "dc",
                                                         "no locators"}
                                            : reply.error());
                       return;
                     }
                     const std::vector<core::Locator>& locators = *reply;
                     core::Locator chosen = locators.front();
                     for (const core::Locator& locator : locators) {
                       if (locator.protocol == item.attributes.protocol) {
                         chosen = locator;
                         break;
                       }
                     }
                     const std::string protocol_name = item.attributes.protocol.empty()
                                                           ? chosen.protocol
                                                           : item.attributes.protocol;
                     attempt_fetch_with_source(item, ticket, chosen, protocol_name, attempt,
                                               offset);
                   });
}

void SimNode::attempt_fetch_with_source(const services::ScheduledData& item,
                                        services::TicketId ticket, const core::Locator& source,
                                        const std::string& protocol_name, int attempt,
                                        std::int64_t offset) {
  transfer::Protocol* protocol = runtime_.protocol(protocol_name);
  if (protocol == nullptr) protocol = runtime_.protocol("ftp");

  transfer::TransferJob job;
  job.data = item.data;
  job.source = runtime_.host_by_name(source.host);
  job.destination = host_;
  job.offset = offset;

  if (job.source == net::kNoHost) {
    download_failed(item,
                    api::Error{api::Errc::kNotFound, "net", "unknown source host " + source.host});
    return;
  }

  // Receiver-driven monitoring: poll DT while the transfer runs.
  auto monitor = std::make_shared<sim::PeriodicTimer>();
  monitor->start(runtime_.simulator(), runtime_.config().dt_monitor_period_s,
                 [this, ticket, offset] {
                   if (!stopped_) bus_.dt_monitor(ticket, offset, [](api::Status) {});
                 });

  logger().trace("%s: fetch %s attempt %d offset %lld", name().c_str(),
                 item.data.name.c_str(), attempt, static_cast<long long>(offset));
  protocol->start(job, [this, item, ticket, attempt, offset, monitor,
                        protocol](const transfer::TransferOutcome& outcome) {
    monitor->stop();
    logger().trace("%s: fetch %s outcome ok=%d", name().c_str(), item.data.name.c_str(),
                   outcome.ok ? 1 : 0);
    if (stopped_ || !runtime_.network().alive(host_)) return;

    if (outcome.ok) {
      bus_.dt_complete(ticket, outcome.checksum, item.data.checksum,
                       [this, item, ticket, attempt, offset](api::Status verified) {
                         if (stopped_) return;
                         if (verified.ok()) {
                           download_succeeded(item, last_assigned_at_);
                         } else if (attempt < runtime_.config().max_transfer_attempts) {
                           attempt_fetch(item, ticket, attempt + 1, 0);
                         } else {
                           bus_.dt_give_up(ticket, [](api::Status) {});
                           download_failed(item, verified.error());
                         }
                       });
      return;
    }

    const bool can_resume = protocol->supports_resume();
    const std::int64_t held = offset + (can_resume ? outcome.bytes_transferred : 0);
    bus_.dt_failure(ticket, held, can_resume, [](api::Status) {});
    if (attempt < runtime_.config().max_transfer_attempts) {
      attempt_fetch(item, ticket, attempt + 1, can_resume ? held : 0);
    } else {
      bus_.dt_give_up(ticket, [](api::Status) {});
      download_failed(item,
                      api::Error{api::Errc::kTransport, "dt", "transfer attempts exhausted"});
    }
  });
}

void SimNode::download_succeeded(const services::ScheduledData& item, double assigned_at) {
  const util::Auid uid = item.data.uid;
  last_download_duration_ = runtime_.simulator().now() - assigned_at;
  last_download_rate_ = last_download_duration_ > 0
                            ? static_cast<double>(item.data.size) / last_download_duration_
                            : 0;
  core_.complete_download(uid);  // fires on_data_copy
  tm_.finish(uid, api::ok_status());
  // Publish the replica location in the distributed catalog (paper §3.4.1).
  bus_.ddc_publish(uid.str(), name(), [](api::Status) {});
}

void SimNode::download_failed(const services::ScheduledData& item, const api::Error& why) {
  const util::Auid uid = item.data.uid;
  core_.fail_download(uid);
  tm_.finish(uid, api::Status(why));
  logger().debug("%s: download of %s failed: %s", name().c_str(), item.data.name.c_str(),
                 why.to_string().c_str());
}

// --- SimRuntime ------------------------------------------------------------------

SimRuntime::SimRuntime(sim::Simulator& sim, net::Network& net, net::HostId service_host,
                       SimRuntimeConfig config)
    : sim_(sim),
      net_(net),
      service_host_(service_host),
      config_(config),
      container_(net.host_name(service_host), sim, config.scheduler),
      queue_(sim, config.service_time_s) {
  const bool inject = config_.flaky.fail_probability > 0 ||
                      config_.flaky.corrupt_probability > 0;
  auto maybe_flaky = [&](std::unique_ptr<transfer::Protocol> inner)
      -> std::unique_ptr<transfer::Protocol> {
    if (!inject) return inner;
    return std::make_unique<transfer::FlakyProtocol>(std::move(inner), sim_, config_.flaky);
  };
  protocols_.add(maybe_flaky(std::make_unique<transfer::FtpProtocol>(sim_, net_, config_.ftp)));
  protocols_.add(maybe_flaky(std::make_unique<transfer::HttpProtocol>(sim_, net_, config_.http)));
  auto bt = std::make_unique<transfer::BtProtocol>(sim_, net_, config_.bt);
  bt_ = bt.get();
  protocols_.add(std::move(bt));
  host_names_[net_.host_name(service_host)] = service_host;

  failure_detector_.start(sim_, config_.failure_detect_period_s,
                          [this] { container_.ds().detect_failures(); });
}

SimNode& SimRuntime::add_node(net::HostId host, bool reservoir) {
  auto node = std::make_unique<SimNode>(*this, host);
  SimNode& ref = *node;
  by_host_[host] = node.get();
  host_names_[net_.host_name(host)] = host;
  nodes_.push_back(std::move(node));
  if (ring_ && !ring_nodes_.contains(host)) {
    // Late nodes join the ring through its first node.
    const dht::NodeIndex index = ring_->add_node(host);
    ring_nodes_[host] = index;
    ring_->join(index, 0, [](bool) {});
  }
  if (ring_ && ring_nodes_.contains(host)) {
    ref.bus().attach_ring(ring_.get(), ring_nodes_[host]);
  }
  if (reservoir) ref.start_reservoir();
  return ref;
}

void SimRuntime::enable_ddc(const std::vector<net::HostId>& ring_hosts,
                            dht::RingConfig config) {
  ring_ = std::make_unique<dht::Ring>(sim_, net_, config);
  for (const net::HostId host : ring_hosts) {
    ring_nodes_[host] = ring_->add_node(host);
  }
  ring_->bootstrap_all();
  ring_->start_maintenance();
  for (const auto& node : nodes_) {
    const auto it = ring_nodes_.find(node->host());
    if (it != ring_nodes_.end()) node->bus().attach_ring(ring_.get(), it->second);
  }
}

void SimRuntime::kill_node(net::HostId host) {
  net_.kill_host(host);
  bt_->on_host_failed(host);
  const auto it = by_host_.find(host);
  if (it != by_host_.end()) it->second->stop();
  if (ring_) {
    const auto ring_it = ring_nodes_.find(host);
    if (ring_it != ring_nodes_.end()) ring_->fail(ring_it->second);
  }
  logger().debug("killed host %s", net_.host_name(host).c_str());
}

void SimRuntime::revive_node(net::HostId host) {
  net_.revive_host(host);
  const auto it = by_host_.find(host);
  if (it != by_host_.end()) it->second->restart();
  logger().debug("revived host %s", net_.host_name(host).c_str());
}

SimNode* SimRuntime::node_at(net::HostId host) {
  const auto it = by_host_.find(host);
  return it != by_host_.end() ? it->second : nullptr;
}

net::HostId SimRuntime::host_by_name(const std::string& name) const {
  const auto it = host_names_.find(name);
  return it != host_names_.end() ? it->second : net::kNoHost;
}

std::uint64_t SimRuntime::total_rpcs() const {
  std::uint64_t total = 0;
  for (const auto& node : nodes_) total += node->bus().rpc_count();
  return total;
}

}  // namespace bitdew::runtime
