// fleet_sync: the scheduler at fleet scale. One process emulates H = 1000
// hosts as api::PullCore state machines (no thread per host) against
// D = 16 zero-size broadcast datums, over 2 pipelined connections.
//
// The run is five cycles. Each spends 80 % of its time in an open loop and
// then runs two short closed-loop bursts. In the open loop each host beats
// every second at a seeded phase, about 1000 beats/s, and each beat is
// timed from its due time. Counted in open-loop seconds (the clock stops
// during bursts), the phases are: join (the first second: full reports
// plus download orders), steady (empty deltas), and rejoin waves from the
// third second on, every other second. Each wave restarts the next quarter
// of the hosts, in turn, with their caches (a fresh PullCore at epoch 0, so
// each sends a full resync). In the bursts the hosts beat round-robin
// as fast as the pipelines carry the replies: first each beat a full
// resync, then each an empty delta. Throughput is the 75th percentile of
// the burst rates, so a slow spell of a shared machine moves the bursts it
// covers, not the metric.
#include <algorithm>
#include <barrier>
#include <filesystem>
#include <functional>
#include <memory>
#include <numeric>
#include <queue>
#include <thread>

#include "api/bitdew.hpp"
#include "api/pull_core.hpp"
#include "api/remote_service_bus.hpp"
#include "api/service_ops.hpp"
#include "api/session.hpp"
#include "common.hpp"
#include "probes.hpp"
#include "util/auid.hpp"

namespace perfbench {
namespace {

using namespace bitdew;
namespace fs = std::filesystem;

constexpr int kHosts = 1000;
constexpr int kData = 16;
constexpr int kThreads = 2;
constexpr int kDepth = 8;
constexpr double kPeriod = 1.0;
constexpr double kFirstWave = 3.0;  ///< open-loop seconds
constexpr double kWaveEvery = 2.0;
constexpr int kWaves = 4;  ///< each restarts a quarter of the hosts, in turn
constexpr int kCycles = 5;
constexpr double kBurstShare = 0.1;  ///< of the run, per kind of burst

struct Host {
  std::string name;
  double phase = 0;
  /// Open-loop second of this host's next restart (at the first beat after
  /// it); each restart schedules the next one kWaves waves later.
  double rejoin_at = 0;
  std::unique_ptr<api::PullCore> core;
};

struct Tally {
  WindowedSamples full_ms{kWaveEvery};  ///< one window per join/rejoin wave
  WindowedSamples delta_ms{1.0};
  Samples late_ms;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t nonempty_deltas = 0;
  std::string first_failure;

  void fail(const std::string& why) {
    ++failed;
    if (first_failure.empty()) first_failure = why;
  }
};

struct Beat {
  double due;
  int host;
  bool operator>(const Beat& other) const { return due > other.due; }
};

/// The data every host must end up holding: zero-size, replica = all.
std::vector<services::ScheduledData> make_data(std::uint64_t seed) {
  util::reseed_auid(seed ^ 0xf1ee7);
  std::vector<services::ScheduledData> out;
  const core::Content empty = core::synthetic_content(0, 0);
  for (int d = 0; d < kData; ++d) {
    services::ScheduledData item;
    item.data.uid = util::next_auid();
    item.data.name = "fleet-" + std::to_string(seed) + "-" + std::to_string(d);
    item.data.size = 0;
    item.data.checksum = empty.checksum;
    item.attributes.replica = core::kReplicaAll;
    out.push_back(item);
  }
  return out;
}

services::SyncRequest sync_request(const Host& host, const api::PullCore::SyncDelta& delta) {
  services::SyncRequest request;
  request.host = host.name;
  request.epoch = delta.epoch;
  request.full = delta.full;
  request.added = delta.added;
  request.removed = delta.removed;
  request.in_flight = host.core->downloading_list();
  return request;
}

/// Applies a sync reply to the host that sent `delta`; true when the
/// scheduler accepted the beat.
bool accept(api::PullCore& core, const api::PullCore::SyncDelta& delta,
            const api::Expected<services::SyncReply>& reply, Tally& tally) {
  ++tally.attempted;
  if (!reply.ok()) {
    tally.fail("ds_sync: " + reply.error().to_string());
    return false;
  }
  if (reply->resync) {
    core.force_resync();  // the host's next scheduled beat is the full report
    return false;
  }
  core.ack_sync(delta, reply->epoch);
  core.apply_drops(*reply);
  for (const services::ScheduledData& item : reply->download) {
    if (core.begin_download(item) == api::PullCore::Admission::kStarted) {
      tally.fail("ds_sync: download order for a datum with content");
    }
  }
  return true;
}

using Schedule = std::priority_queue<Beat, std::vector<Beat>, std::greater<>>;

/// One generator thread's open loop over its hosts' beat schedule, from
/// where `due` stands until open-loop second `end`. Open-loop second s is
/// wall time `base + s`: the clock stops while the bursts run.
void drive(std::vector<Host>& hosts, api::RemoteServiceBus& bus, Schedule& due, double base,
           double end, api::ActiveData& events, Tally& tally) {
  while (!due.empty()) {
    const Beat next = due.top();
    if (next.due >= end) break;
    const double at = base + next.due;
    const double now = now_s();
    if (at > now) {
      if (bus.in_flight() > 0) {
        bus.pump();
      } else {
        sleep_until_s(at);
      }
      continue;
    }
    due.pop();
    due.push({next.due + kPeriod, next.host});
    Host& host = hosts[next.host];
    if (next.due >= host.rejoin_at) {
      // Restart with the cache kept: a fresh PullCore adopts the replicas
      // and has no epoch, so its next sync is full.
      auto fresh = std::make_unique<api::PullCore>(events);
      for (const util::Auid& uid : host.core->cache()) {
        const auto info = host.core->info(uid);
        if (info.has_value()) fresh->adopt_local(info->data, info->attributes, false);
      }
      host.core = std::move(fresh);
      host.rejoin_at += kWaves * kWaveEvery;
    }
    const api::PullCore::SyncDelta delta = host.core->build_sync();
    const bool empty_delta = !delta.full && delta.added.empty() && delta.removed.empty();
    tally.late_ms.add((now - at) * 1e3);
    const double second = next.due;
    const int index = next.host;
    bus.ds_sync(sync_request(host, delta), [&, delta, empty_delta, at, second,
                                            index](api::Expected<services::SyncReply> reply) {
      const double ms = (now_s() - at) * 1e3;
      if (!accept(*hosts[index].core, delta, reply, tally)) return;
      if (delta.full) {
        tally.full_ms.add(second, ms);
      } else if (empty_delta) {
        tally.delta_ms.add(second, ms);
      } else {
        ++tally.nonempty_deltas;
      }
    });
  }
  bus.drain();
}

/// One generator thread's closed loop until `end`: its hosts beat
/// round-robin as fast as the pipeline carries them, each beat a full
/// resync when `full`. Returns the beats the scheduler accepted.
std::int64_t saturate(std::vector<Host>& hosts, int thread, api::RemoteServiceBus& bus,
                      double end, bool full, Tally& tally) {
  // A host comes round again only after kHosts / kThreads > kDepth other
  // beats, so it never has two beats in flight.
  std::int64_t accepted = 0;
  for (int h = thread; now_s() < end; h = h + kThreads < kHosts ? h + kThreads : thread) {
    if (full) hosts[h].core->force_resync();
    const api::PullCore::SyncDelta delta = hosts[h].core->build_sync();
    bus.ds_sync(sync_request(hosts[h], delta),
                [&, delta, h](api::Expected<services::SyncReply> reply) {
                  if (accept(*hosts[h].core, delta, reply, tally)) ++accepted;
                });
  }
  bus.drain();
  return accepted;
}

void on_threads(const std::function<void(int)>& body) {
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) workers.emplace_back(body, t);
  for (std::thread& worker : workers) worker.join();
}

}  // namespace

Result run_fleet_sync(const Config& config) {
  const double open_s = config.seconds * (1 - 2 * kBurstShare) / kCycles;  ///< per cycle
  const double burst_s = config.seconds * kBurstShare / kCycles;
  Result result;
  Samples setup_s;
  std::unique_ptr<Daemon> daemon;
  std::vector<services::ScheduledData> data;
  std::vector<Host> hosts;
  std::int64_t setup_failed = 0;
  std::unique_ptr<api::RemoteServiceBus> control;
  std::unique_ptr<api::ActiveData> events;
  for (int rep = 0; rep < config.setup_reps; ++rep) {
    const double started = now_s();
    const std::string dir = config.workdir + "/setup" + std::to_string(rep);
    fs::create_directories(dir);
    auto attempt = std::make_unique<Daemon>();
    if (!attempt->start(config.daemon, {"--port", "0", "--loopback", "--wal", dir + "/wal"},
                        dir)) {
      std::fprintf(stderr, "perfgen: daemon failed to start\n");
      std::exit(1);
    }
    data = make_data(config.seed);
    auto bus = std::make_unique<api::RemoteServiceBus>("127.0.0.1", attempt->port());
    auto active_data = std::make_unique<api::ActiveData>(*bus, "fleet");
    std::vector<core::Data> slots;
    for (const auto& item : data) slots.push_back(item.data);
    setup_failed = 0;
    bus->dc_register_batch(slots, [&](api::BatchStatus statuses) {
      for (const api::Status& status : statuses) setup_failed += status.ok() ? 0 : 1;
    });
    active_data->schedule_batch(data, [&](api::BatchStatus statuses) {
      for (const api::Status& status : statuses) setup_failed += status.ok() ? 0 : 1;
    });
    util::Rng rng(config.seed * 6151 + 3);
    hosts.clear();
    hosts.resize(kHosts);
    std::vector<int> order(kHosts);
    std::iota(order.begin(), order.end(), 0);
    for (int h = 0; h < kHosts; ++h) {
      hosts[h].name = "host-" + std::to_string(h);
      hosts[h].phase = rng.uniform() * kPeriod;
      hosts[h].core = std::make_unique<api::PullCore>(*active_data);
      std::swap(order[h], order[h + rng.below(kHosts - h)]);
    }
    for (int wave = 0; wave < kWaves; ++wave) {
      for (int i = 0; i < kHosts / kWaves; ++i) {
        hosts[order[wave * (kHosts / kWaves) + i]].rejoin_at = kFirstWave + wave * kWaveEvery;
      }
    }
    setup_s.add(now_s() - started);
    if (rep + 1 < config.setup_reps) {
      hosts.clear();
      active_data.reset();
      bus.reset();
      attempt->stop();
      fs::remove_all(dir);
      continue;
    }
    daemon = std::move(attempt);
    control = std::move(bus);
    events = std::move(active_data);
  }

  Tally tallies[kThreads];
  std::vector<std::unique_ptr<api::RemoteServiceBus>> buses;
  for (int t = 0; t < kThreads; ++t) {
    buses.push_back(std::make_unique<api::RemoteServiceBus>("127.0.0.1", daemon->port()));
    buses.back()->set_pipeline_depth(kDepth);
  }
  // Both threads cross each phase boundary together; `marks` holds the wall
  // time of every crossing: the start, then per cycle the ends of its open
  // loop, its full burst and its delta burst.
  std::vector<double> marks;
  marks.reserve(1 + 3 * kCycles);
  std::barrier crossing(kThreads, [&marks]() noexcept { marks.push_back(now_s()); });
  // Beats accepted per burst kind (0 full resyncs, 1 empty deltas), cycle
  // and thread.
  std::int64_t accepted[2][kCycles][kThreads] = {};
  const double cpu_before = daemon->cpu_s();
  const double gen_cpu_before = self_cpu_s();
  const double started = now_s();
  std::thread killer;
  if (config.inject_kill) {
    killer = std::thread([&] {
      sleep_until_s(started + config.seconds / 4);
      daemon->kill_now();
    });
  }
  on_threads([&](int t) {
    Schedule due;
    for (int h = t; h < kHosts; h += kThreads) due.push({hosts[h].phase, h});
    crossing.arrive_and_wait();
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      drive(hosts, *buses[t], due, marks.back() - cycle * open_s, (cycle + 1) * open_s, *events,
            tallies[t]);
      for (int kind = 0; kind < 2; ++kind) {
        crossing.arrive_and_wait();
        accepted[kind][cycle][t] = saturate(hosts, t, *buses[t], marks.back() + burst_s,
                                            /*full=*/kind == 0, tallies[t]);
      }
      crossing.arrive_and_wait();
    }
  });
  if (killer.joinable()) killer.join();
  const double wall = now_s() - started;
  const double daemon_cpu = daemon->cpu_s() - cpu_before;
  const double gen_cpu = self_cpu_s() - gen_cpu_before;
  buses.clear();
  Samples beats_per_s[2];
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    for (int kind = 0; kind < 2; ++kind) {
      std::int64_t beats = 0;
      for (int t = 0; t < kThreads; ++t) beats += accepted[kind][cycle][t];
      const std::size_t at = 1 + 3 * static_cast<std::size_t>(cycle) + kind;
      beats_per_s[kind].add(beats / (marks[at + 1] - marks[at]));
    }
  }

  Tally total;
  for (Tally& tally : tallies) {
    total.full_ms.merge(tally.full_ms);
    total.delta_ms.merge(tally.delta_ms);
    total.late_ms.merge(tally.late_ms);
    total.attempted += tally.attempted;
    total.failed += tally.failed;
    total.nonempty_deltas += tally.nonempty_deltas;
    if (total.first_failure.empty()) total.first_failure = tally.first_failure;
  }

  // End state: every host holds the D datums, and the scheduler lists H
  // live hosts each with D cached. Hosts with unsent changes (a resync
  // asked for late in the run) beat once more first, untimed.
  if (daemon->running()) {
    for (int round = 0; round < 2; ++round) {
      for (Host& host : hosts) {
        const api::PullCore::SyncDelta delta = host.core->build_sync();
        if (!delta.full && delta.added.empty() && delta.removed.empty()) continue;
        control->ds_sync(sync_request(host, delta),
                         [&](api::Expected<services::SyncReply> reply) {
                           if (!reply.ok() || reply->resync) return;
                           host.core->ack_sync(delta, reply->epoch);
                           for (const services::ScheduledData& item : reply->download) {
                             host.core->begin_download(item);
                           }
                         });
      }
    }
  }
  for (const Host& host : hosts) {
    ++total.attempted;
    if (host.core->cache().size() != static_cast<std::size_t>(kData)) total.fail("host cache");
  }
  if (daemon->running()) {
    ++total.attempted;
    control->ds_hosts([&](api::Expected<std::vector<services::HostInfo>> table) {
      if (!table.ok()) {
        total.fail("ds_hosts: " + table.error().to_string());
        return;
      }
      int good = 0;
      for (const services::HostInfo& info : *table) {
        if (info.alive && info.cached == static_cast<std::uint32_t>(kData)) ++good;
      }
      if (good != kHosts || table->size() != static_cast<std::size_t>(kHosts)) {
        total.fail("ds_hosts: " + std::to_string(good) + " of " + std::to_string(table->size()) +
                   " hosts alive with every datum");
      }
    });
  }

  result.attempted = total.attempted;
  result.failed = total.failed + setup_failed;
  result.correct = result.failed == 0;
  if (!total.first_failure.empty()) result.notes["first_failure"] = total.first_failure;
  result.notes["hosts"] = std::to_string(kHosts);
  result.notes["full_beats"] = std::to_string(total.full_ms.count());
  result.notes["delta_beats"] = std::to_string(total.delta_ms.count());
  result.notes["gen_late_p99_ms"] = std::to_string(total.late_ms.quantile(0.99));
  result.notes["full_sync_p99_ms"] = std::to_string(total.full_ms.quantile(0.99));
  result.notes["delta_sync_p99_ms"] = std::to_string(total.delta_ms.quantile(0.99));

  if (!config.trace) {
    result.metric("setup_s", setup_s.median(), "s");
    result.metric("peak_rss_mb", daemon->running() ? daemon->peak_rss_mb() : 0, "MB");
    result.metric("write_ops_per_s", beats_per_s[0].quantile(0.75), "1/s");
    result.metric("read_ops_per_s", beats_per_s[1].quantile(0.75), "1/s");
    result.metric("write_p50_ms", total.full_ms.median(), "ms");
    result.metric("write_p75_ms", total.full_ms.quantile(0.75), "ms");
    result.metric("read_p50_ms", total.delta_ms.median(), "ms");
    result.metric("read_p75_ms", total.delta_ms.quantile(0.75), "ms");
  } else if (daemon->running()) {
    ProbeContext context;
    context.config = &config;
    context.daemon = daemon.get();
    context.kind = "fleet";
    for (const auto& item : data) context.live.push_back(item.data);
    context.preload = [data](services::ServiceContainer& container, dht::LocalDht&) {
      std::vector<core::Data> slots;
      for (const auto& item : data) slots.push_back(item.data);
      api::ops::dc_register_batch(container, slots);
      api::ops::ds_schedule_batch(container, data);
      std::vector<util::Auid> cache;
      for (const auto& item : data) cache.push_back(item.data.uid);
      for (int h = 0; h < kHosts; ++h) {
        services::SyncRequest request;
        request.host = "host-" + std::to_string(h);
        request.added = cache;
        api::ops::ds_sync(container, request);
      }
    };
    context.row_shape = "theta";
    context.load_wall_s = wall;
    context.daemon_cpu_s = daemon_cpu;
    context.gen_cpu_s = gen_cpu;
    context.work_units = static_cast<double>(total.attempted);
    context.late_p99_ms = total.late_ms.quantile(0.99);
    context.load_read_p50_ms = total.delta_ms.median();
    probe_layers(context, result);
  }
  control.reset();
  daemon->stop();
  return result;
}

}  // namespace perfbench
