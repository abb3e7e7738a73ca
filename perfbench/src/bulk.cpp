// bulk_transfer: the data plane. A put phase, then a get phase, each with
// 2 concurrent streams through api::Session::put_file / get_file on 64 MiB
// files of seeded random bytes, 256 KiB chunks (the Session default) and DT
// tickets on. Each get is checked for size and MD5 against the input file
// by a third thread, so checking does not slow the streams.
#include <sys/resource.h>
#include <unistd.h>

#include <condition_variable>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "api/bitdew.hpp"
#include "api/remote_service_bus.hpp"
#include "api/service_ops.hpp"
#include "api/session.hpp"
#include "common.hpp"
#include "probes.hpp"

namespace perfbench {
namespace {

using namespace bitdew;
namespace fs = std::filesystem;

constexpr int kStreams = 2;
constexpr std::int64_t kFileBytes = 64 << 20;

/// Gets waiting for their content check.
struct CheckQueue {
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<std::pair<std::string, int>> items;  ///< (path, stream)
  bool closed = false;
};

struct StreamTally {
  Samples put_ms;
  Samples get_ms;
  std::vector<core::Data> stored;
  std::int64_t put_bytes = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string first_failure;

  void fail(const std::string& why) {
    ++failed;
    if (first_failure.empty()) first_failure = why;
  }
};

}  // namespace

Result run_bulk_transfer(const Config& config) {
  Result result;
  Samples setup_s;
  std::unique_ptr<Daemon> daemon;
  std::string inputs[kStreams];
  std::string expected_md5[kStreams];
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
    for (int s = 0; s < kStreams; ++s) {
      inputs[s] = dir + "/input-" + std::to_string(s);
      expected_md5[s] = write_random_file(inputs[s], kFileBytes, config.seed * 31 + s);
    }
    setup_s.add(now_s() - started);
    if (rep + 1 < config.setup_reps) {
      attempt->stop();
      fs::remove_all(dir);
      continue;
    }
    daemon = std::move(attempt);
  }
  if (config.inject_bad_checksum) expected_md5[0][0] = expected_md5[0][0] == '0' ? '1' : '0';
  const std::uint16_t port = daemon->port();
  const std::string out_dir = config.workdir + "/out";
  fs::create_directories(out_dir);

  StreamTally tallies[kStreams];
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

  // Put phase: each stream uploads its input under fresh names until the
  // first half of the run is over.
  const double put_end = started + config.seconds / 2;
  std::vector<std::thread> streams;
  for (int s = 0; s < kStreams; ++s) {
    streams.emplace_back([&, s] {
      api::RemoteServiceBus bus("127.0.0.1", port);
      api::BitDew bitdew(bus, "bulk-" + std::to_string(s));
      api::ActiveData active_data(bus, "bulk-" + std::to_string(s));
      api::Session session(bitdew, active_data);
      StreamTally& tally = tallies[s];
      for (int k = 0; now_s() < put_end; ++k) {
        const std::string name = "bulk-" + std::to_string(config.seed) + "-" +
                                 std::to_string(s) + "-" + std::to_string(k);
        const double t0 = now_s();
        const api::Expected<core::Data> stored = session.put_file(name, inputs[s]);
        const double t1 = now_s();
        ++tally.attempted;
        if (!stored.ok()) {
          tally.fail("put: " + stored.error().to_string());
          continue;
        }
        if (stored->checksum != expected_md5[s] || stored->size != kFileBytes) {
          tally.fail("put: descriptor differs from the input file");
          continue;
        }
        tally.put_ms.add((t1 - t0) * 1e3);
        tally.put_bytes += stored->size;
        tally.stored.push_back(*stored);
      }
    });
  }
  for (std::thread& stream : streams) stream.join();
  streams.clear();
  const double put_wall = now_s() - started;

  // Get phase: each stream downloads its own uploads round-robin; a third
  // thread checks every download against the input's size and MD5.
  CheckQueue queue;
  std::int64_t verified_bytes = 0;
  std::int64_t check_failed = 0;
  std::string check_failure;
  std::thread checker([&] {
    // Lowest priority: the check takes only CPU the streams and the daemon
    // leave idle, and catches up after the phase.
    ::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()), 19);
    std::unique_lock<std::mutex> lock(queue.mutex);
    for (;;) {
      while (queue.items.empty() && !queue.closed) queue.ready.wait(lock);
      if (queue.items.empty()) return;
      const auto [path, s] = queue.items.front();
      queue.items.pop_front();
      lock.unlock();
      const auto [md5, size] = hash_file(path);
      std::error_code ec;
      fs::remove(path, ec);
      lock.lock();
      if (md5 == expected_md5[s] && size == kFileBytes) {
        verified_bytes += size;
      } else {
        ++check_failed;
        if (check_failure.empty()) check_failure = "get: content differs from the input file";
      }
    }
  });
  const double get_start = now_s();
  const double get_end = get_start + config.seconds / 2;
  for (int s = 0; s < kStreams; ++s) {
    streams.emplace_back([&, s] {
      api::RemoteServiceBus bus("127.0.0.1", port);
      api::BitDew bitdew(bus, "bulk-" + std::to_string(s));
      api::ActiveData active_data(bus, "bulk-" + std::to_string(s));
      api::Session session(bitdew, active_data);
      StreamTally& tally = tallies[s];
      if (tally.stored.empty()) return;
      for (std::size_t k = 0; now_s() < get_end; ++k) {
        const core::Data& data = tally.stored[k % tally.stored.size()];
        const std::string path = out_dir + "/get-" + std::to_string(s) + "-" + std::to_string(k);
        const double t0 = now_s();
        const api::Status got = session.get_file(data, path);
        const double t1 = now_s();
        ++tally.attempted;
        if (!got.ok()) {
          tally.fail("get: " + got.error().to_string());
          continue;
        }
        tally.get_ms.add((t1 - t0) * 1e3);
        const std::lock_guard<std::mutex> lock(queue.mutex);
        queue.items.push_back({path, s});
        queue.ready.notify_one();
      }
    });
  }
  for (std::thread& stream : streams) stream.join();
  const double get_wall = now_s() - get_start;
  {
    const std::lock_guard<std::mutex> lock(queue.mutex);
    queue.closed = true;
    queue.ready.notify_one();
  }
  checker.join();
  if (killer.joinable()) killer.join();
  const double wall = now_s() - started;
  const double daemon_cpu = daemon->cpu_s() - cpu_before;
  const double gen_cpu = self_cpu_s() - gen_cpu_before;

  Samples put_ms;
  Samples get_ms;
  std::int64_t put_bytes = 0;
  for (StreamTally& tally : tallies) {
    put_ms.merge(tally.put_ms);
    get_ms.merge(tally.get_ms);
    put_bytes += tally.put_bytes;
    result.attempted += tally.attempted;
    result.failed += tally.failed;
    if (!tally.first_failure.empty()) result.notes["first_failure"] = tally.first_failure;
  }
  result.failed += check_failed;
  if (!check_failure.empty()) result.notes["first_failure"] = check_failure;
  result.correct = result.failed == 0 && result.attempted > 0;
  result.notes["streams"] = std::to_string(kStreams);
  result.notes["file_bytes"] = std::to_string(kFileBytes);
  result.notes["puts"] = std::to_string(put_ms.count());
  result.notes["gets"] = std::to_string(get_ms.count());

  // Throughput over each phase's wall time (1 op = 1 MB). Only verified
  // gets count.
  result.notes["write_p99_ms"] = std::to_string(put_ms.quantile(0.99));
  result.notes["read_p99_ms"] = std::to_string(get_ms.quantile(0.99));
  if (!config.trace) {
    result.metric("setup_s", setup_s.median(), "s");
    result.metric("peak_rss_mb", daemon->running() ? daemon->peak_rss_mb() : 0, "MB");
    result.metric("write_ops_per_s", put_bytes / 1e6 / put_wall, "1/s");
    result.metric("read_ops_per_s", verified_bytes / 1e6 / get_wall, "1/s");
    result.metric("write_p50_ms", put_ms.median(), "ms");
    result.metric("write_p75_ms", put_ms.quantile(0.75), "ms");
    result.metric("read_p50_ms", get_ms.median(), "ms");
    result.metric("read_p75_ms", get_ms.quantile(0.75), "ms");
  } else if (daemon->running()) {
    ProbeContext context;
    context.config = &config;
    context.daemon = daemon.get();
    context.kind = "bulk";
    std::vector<core::Data> stored;
    for (StreamTally& tally : tallies) {
      stored.insert(stored.end(), tally.stored.begin(), tally.stored.end());
    }
    context.preload = [stored](services::ServiceContainer& container, dht::LocalDht&) {
      for (const core::Data& data : stored) api::ops::dc_register(container, data);
    };
    context.live = stored;
    context.row_shape = "stage";
    context.load_wall_s = wall;
    context.daemon_cpu_s = daemon_cpu;
    context.gen_cpu_s = gen_cpu;
    context.work_units = (put_bytes + verified_bytes) / 1e6;
    context.load_read_p50_ms = get_ms.median();
    probe_layers(context, result);
  }
  daemon->stop();
  return result;
}

}  // namespace perfbench
