// catalog_mix: a closed loop of small catalog frames.
//
// The catalog is preloaded with 100k datums (one locator each) and 10k ddc
// keys. Keys are drawn Zipf(0.99); the mix is 70 % reads and 30 % writes.
// Every reply is checked against a generator-side model of the catalog.
// Two threads drive one daemon, each on its own connection at pipeline
// depth 16.
#include <algorithm>
#include <bit>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "api/remote_service_bus.hpp"
#include "api/service_ops.hpp"
#include "common.hpp"
#include "probes.hpp"
#include "util/auid.hpp"

namespace perfbench {
namespace {

using namespace bitdew;
namespace fs = std::filesystem;

constexpr std::size_t kDatums = 100000;
constexpr std::size_t kDdcKeys = 10000;
constexpr int kThreads = 2;
constexpr int kDepth = 16;
constexpr int kDdcValues = 4;  ///< values a publish draws from, per key
constexpr int kPreloadBatch = 1000;

enum Op : int {
  kGet,
  kLocators,
  kSearch,
  kDdcSearch,
  kRegister,
  kRemove,
  kAddLocator,
  kPublish,
  kSchedule,
  kOpCount
};
constexpr int kWeights[kOpCount] = {30, 20, 10, 10, 8, 8, 6, 5, 3};
constexpr const char* kOpNames[kOpCount] = {"dc_get",         "dc_locators", "dc_search",
                                            "ddc_search",     "dc_register", "dc_remove",
                                            "dc_add_locator", "ddc_publish", "ds_schedule"};

bool is_write(int op) { return op >= kRegister; }

/// One Zipf rank of the catalog: the datum reads address at that rank.
struct Slot {
  core::Data data;
  std::vector<std::string> paths;  ///< locator paths sent; [0] is the preload's
  std::size_t confirmed = 1;       ///< paths acknowledged
  bool busy = false;               ///< a write on this slot is in flight
};

/// The generator's model of what the catalog must hold.
struct Model {
  std::mutex mutex;
  std::vector<Slot> slots;
  std::vector<std::uint8_t> ddc_confirmed;  ///< bit j: value j acknowledged
  std::deque<core::Data> to_remove;         ///< replaced datums awaiting dc_remove
  std::unordered_set<util::Auid> removing;  ///< dc_remove sent
  std::vector<util::Auid> removed;          ///< dc_remove acknowledged
  std::uint64_t next_index = kDatums;
  std::uint64_t next_path = 0;
  std::uint64_t seed = 0;
};

std::string ddc_key(std::size_t key) { return "ddc-" + std::to_string(key); }
std::string ddc_value(std::size_t key, int j) {
  return "v-" + std::to_string(key) + "-" + std::to_string(j);
}

core::Data make_datum(std::uint64_t seed, std::uint64_t index, util::Rng& rng) {
  core::Data data;
  data.uid = util::next_auid();
  data.name = "cat-" + std::to_string(seed) + "-" + std::to_string(index);
  const core::Content content =
      core::synthetic_content(seed ^ index, 1 + static_cast<std::int64_t>(rng.below(1 << 20)));
  data.size = content.size;
  data.checksum = content.checksum;
  return data;
}

core::Locator make_locator(const core::Data& data, const std::string& path) {
  return core::Locator{data.uid, "ftp", "bitdewd", path, ""};
}

/// Builds the model: same seed, same uids, names, sizes and keys.
void build_model(Model& model, std::uint64_t seed) {
  util::reseed_auid(seed);
  util::Rng rng(seed * 7919 + 1);
  model.seed = seed;
  model.next_index = kDatums;
  model.slots.assign(kDatums, Slot{});
  for (std::size_t i = 0; i < kDatums; ++i) {
    Slot& slot = model.slots[i];
    slot.data = make_datum(seed, i, rng);
    slot.paths = {"/cat/" + std::to_string(i) + "/0"};
  }
  model.ddc_confirmed.assign(kDdcKeys, 1);
}

/// The preload, through the live daemon. Returns the failed item count.
std::int64_t preload_remote(const Model& model, std::uint16_t port) {
  api::RemoteServiceBus bus("127.0.0.1", port);
  std::int64_t failed = 0;
  for (std::size_t at = 0; at < kDatums; at += kPreloadBatch) {
    std::vector<core::Data> batch;
    for (std::size_t i = at; i < std::min(kDatums, at + kPreloadBatch); ++i) {
      batch.push_back(model.slots[i].data);
    }
    bus.dc_register_batch(batch, [&](api::BatchStatus statuses) {
      for (const api::Status& status : statuses) failed += status.ok() ? 0 : 1;
    });
  }
  bus.set_pipeline_depth(32);
  for (const Slot& slot : model.slots) {
    bus.dc_add_locator(make_locator(slot.data, slot.paths[0]),
                       [&](api::Status status) { failed += status.ok() ? 0 : 1; });
  }
  bus.drain();
  bus.set_pipeline_depth(1);
  for (std::size_t at = 0; at < kDdcKeys; at += kPreloadBatch) {
    std::vector<api::KeyValue> batch;
    for (std::size_t k = at; k < std::min(kDdcKeys, at + kPreloadBatch); ++k) {
      batch.push_back({ddc_key(k), ddc_value(k, 0)});
    }
    bus.ddc_publish_batch(batch, [&](api::BatchStatus statuses) {
      for (const api::Status& status : statuses) failed += status.ok() ? 0 : 1;
    });
  }
  return failed;
}

/// The same preload applied in process, for the handler replay.
void preload_local(const Model& model, services::ServiceContainer& container,
                   dht::LocalDht& ddc) {
  for (std::size_t at = 0; at < kDatums; at += kPreloadBatch) {
    std::vector<core::Data> batch;
    for (std::size_t i = at; i < std::min(kDatums, at + kPreloadBatch); ++i) {
      batch.push_back(model.slots[i].data);
    }
    api::ops::dc_register_batch(container, batch);
  }
  for (const Slot& slot : model.slots) {
    api::ops::dc_add_locator(container, make_locator(slot.data, slot.paths[0]));
  }
  std::vector<std::pair<std::string, std::string>> pairs;
  for (std::size_t k = 0; k < kDdcKeys; ++k) pairs.push_back({ddc_key(k), ddc_value(k, 0)});
  api::ops::ddc_publish_batch(ddc, pairs);
}

/// Per-thread outcome of the load.
struct Tally {
  WindowedSamples read_ms{1.0};
  WindowedSamples write_ms{1.0};
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t reads = 0;
  std::int64_t writes = 0;
  std::string first_failure;

  void fail(const std::string& why) {
    ++failed;
    if (first_failure.empty()) first_failure = why;
  }
};

/// One generator thread: a closed loop keeping `depth` frames in flight on
/// its own connection until `end`.
class LoadLoop {
 public:
  LoadLoop(Model& model, api::RemoteServiceBus& bus, Tally& tally, const Zipf& slot_zipf,
           const Zipf& key_zipf, std::uint64_t seed)
      : model_(model),
        bus_(bus),
        tally_(tally),
        slot_zipf_(slot_zipf),
        key_zipf_(key_zipf),
        rng_(seed) {}

  void run(double started, double end) {
    started_ = started;
    bus_.set_pipeline_depth(kDepth);
    while (now_s() < end) send_one();
    bus_.drain();
  }

 private:
  int draw_op() {
    int pick = static_cast<int>(rng_.below(100));
    for (int op = 0; op < kOpCount; ++op) {
      if (pick < kWeights[op]) return op;
      pick -= kWeights[op];
    }
    return kGet;
  }

  /// A slot free of in-flight writes (nullopt after a few busy draws).
  std::optional<std::size_t> free_slot() {
    for (int attempt = 0; attempt < 16; ++attempt) {
      const std::size_t rank = slot_zipf_.draw(rng_);
      if (!model_.slots[rank].busy) return rank;
    }
    return std::nullopt;
  }

  /// Wraps a completion with timing and the tally.
  template <typename T>
  api::Reply<T> timed(int op, std::function<bool(const T&)> check) {
    const double start = now_s();
    return [this, op, start, check = std::move(check)](T value) {
      const double ms = (now_s() - start) * 1e3;
      ++tally_.attempted;
      bool ok;
      {
        const std::lock_guard<std::mutex> lock(model_.mutex);
        ok = check(value);
      }
      if (!ok) {
        tally_.fail(kOpNames[op]);
        return;
      }
      if (is_write(op)) {
        ++tally_.writes;
        tally_.write_ms.add(start - started_, ms);
      } else {
        ++tally_.reads;
        tally_.read_ms.add(start - started_, ms);
      }
    };
  }

  /// Reads of a datum the model may be removing accept not_found.
  bool gone(const util::Auid& uid) const { return model_.removing.contains(uid); }

  void send_one() {
    int op = draw_op();
    std::unique_lock<std::mutex> lock(model_.mutex);
    std::optional<std::size_t> rank;
    if (op == kRemove && model_.to_remove.empty()) op = kRegister;
    if (op == kRegister && model_.to_remove.size() > 64) op = kRemove;
    if (op == kRegister || op == kAddLocator || op == kSchedule) {
      rank = free_slot();
      if (!rank.has_value()) op = kGet;
    }
    if (!rank.has_value()) rank = slot_zipf_.draw(rng_);
    Slot& slot = model_.slots[*rank];

    switch (op) {
      case kGet: {
        const core::Data want = slot.data;
        lock.unlock();
        bus_.dc_get(want.uid, timed<api::Expected<core::Data>>(
                                  op, [this, want](const api::Expected<core::Data>& got) {
                                    if (!got.ok()) return gone(want.uid);
                                    return *got == want;
                                  }));
        return;
      }
      case kLocators: {
        const core::Data want = slot.data;
        const std::size_t confirmed = slot.confirmed;
        const std::size_t index = *rank;
        lock.unlock();
        bus_.dc_locators(
            want.uid,
            timed<api::Expected<std::vector<core::Locator>>>(
                op, [this, want, confirmed,
                     index](const api::Expected<std::vector<core::Locator>>& got) {
                  if (!got.ok()) return gone(want.uid);
                  const Slot& now = model_.slots[index];
                  if (now.data.uid != want.uid) return got->size() >= confirmed;
                  if (got->size() < confirmed || got->size() > now.paths.size()) return false;
                  for (const core::Locator& locator : *got) {
                    if (std::find(now.paths.begin(), now.paths.end(), locator.path) ==
                        now.paths.end()) {
                      return false;
                    }
                  }
                  return true;
                }));
        return;
      }
      case kSearch: {
        const core::Data want = slot.data;
        lock.unlock();
        bus_.dc_search(want.name,
                       timed<api::Expected<std::vector<core::Data>>>(
                           op, [this, want](const api::Expected<std::vector<core::Data>>& got) {
                             if (!got.ok()) return false;
                             if (got->empty()) return gone(want.uid);
                             return got->size() == 1 && got->front() == want;
                           }));
        return;
      }
      case kDdcSearch: {
        const std::size_t key = key_zipf_.draw(rng_);
        const std::uint8_t confirmed = model_.ddc_confirmed[key];
        lock.unlock();
        bus_.ddc_search(ddc_key(key),
                        timed<api::Expected<std::vector<std::string>>>(
                            op, [key, confirmed](const api::Expected<std::vector<std::string>>& got) {
                              if (!got.ok()) return false;
                              std::uint8_t seen = 0;
                              for (int j = 0; j <= kDdcValues; ++j) {
                                if (std::find(got->begin(), got->end(), ddc_value(key, j)) !=
                                    got->end()) {
                                  seen |= static_cast<std::uint8_t>(1u << j);
                                }
                              }
                              return (seen & confirmed) == confirmed &&
                                     std::popcount(seen) == static_cast<int>(got->size());
                            }));
        return;
      }
      case kRegister: {
        const std::size_t index = *rank;
        const core::Data fresh = make_datum(model_.seed, model_.next_index++, rng_);
        slot.busy = true;
        lock.unlock();
        bus_.dc_register(fresh, timed<api::Status>(op, [this, index, fresh](const api::Status& s) {
                           Slot& target = model_.slots[index];
                           target.busy = false;
                           if (!s.ok()) return false;
                           model_.to_remove.push_back(target.data);
                           target.data = fresh;
                           target.paths.clear();
                           target.confirmed = 0;
                           return true;
                         }));
        return;
      }
      case kRemove: {
        const core::Data victim = model_.to_remove.front();
        model_.to_remove.pop_front();
        model_.removing.insert(victim.uid);
        lock.unlock();
        bus_.dc_remove(victim.uid, timed<api::Status>(op, [this, victim](const api::Status& s) {
                         model_.removed.push_back(victim.uid);
                         return s.ok();
                       }));
        return;
      }
      case kAddLocator: {
        const std::size_t index = *rank;
        const std::string path = "/gen/" + std::to_string(model_.next_path++);
        slot.busy = true;
        slot.paths.push_back(path);
        const core::Locator locator = make_locator(slot.data, path);
        lock.unlock();
        bus_.dc_add_locator(locator, timed<api::Status>(op, [this, index](const api::Status& s) {
                              Slot& target = model_.slots[index];
                              target.busy = false;
                              if (!s.ok()) return false;
                              ++target.confirmed;
                              return true;
                            }));
        return;
      }
      case kPublish: {
        const std::size_t key = key_zipf_.draw(rng_);
        const int j = 1 + static_cast<int>(rng_.below(kDdcValues));
        lock.unlock();
        bus_.ddc_publish(ddc_key(key), ddc_value(key, j),
                         timed<api::Status>(op, [this, key, j](const api::Status& s) {
                           if (!s.ok()) return false;
                           model_.ddc_confirmed[key] |= static_cast<std::uint8_t>(1u << j);
                           return true;
                         }));
        return;
      }
      case kSchedule: {
        const std::size_t index = *rank;
        const core::Data data = slot.data;
        slot.busy = true;
        lock.unlock();
        core::DataAttributes attributes;
        attributes.replica = 1;
        bus_.ds_schedule(data, attributes,
                         timed<api::Status>(op, [this, index](const api::Status& s) {
                           model_.slots[index].busy = false;
                           return s.ok();
                         }));
        return;
      }
      default:
        return;
    }
  }

  Model& model_;
  api::RemoteServiceBus& bus_;
  Tally& tally_;
  const Zipf& slot_zipf_;
  const Zipf& key_zipf_;
  util::Rng rng_;
  double started_ = 0;
};

/// After the load, at depth 1: removed datums are gone, locators added are
/// present, published values are visible.
void verify(Model& model, std::uint16_t port, Tally& tally) {
  api::RemoteServiceBus bus("127.0.0.1", port);
  const std::size_t step_removed = std::max<std::size_t>(1, model.removed.size() / 500);
  for (std::size_t i = 0; i < model.removed.size(); i += step_removed) {
    ++tally.attempted;
    bus.dc_get(model.removed[i], [&](api::Expected<core::Data> got) {
      if (got.ok() || got.error().code != api::Errc::kNotFound) tally.fail("verify removed");
    });
  }
  int checked = 0;
  for (std::size_t rank = 0; rank < model.slots.size() && checked < 500; ++rank) {
    const Slot& slot = model.slots[rank];
    if (slot.paths.size() <= 1 && rank > 500) continue;
    ++checked;
    ++tally.attempted;
    bus.dc_locators(slot.data.uid, [&](api::Expected<std::vector<core::Locator>> got) {
      if (!got.ok() || got->size() != slot.confirmed) {
        tally.fail("verify locators");
        return;
      }
      for (const core::Locator& locator : *got) {
        if (std::find(slot.paths.begin(), slot.paths.end(), locator.path) == slot.paths.end()) {
          tally.fail("verify locator path");
          return;
        }
      }
    });
  }
  for (std::size_t key = 0; key < 200; ++key) {
    ++tally.attempted;
    bus.ddc_search(ddc_key(key), [&](api::Expected<std::vector<std::string>> got) {
      if (!got.ok()) {
        tally.fail("verify ddc");
        return;
      }
      for (int j = 0; j <= kDdcValues; ++j) {
        if ((model.ddc_confirmed[key] & (1u << j)) == 0) continue;
        if (std::find(got->begin(), got->end(), ddc_value(key, j)) == got->end()) {
          tally.fail("verify ddc value");
          return;
        }
      }
    });
  }
}

}  // namespace

Result run_catalog_mix(const Config& config) {
  Result result;
  Model model;
  std::unique_ptr<Daemon> daemon;
  Samples setup_s;
  std::int64_t preload_failed = 0;
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
    build_model(model, config.seed);
    preload_failed = preload_remote(model, attempt->port());
    setup_s.add(now_s() - started);
    if (rep + 1 < config.setup_reps) {
      attempt->kill_now();
      fs::remove_all(dir);
      continue;
    }
    daemon = std::move(attempt);
  }
  const std::uint16_t port = daemon->port();

  const Zipf slot_zipf(kDatums, 0.99);
  const Zipf key_zipf(kDdcKeys, 0.99);
  Tally tallies[kThreads];
  std::vector<std::unique_ptr<api::RemoteServiceBus>> buses;
  for (int t = 0; t < kThreads; ++t) {
    buses.push_back(std::make_unique<api::RemoteServiceBus>("127.0.0.1", port));
  }

  const double cpu_before = daemon->cpu_s();
  const double gen_cpu_before = self_cpu_s();
  const double started = now_s();
  const double end = started + config.seconds;
  std::thread killer;
  if (config.inject_kill) {
    killer = std::thread([&] {
      sleep_until_s(started + config.seconds / 4);
      daemon->kill_now();
    });
  }
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      LoadLoop loop(model, *buses[static_cast<std::size_t>(t)], tallies[t], slot_zipf, key_zipf,
                    config.seed * 104729 + static_cast<std::uint64_t>(t));
      loop.run(started, end);
    });
  }
  for (std::thread& worker : workers) worker.join();
  if (killer.joinable()) killer.join();
  const double wall = now_s() - started;
  const double gen_cpu = self_cpu_s() - gen_cpu_before;
  const double daemon_cpu = daemon->cpu_s() - cpu_before;

  Tally total;
  for (Tally& tally : tallies) {
    total.read_ms.merge(tally.read_ms);
    total.write_ms.merge(tally.write_ms);
    total.attempted += tally.attempted;
    total.failed += tally.failed;
    total.reads += tally.reads;
    total.writes += tally.writes;
    if (total.first_failure.empty()) total.first_failure = tally.first_failure;
  }
  if (daemon->running()) verify(model, port, total);

  result.attempted = total.attempted;
  result.failed = total.failed + preload_failed;
  result.correct = result.failed == 0;
  if (!total.first_failure.empty()) result.notes["first_failure"] = total.first_failure;
  result.notes["threads"] = std::to_string(kThreads);
  result.notes["pipeline_depth"] = std::to_string(kDepth);
  result.notes["ops"] = std::to_string(total.reads + total.writes);
  result.notes["write_p99_ms"] = std::to_string(total.write_ms.quantile(0.99));
  result.notes["read_p99_ms"] = std::to_string(total.read_ms.quantile(0.99));

  if (!config.trace) {
    result.metric("setup_s", setup_s.median(), "s");
    result.metric("peak_rss_mb", daemon->running() ? daemon->peak_rss_mb() : 0, "MB");
    result.metric("write_ops_per_s", total.write_ms.rate(config.seconds), "1/s");
    result.metric("read_ops_per_s", total.read_ms.rate(config.seconds), "1/s");
    result.metric("write_p50_ms", total.write_ms.median(), "ms");
    result.metric("write_p75_ms", total.write_ms.quantile(0.75), "ms");
    result.metric("read_p50_ms", total.read_ms.median(), "ms");
    result.metric("read_p75_ms", total.read_ms.quantile(0.75), "ms");
  } else if (daemon->running()) {
    ProbeContext context;
    context.config = &config;
    context.daemon = daemon.get();
    context.kind = "catalog";
    for (std::size_t rank = 0; rank < 2000; ++rank) {
      context.live.push_back(model.slots[kDatums - 1 - rank].data);
    }
    for (std::size_t key = 0; key < 2000; ++key) context.ddc_keys.push_back(ddc_key(key));
    context.preload = [&model](services::ServiceContainer& container, dht::LocalDht& ddc) {
      preload_local(model, container, ddc);
    };
    context.row_shape = "catalog";
    context.load_wall_s = wall;
    context.daemon_cpu_s = daemon_cpu;
    context.gen_cpu_s = gen_cpu;
    context.work_units = static_cast<double>(total.reads + total.writes);
    context.load_read_p50_ms = total.read_ms.median();
    probe_layers(context, result);
  }

  // The run's directory is discarded, so the daemon needs no clean shutdown.
  daemon->kill_now();
  return result;
}

}  // namespace perfbench
