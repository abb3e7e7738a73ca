// Shared pieces of the benchmark's load generator: run configuration,
// latency samples, the bitdewd child process, seeded inputs and the result
// record.
//
// Everything here talks to the system only through the modules' public
// headers; the generator never changes a module.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

/// Seconds on the monotonic clock.
inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_until_s(double deadline);

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string daemon;   ///< path of the bitdewd binary
  std::string workdir;  ///< scratch directory for WALs, content and inputs
  int setup_reps = 3;   ///< set-ups per run; setup_s is their median
  // Fault injection, used only by the benchmark's self-test.
  bool inject_bad_checksum = false;
  bool inject_kill = false;  ///< SIGKILL the daemon a quarter into the run
};

/// Latency or size samples with nearest-rank percentiles.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  void merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// The q-quantile (0 < q <= 1), util::percentile's nearest rank; 0 when empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// Samples bucketed into fixed windows of the run. A quantile is the 25th
/// percentile, over the windows holding at least `min_count` samples, of
/// each window's quantile: the figure the program holds in its quieter
/// stretches. Stalls and slow spells of a shared machine move the windows
/// they cover, and the metric only once they cover three quarters of them.
class WindowedSamples {
 public:
  explicit WindowedSamples(double window_s) : window_s_(window_s) {}
  /// `t` is the sample's time in seconds since the run started.
  void add(double t, double value);
  void merge(const WindowedSamples& other);
  double quantile(double q, std::size_t min_count = 20) const;
  double median() const { return quantile(0.5); }
  std::size_t count() const;
  /// Samples per second: the 75th percentile, over the whole windows of a
  /// run `run_s` long, of each window's rate (the quieter stretches' rate).
  double rate(double run_s) const;

 private:
  double window_s_;
  std::map<long, Samples> windows_;
};

/// Zipf(s) over ranks [0, n): rank 0 is the hottest key.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t draw(bitdew::util::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// One bitdewd child process. Its stdout is a pipe start() reads until the
/// "serving on port P" line; its stderr goes to a file in `log_dir`.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Starts `binary` with `args`; false when it exits or prints no port
  /// within `timeout_s`. The child dies with the generator.
  bool start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_dir, double timeout_s = 20);
  /// SIGTERM, then SIGKILL after `grace_s`; always reaps the child.
  void stop(double grace_s = 10);
  /// SIGKILL without a handoff (fault injection); reaps the child.
  void kill_now();

  bool running() const { return pid_ > 0; }
  std::uint16_t port() const { return port_; }
  /// VmHWM of the live process, in MB (0 when unreadable).
  double peak_rss_mb() const;
  /// User + system CPU seconds of the live process.
  double cpu_s() const;

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Generator-side CPU seconds (all threads).
double self_cpu_s();

/// Writes `size` seeded pseudo-random bytes to `path`; returns their MD5 hex.
std::string write_random_file(const std::string& path, std::int64_t size, std::uint64_t seed);
/// MD5 hex and size of a file, streamed in 1 MiB blocks (-1 size if unreadable).
std::pair<std::string, std::int64_t> hash_file(const std::string& path);
/// The filesystem type holding `path` ("ext4", "overlay", "tmpfs", ...).
std::string filesystem_of(const std::string& path);

/// The outcome of one run, printed as JSON by print().
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::map<std::string, std::string> notes;  ///< provenance and context

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void print() const;
};

/// Times `fn` `reps` times; per-call microseconds.
Samples time_calls_us(int reps, const std::function<void()>& fn);

// Workload entry points (one per file).
Result run_bulk_transfer(const Config& config);
Result run_catalog_mix(const Config& config);
Result run_fleet_sync(const Config& config);

}  // namespace perfbench
