#include "common.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/md5.hpp"
#include "util/stats.hpp"

namespace perfbench {

void sleep_until_s(double deadline) {
  // Sleep to just short of the deadline, then spin: a sleeping thread can
  // wake late by more than a beat's whole round trip.
  constexpr double kSpin = 200e-6;
  const double wait = deadline - now_s() - kSpin;
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  while (now_s() < deadline) {
  }
}

// --- Samples ----------------------------------------------------------------

double Samples::quantile(double q) const { return bitdew::util::percentile(values_, q * 100); }

void WindowedSamples::add(double t, double value) {
  windows_[static_cast<long>(std::floor(t / window_s_))].add(value);
}

void WindowedSamples::merge(const WindowedSamples& other) {
  for (const auto& [window, samples] : other.windows_) windows_[window].merge(samples);
}

double WindowedSamples::quantile(double q, std::size_t min_count) const {
  Samples per_window;
  for (const auto& [window, samples] : windows_) {
    if (samples.count() >= min_count) per_window.add(samples.quantile(q));
  }
  return per_window.quantile(0.25);
}

double WindowedSamples::rate(double run_s) const {
  Samples per_window;
  for (long window = 0; window < static_cast<long>(run_s / window_s_); ++window) {
    const auto found = windows_.find(window);
    const std::size_t count = found == windows_.end() ? 0 : found->second.count();
    per_window.add(static_cast<double>(count) / window_s_);
  }
  return per_window.quantile(0.75);
}

std::size_t WindowedSamples::count() const {
  std::size_t total = 0;
  for (const auto& [window, samples] : windows_) total += samples.count();
  return total;
}

// --- Zipf -------------------------------------------------------------------

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0;
  for (std::size_t rank = 0; rank < n; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), s);
    cdf_[rank] = total;
  }
  for (double& value : cdf_) value /= total;
}

std::size_t Zipf::draw(bitdew::util::Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

// --- Daemon -----------------------------------------------------------------

bool Daemon::start(const std::string& binary, const std::vector<std::string>& args,
                   const std::string& log_dir, double timeout_s) {
  std::vector<std::string> argv_store{binary};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_store) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const std::string err_path = log_dir + "/daemon.err";

  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out[0]);
    ::close(out[1]);
    return false;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the generator
    const int err = ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ::dup2(out[1], STDOUT_FILENO);
    if (err >= 0) ::dup2(err, STDERR_FILENO);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  pid_ = pid;
  stdout_fd_ = out[0];

  // The daemon flushes "serving on port P" once it is ready.
  std::string text;
  const double deadline = now_s() + timeout_s;
  while (now_s() < deadline) {
    pollfd ready{stdout_fd_, POLLIN, 0};
    const int wait_ms = static_cast<int>(std::max(1.0, (deadline - now_s()) * 1e3));
    if (::poll(&ready, 1, wait_ms) <= 0) continue;
    char buffer[4096];
    const ssize_t got = ::read(stdout_fd_, buffer, sizeof buffer);
    if (got <= 0) break;  // exited before serving
    text.append(buffer, static_cast<std::size_t>(got));
    const auto at = text.find("serving on port ");
    if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
      port_ = static_cast<std::uint16_t>(std::stoi(text.substr(at + 16)));
      return true;
    }
  }
  kill_now();
  return false;
}

void Daemon::stop(double grace_s) {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const double deadline = now_s() + grace_s;
  while (now_s() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      kill_now();  // closes the stdout pipe
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  kill_now();
}

void Daemon::kill_now() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
}

double Daemon::peak_rss_mb() const {
  if (pid_ <= 0) return 0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

namespace {

double stat_cpu_s(const std::string& path) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const auto close = text.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double utime = 0;
  double stime = 0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index == 14) utime = std::stod(field);
    if (index == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

}  // namespace

double Daemon::cpu_s() const {
  if (pid_ <= 0) return 0;
  return stat_cpu_s("/proc/" + std::to_string(pid_) + "/stat");
}

double self_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_utime.tv_usec * 1e-6 + usage.ru_stime.tv_sec +
         usage.ru_stime.tv_usec * 1e-6;
}

// --- files ------------------------------------------------------------------

std::string write_random_file(const std::string& path, std::int64_t size, std::uint64_t seed) {
  bitdew::util::Rng rng(seed);
  bitdew::util::Md5 md5;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  std::vector<std::uint64_t> block(1 << 17);  // 1 MiB
  std::int64_t left = size;
  while (left > 0) {
    for (std::uint64_t& word : block) word = rng();
    const auto bytes = static_cast<std::size_t>(
        std::min<std::int64_t>(left, static_cast<std::int64_t>(block.size() * 8)));
    out.write(reinterpret_cast<const char*>(block.data()), static_cast<std::streamsize>(bytes));
    md5.update(block.data(), bytes);
    left -= static_cast<std::int64_t>(bytes);
  }
  return md5.finish().hex();
}

std::pair<std::string, std::int64_t> hash_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {"", -1};
  bitdew::util::Md5 md5;
  std::vector<char> block(1 << 20);
  std::int64_t size = 0;
  while (in) {
    in.read(block.data(), static_cast<std::streamsize>(block.size()));
    const std::streamsize got = in.gcount();
    if (got <= 0) break;
    md5.update(block.data(), static_cast<std::size_t>(got));
    size += got;
  }
  return {md5.finish().hex(), size};
}

std::string filesystem_of(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x794c7630: return "overlay";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%lx", static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

// --- Result -----------------------------------------------------------------

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char text[64];
  std::snprintf(text, sizeof text, "%.9g", value);
  return text;
}

}  // namespace

void Result::print() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].first) + ": {\"value\": " +
           json_number(metrics[i].second.first) +
           ", \"unit\": " + json_string(metrics[i].second.second) + "}";
  }
  out += "}, \"notes\": {";
  bool first = true;
  for (const auto& [key, value] : notes) {
    if (!first) out += ", ";
    first = false;
    out += json_string(key) + ": " + json_string(value);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

Samples time_calls_us(int reps, const std::function<void()>& fn) {
  Samples out;
  for (int i = 0; i < reps; ++i) {
    const double start = now_s();
    fn();
    out.add((now_s() - start) * 1e6);
  }
  return out;
}

}  // namespace perfbench
