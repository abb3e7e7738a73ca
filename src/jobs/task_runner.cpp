#include "jobs/task_runner.hpp"

#include <csignal>
#include <cstdlib>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "runtime/node_runtime.hpp"
#include "transfer/tcp.hpp"
#include "util/auid.hpp"
#include "util/log.hpp"

namespace bitdew::jobs {
namespace {

const util::Logger& logger() {
  static const util::Logger instance("runner");
  return instance;
}

/// Replaces every "{input}"/"{output}" in one template element.
std::string substitute(std::string arg, const std::string& input, const std::string& output) {
  for (const auto& [token, value] :
       {std::pair<std::string, const std::string&>{"{input}", input}, {"{output}", output}}) {
    std::size_t at = 0;
    while ((at = arg.find(token, at)) != std::string::npos) {
      arg.replace(at, token.size(), value);
      at += value.size();
    }
  }
  return arg;
}

}  // namespace

TaskRunner::TaskRunner(runtime::NodeRuntime& node, std::string service_host,
                       std::uint16_t service_port, TaskRunnerConfig config)
    : node_(node),
      service_host_(std::move(service_host)),
      service_port_(service_port),
      config_(std::move(config)) {}

TaskRunner::~TaskRunner() { stop(); }

api::Status TaskRunner::start() {
  if (running_.load()) return api::ok_status();
  std::error_code ec;
  std::filesystem::create_directories(config_.scratch_dir, ec);
  if (ec) {
    return api::Error{api::Errc::kUnavailable, "runner",
                      "cannot create scratch dir " + config_.scratch_dir + ": " + ec.message()};
  }
  running_.store(true);
  const int slots = std::max(1, config_.exec_slots);
  executors_.reserve(static_cast<std::size_t>(slots));
  for (int i = 0; i < slots; ++i) {
    executors_.emplace_back(&TaskRunner::exec_loop, this);
  }
  logger().info("%s: task runner up (%d slot(s), scratch %s)", node_.name().c_str(), slots,
                config_.scratch_dir.c_str());
  return api::ok_status();
}

void TaskRunner::stop() {
  if (!running_.exchange(false)) return;
  {
    const util::LockGuard lock(mutex_);
    // Children are their own process groups: one kill takes the whole tree.
    for (const int pid : children_) kill(-pid, SIGKILL);
  }
  queue_cv_.notify_all();
  for (std::thread& executor : executors_) {
    if (executor.joinable()) executor.join();
  }
  executors_.clear();
}

void TaskRunner::on_data_copy(const core::Data& data, const core::DataAttributes& attributes) {
  if (attributes.name != kTaskAttributeName) return;
  if (!running_.load()) return;
  {
    const util::LockGuard lock(mutex_);
    queue_.push_back(data.uid);
  }
  queue_cv_.notify_one();
}

TaskRunnerStats TaskRunner::stats() const {
  const util::LockGuard lock(mutex_);
  return stats_;
}

void TaskRunner::exec_loop() {
  // Claims, transfers and reports ride this thread's own connection; the
  // runtime's heartbeat never waits behind a task.
  api::RemoteServiceBus bus(service_host_, service_port_, config_.bus);
  for (;;) {
    util::Auid task_uid;
    {
      util::UniqueLock lock(mutex_);
      while (queue_.empty() && running_.load()) queue_cv_.wait(lock);
      if (!running_.load()) return;
      task_uid = queue_.front();
      queue_.pop_front();
    }
    run_task(bus, task_uid);
  }
}

void TaskRunner::report(api::RemoteServiceBus& bus, const util::Auid& task_uid, bool ok,
                        int exit_code, bool timed_out, bool data_local,
                        const core::Data& result) {
  TaskReport task_report;
  task_report.task = task_uid;
  task_report.runner = node_.name();
  task_report.ok = ok;
  task_report.exit_code = exit_code;
  task_report.timed_out = timed_out;
  task_report.data_local = data_local;
  task_report.result = result;
  api::Status sent = api::ok_status();
  bus.job_task_report(task_report, [&](api::Status s) { sent = std::move(s); });
  if (!sent.ok()) {
    // A lost report leaves the task claimed; the server's sweep re-places
    // it past timeout_s + claim_grace_s, so nothing is stuck forever.
    logger().warn("%s: task report for %s failed: %s", node_.name().c_str(),
                  task_uid.str().c_str(), sent.error().to_string().c_str());
  }
}

void TaskRunner::run_task(api::RemoteServiceBus& bus, const util::Auid& task_uid) {
  api::Expected<TaskOrder> claimed =
      api::Error{api::Errc::kTransport, "runner", "claim not sent"};
  bus.job_claim(task_uid, node_.name(),
                [&](api::Expected<TaskOrder> r) { claimed = std::move(r); });
  if (!claimed.ok()) {
    // kRejected: another holder won the race — the normal outcome on every
    // replica of the input but one. kNotFound: the placement went stale
    // (re-queued or done). Either way, stand down quietly.
    const util::LockGuard lock(mutex_);
    ++stats_.claims_lost;
    return;
  }
  const TaskOrder& order = *claimed;
  {
    const util::LockGuard lock(mutex_);
    ++stats_.claims_won;
  }

  // 1. The input: straight from the cache when the affinity rule did its
  //    job, from the repository when this is a fallback placement.
  const bool data_local = node_.has(order.input.uid);
  std::string input_path;
  std::string fetched_path;
  if (data_local) {
    input_path = node_.replica_path(order.input.uid);
  } else {
    fetched_path = (std::filesystem::path(config_.scratch_dir) /
                    ("in-" + order.input.uid.str()))
                       .string();
    transfer::TcpConfig fetch;
    fetch.chunk_bytes = config_.chunk_bytes;
    fetch.max_attempts = config_.transfer_attempts;
    fetch.local_name = node_.name();
    transfer::TcpTransfer engine(bus, fetch);
    const api::Status got = engine.get_file(order.input, fetched_path);
    if (!got.ok()) {
      logger().warn("%s: cannot fetch input for task %s: %s", node_.name().c_str(),
                    task_uid.str().c_str(), got.error().to_string().c_str());
      report(bus, task_uid, /*ok=*/false, /*exit_code=*/-1, /*timed_out=*/false, data_local, {});
      return;
    }
    input_path = fetched_path;
  }
  const std::string output_path =
      (std::filesystem::path(config_.scratch_dir) / ("out-" + task_uid.str())).string();

  // 2. Substitute and execute.
  std::vector<std::string> argv;
  argv.reserve(order.argv.size());
  for (const std::string& arg : order.argv) {
    argv.push_back(substitute(arg, input_path, output_path));
  }
  logger().info("%s: running task %s#%d (%s, input %s)", node_.name().c_str(),
                order.job.str().c_str(), static_cast<int>(order.index),
                data_local ? "data-local" : "fetched", order.input.name.c_str());
  int exit_code = -1;
  bool timed_out = false;
  const bool ran = run_command(argv, order.env, order.timeout_s, exit_code, timed_out);
  const bool ok = ran && !timed_out && exit_code == 0;

  core::Data result;
  api::Status published = api::ok_status();
  if (ok) {
    // 3. The output becomes a datum: register, upload, report, adopt — in
    //    that order (see the header comment for why report precedes adopt).
    try {
      const core::Content content = core::file_content(output_path);
      result.uid = util::next_auid();
      result.name = order.result_name;
      result.checksum = content.checksum;
      result.size = content.size;
    } catch (const std::exception& e) {
      published = api::Error{api::Errc::kUnavailable, "runner",
                             std::string("output unreadable: ") + e.what()};
    }
    if (published.ok()) {
      bus.dc_register(result, [&](api::Status s) { published = std::move(s); });
    }
    if (published.ok()) {
      transfer::TcpConfig up;
      up.chunk_bytes = config_.chunk_bytes;
      up.max_attempts = config_.transfer_attempts;
      up.local_name = node_.name();
      transfer::TcpTransfer engine(bus, up);
      // `result` was built from this file's hash above; upload() skips the
      // second hash, and the repository's commit check still refuses bytes
      // that changed since.
      published = engine.upload(result, output_path);
    }
  }

  if (ok && published.ok()) {
    report(bus, task_uid, /*ok=*/true, exit_code, timed_out, data_local, result);
    core::DataAttributes attributes;
    attributes.name = "job-result";
    attributes.protocol = "p2p";
    const api::Status adopted = node_.adopt_replica(result, attributes, output_path);
    if (!adopted.ok()) {
      logger().warn("%s: result of task %s uploaded but not adopted: %s",
                    node_.name().c_str(), task_uid.str().c_str(),
                    adopted.error().to_string().c_str());
    }
    const util::LockGuard lock(mutex_);
    ++stats_.tasks_ok;
    if (data_local) ++stats_.data_local;
  } else {
    if (!published.ok()) {
      logger().warn("%s: cannot publish result of task %s: %s", node_.name().c_str(),
                    task_uid.str().c_str(), published.error().to_string().c_str());
    }
    report(bus, task_uid, /*ok=*/false, exit_code, timed_out, data_local, {});
    const util::LockGuard lock(mutex_);
    ++stats_.tasks_failed;
    if (timed_out) ++stats_.tasks_timed_out;
  }

  std::error_code ec;
  if (!fetched_path.empty()) std::filesystem::remove(fetched_path, ec);
  std::filesystem::remove(output_path, ec);
}

bool TaskRunner::run_command(const std::vector<std::string>& argv,
                             const std::vector<std::string>& env, double timeout_s,
                             int& exit_code, bool& timed_out) {
  if (argv.empty()) return false;
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    // Child: its own process group, so a timeout (or runner stop) can kill
    // the whole tree the command may have spawned.
    setpgid(0, 0);
    for (const std::string& kv : env) {
      const std::size_t eq = kv.find('=');
      if (eq != std::string::npos && eq > 0) {
        setenv(kv.substr(0, eq).c_str(), kv.c_str() + eq + 1, 1);
      }
    }
    std::vector<char*> c_argv;
    c_argv.reserve(argv.size() + 1);
    for (const std::string& arg : argv) c_argv.push_back(const_cast<char*>(arg.c_str()));
    c_argv.push_back(nullptr);
    execvp(c_argv[0], c_argv.data());
    _exit(127);
  }
  setpgid(pid, pid);  // parent side of the race; EACCES after exec is fine
  {
    const util::LockGuard lock(mutex_);
    children_.push_back(pid);
  }

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s > 0 ? timeout_s : 1e9));
  bool killed = false;
  int status = 0;
  for (;;) {
    const pid_t reaped = waitpid(pid, &status, WNOHANG);
    if (reaped == pid) break;
    if (reaped < 0) {
      status = -1;
      break;
    }
    if (!killed && (std::chrono::steady_clock::now() >= deadline || !running_.load())) {
      kill(-pid, SIGKILL);
      killed = true;
      timed_out = std::chrono::steady_clock::now() >= deadline;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  {
    const util::LockGuard lock(mutex_);
    children_.erase(std::remove(children_.begin(), children_.end(), pid), children_.end());
  }
  if (status == -1) return false;
  if (WIFEXITED(status)) {
    exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    exit_code = 128 + WTERMSIG(status);
  }
  return true;
}

}  // namespace bitdew::jobs
