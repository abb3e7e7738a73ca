// Table 2: data-slot creations per second (thousands), across
//   {local, rmi local, rmi remote} x {server-engine (MySQL role),
//    embedded-engine (HsqlDB role)} x {without, with connection pool}.
//
// This bench measures REAL wall-clock throughput of real code: the binary
// codec, the DewDB engines (the server engine crosses an AF_UNIX socketpair
// to a separate thread with an authentication handshake per connection) and
// the call paths:
//   local      — direct function call into the Data Catalog op;
//   rmi local  — request/response serialized through a worker thread
//                (in-process RPC, the paper's same-machine RMI);
//   rmi remote — same, plus a calibrated wire latency per round-trip
//                (--wire-latency-us, default 150) standing in for the
//                cluster network we do not have. This injection is the only
//                non-measured component and is reported in the output.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "bench_common.hpp"
#include "db/database.hpp"
#include "db/embedded_engine.hpp"
#include "db/pool.hpp"
#include "db/server_engine.hpp"
#include "runtime/sim_service_bus.hpp"
#include "testbed/topologies.hpp"
#include "util/auid.hpp"

namespace {

using namespace bitdew;

db::Command make_insert() {
  db::Command command;
  command.op = db::Op::kInsert;
  command.table = "dc_data";
  command.row["uid"] = util::next_auid().str();
  command.row["name"] = std::string("slot");
  command.row["size"] = std::int64_t{1024};
  command.row["checksum"] = std::string("00112233445566778899aabbccddeeff");
  return command;
}

/// In-process RPC worker: requests are codec-serialized, executed on a
/// dedicated thread, responses serialized back (the "RMI" hop).
class RpcWorker {
 public:
  explicit RpcWorker(std::function<std::string(const std::string&)> handler)
      : handler_(std::move(handler)), thread_([this] { loop(); }) {}

  ~RpcWorker() {
    {
      const std::lock_guard lock(mutex_);
      stopping_ = true;
    }
    request_ready_.notify_all();
    thread_.join();
  }

  std::string call(const std::string& request) {
    std::unique_lock lock(mutex_);
    request_ = request;
    has_request_ = true;
    request_ready_.notify_one();
    response_ready_.wait(lock, [this] { return has_response_; });
    has_response_ = false;
    return std::move(response_);
  }

 private:
  void loop() {
    std::unique_lock lock(mutex_);
    while (true) {
      request_ready_.wait(lock, [this] { return has_request_ || stopping_; });
      if (stopping_) return;
      has_request_ = false;
      const std::string request = std::move(request_);
      lock.unlock();
      std::string response = handler_(request);
      lock.lock();
      response_ = std::move(response);
      has_response_ = true;
      response_ready_.notify_one();
    }
  }

  std::function<std::string(const std::string&)> handler_;
  std::mutex mutex_;
  std::condition_variable request_ready_;
  std::condition_variable response_ready_;
  std::string request_;
  std::string response_;
  bool has_request_ = false;
  bool has_response_ = false;
  bool stopping_ = false;
  std::thread thread_;
};

void spin_for_us(int micros) {
  const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(micros);
  while (std::chrono::steady_clock::now() < until) {
  }
}

struct Scenario {
  const char* call_path;  // local / rmi local / rmi remote
  const char* engine;     // server (MySQL role) / embedded (HsqlDB role)
  bool pooled;
};

double run_scenario(const Scenario& scenario, double seconds, int wire_latency_us) {
  db::Database database;
  database.create_table(db::TableSchema{"dc_data", "uid", {"name"}});

  std::unique_ptr<db::Engine> engine;
  if (std::string(scenario.engine) == "server") {
    engine = std::make_unique<db::ServerEngine>(database);
  } else {
    engine = std::make_unique<db::EmbeddedEngine>(database);
  }
  db::ConnectionPool pool(*engine, 4);

  // The Data Catalog op: one slot creation through the chosen engine.
  auto execute = [&](const db::Command& command) {
    if (scenario.pooled) {
      auto lease = pool.acquire();
      return lease->execute(command);
    }
    const auto connection = engine->connect();  // fresh connection per op
    return connection->execute(command);
  };

  // The RPC hop serializes command/response through the codec.
  auto service = [&execute](const std::string& request) {
    rpc::Reader reader(request);
    const db::Command command = db::decode_command(reader);
    const db::Response response = execute(command);
    rpc::Writer writer;
    db::encode_response(writer, response);
    return writer.take();
  };
  RpcWorker worker(service);

  const std::string path(scenario.call_path);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
  std::uint64_t ops = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const db::Command command = make_insert();
    if (path == "local") {
      const db::Response response = execute(command);
      if (!response.ok) std::abort();
    } else {
      rpc::Writer writer;
      db::encode_command(writer, command);
      if (path == "rmi remote") spin_for_us(wire_latency_us);  // request wire
      const std::string reply = worker.call(writer.buffer());
      if (path == "rmi remote") spin_for_us(wire_latency_us);  // response wire
      rpc::Reader reader(reply);
      if (!db::decode_response(reader).ok) std::abort();
    }
    ++ops;
  }
  return static_cast<double>(ops) / seconds;
}

// --- ServiceBus v2: batched slot creation over the simulated bus -------------
// The scalar path pays one request flow, one FIFO service slot and one
// response flow per datum; dc_register_batch amortizes that envelope over N
// items (per-item service time preserved). Reported per registered datum:
// RPCs, service-queue events and total simulator events.

struct BusOutcome {
  std::uint64_t rpcs = 0;
  std::uint64_t service_events = 0;
  std::uint64_t sim_events = 0;
  double virtual_s = 0;
  std::size_t registered = 0;
};

BusOutcome run_bus_registration(int count, int batch) {
  sim::Simulator sim(7);
  net::Network net(sim);
  const auto cluster = testbed::make_cluster(net, testbed::ClusterSpec{"gdx", 2});
  services::ServiceContainer container(net.host_name(cluster.hosts[0]), sim);
  runtime::ServiceQueue queue(sim, 500e-6);
  dht::LocalDht ddc;
  runtime::SimServiceBus bus(sim, net, cluster.hosts[1], cluster.hosts[0], container, queue,
                             ddc);

  std::vector<core::Data> items;
  items.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    core::Data data;
    data.uid = util::next_auid();
    data.name = "slot";
    data.size = 1024;
    data.checksum = "00112233445566778899aabbccddeeff";
    items.push_back(std::move(data));
  }

  BusOutcome outcome;
  if (batch <= 1) {
    for (const core::Data& data : items) {
      bus.dc_register(data, [&outcome](api::Status status) {
        if (status.ok()) ++outcome.registered;
      });
    }
  } else {
    for (std::size_t start = 0; start < items.size();
         start += static_cast<std::size_t>(batch)) {
      const std::size_t end =
          std::min(items.size(), start + static_cast<std::size_t>(batch));
      const std::vector<core::Data> chunk(items.begin() + static_cast<std::ptrdiff_t>(start),
                                          items.begin() + static_cast<std::ptrdiff_t>(end));
      bus.dc_register_batch(chunk, [&outcome](api::BatchStatus statuses) {
        for (const api::Status& status : statuses) {
          if (status.ok()) ++outcome.registered;
        }
      });
    }
  }
  sim.run();
  outcome.rpcs = bus.rpc_count();
  outcome.service_events = queue.served();
  outcome.sim_events = sim.executed();
  outcome.virtual_s = sim.now();
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bitdew::bench;
  const bool full = has_flag(argc, argv, "--full");
  const double seconds = full ? 2.0 : 0.25;
  const int wire_latency_us = 150;
  const int batch = int_flag(argc, argv, "--batch", 64);
  JsonEmitter json("table2_core_ops", argc, argv);

  header("Table 2 — data slot creation throughput (thousands of dc/sec)",
         "paper Table 2: local/RMI x MySQL/HsqlDB x DBCP");
  std::printf("measurement window: %.2fs per cell; injected wire latency for"
              " 'rmi remote': %dus each way\n\n",
              seconds, wire_latency_us);

  std::printf("%-12s | %-22s | %-22s\n", "", "without pool", "with pool");
  std::printf("%-12s | %-10s %-10s | %-10s %-10s\n", "call path", "server", "embedded",
              "server", "embedded");
  rule();
  for (const char* path : {"local", "rmi local", "rmi remote"}) {
    double cells[4] = {0, 0, 0, 0};
    int i = 0;
    for (const bool pooled : {false, true}) {
      for (const char* engine : {"server", "embedded"}) {
        cells[i++] = run_scenario(Scenario{path, engine, pooled}, seconds, wire_latency_us);
      }
    }
    std::printf("%-12s | %-10.2f %-10.2f | %-10.2f %-10.2f\n", path, cells[0] / 1000.0,
                cells[1] / 1000.0, cells[2] / 1000.0, cells[3] / 1000.0);
    json.row({{"section", "engine"},
              {"call_path", path},
              {"server_dc_per_s", cells[0]},
              {"embedded_dc_per_s", cells[1]},
              {"server_pooled_dc_per_s", cells[2]},
              {"embedded_pooled_dc_per_s", cells[3]}});
  }
  std::printf(
      "\nexpected shape (paper): embedded > server; pooled > unpooled;\n"
      "local > rmi local > rmi remote. Absolute numbers differ (C++ vs Java).\n");

  // --- ServiceBus v2: batch amortization over the simulated bus --------------
  const int registrations = full ? 2048 : 256;
  std::printf("\nbatched registration over the simulated ServiceBus"
              " (%d data, --batch %d)\n", registrations, batch);
  std::printf("%-10s | %10s | %14s | %12s | %10s\n", "batch", "rpcs/datum",
              "svc events/dat", "sim evts/dat", "virtual s");
  rule();
  double scalar_service_events = 0;
  double batched_service_events = 0;
  std::vector<int> sizes{1, 8};
  if (batch > 1 && batch != 8) sizes.push_back(batch);
  for (const int size : sizes) {
    const BusOutcome outcome = run_bus_registration(registrations, size);
    const double n = static_cast<double>(outcome.registered ? outcome.registered : 1);
    const double service_per_datum = static_cast<double>(outcome.service_events) / n;
    std::printf("%-10d | %10.3f | %14.4f | %12.2f | %10.4f\n", size,
                static_cast<double>(outcome.rpcs) / n, service_per_datum,
                static_cast<double>(outcome.sim_events) / n, outcome.virtual_s);
    json.row({{"section", "batch"},
              {"batch", size},
              {"registered", static_cast<double>(outcome.registered)},
              {"rpcs_per_datum", static_cast<double>(outcome.rpcs) / n},
              {"service_events_per_datum", service_per_datum},
              {"sim_events_per_datum", static_cast<double>(outcome.sim_events) / n},
              {"virtual_s", outcome.virtual_s}});
    if (size == 1) scalar_service_events = service_per_datum;
    if (size == batch) batched_service_events = service_per_datum;
  }
  if (batch > 1 && batched_service_events > 0) {
    std::printf("\nservice events per datum, scalar vs batch=%d: %.1fx fewer\n", batch,
                scalar_service_events / batched_service_events);
  }
  return 0;
}
