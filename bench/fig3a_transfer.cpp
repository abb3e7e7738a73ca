// Figure 3a: completion time of distributing one file to N nodes, BitDew
// driving FTP vs BitTorrent, on the GdX cluster. Sweep: file size
// {10..500 MB} x nodes {10..250}. The paper's result: BitTorrent clearly
// outperforms FTP for files > 20 MB and > 10 nodes, with near-flat scaling
// in N; FTP grows linearly once the server uplink saturates.
//
// `--real` switches to the real data plane (PR 3): an in-process bitdewd
// (rpc::ServiceHost on loopback over a WAL-backed, file-backed container,
// as `bitdewd --wal` runs) and N concurrent transfer::TcpTransfer streams
// measuring put/get throughput over actual sockets vs chunk size — the knob
// docs/deployment.md tells operators to tune. `--mb N` sets the per-stream
// file size (default 8).
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "api/remote_service_bus.hpp"
#include "api/session.hpp"
#include "api/transfer_manager.hpp"
#include "bench_common.hpp"
#include "rpc/server.hpp"
#include "runtime/sim_runtime.hpp"
#include "testbed/topologies.hpp"
#include "transfer/tcp.hpp"
#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace {

using namespace bitdew;

/// Distributes one file of `bytes` to `nodes` reservoirs via `protocol`;
/// returns the time from scheduling to the last completed replica.
double distribute(std::int64_t bytes, int nodes, const std::string& protocol) {
  sim::Simulator sim(23);
  net::Network net(sim);
  const auto cluster = testbed::make_cluster(net, testbed::ClusterSpec{"gdx", nodes + 1});
  runtime::SimRuntime runtime(sim, net, cluster.hosts[0]);

  // The service host doubles as FTP server / BT seeder (paper §4.3 setup).
  runtime::SimNode& master = runtime.add_node(cluster.hosts[0], /*reservoir=*/false);
  int completed = 0;
  double last_done = 0;
  for (int i = 1; i <= nodes; ++i) {
    runtime::SimNode& node = runtime.add_node(cluster.hosts[static_cast<std::size_t>(i)]);
    struct Done final : core::ActiveDataEventHandler {
      int* completed;
      double* last_done;
      sim::Simulator* sim;
      void on_data_copy(const core::Data&, const core::DataAttributes&) override {
        ++*completed;
        *last_done = sim->now();
      }
    };
    auto handler = std::make_shared<Done>();
    handler->completed = &completed;
    handler->last_done = &last_done;
    handler->sim = &sim;
    node.active_data().add_callback(handler);
  }

  const core::Content content = core::synthetic_content(7, bytes);
  const core::Data data = master.bitdew().create_data("payload", content);
  master.bitdew().put(data, content, nullptr, protocol);
  core::DataAttributes attributes;
  attributes.replica = core::kReplicaAll;
  attributes.protocol = protocol;
  const double start = sim.now();
  master.active_data().schedule(data, attributes);

  while (completed < nodes && sim.now() < 40000) {
    sim.run_until(sim.now() + 5.0);
  }
  return completed == nodes ? last_done - start : -1;
}

/// One measured cell of the real-socket sweep: `streams` concurrent
/// TcpTransfer uploads (then downloads) of `bytes` each against a live
/// ServiceHost, chunked at `chunk_bytes`. Returns {put_MBps, get_MBps}
/// aggregated across streams.
std::pair<double, double> real_cell(std::uint16_t port, const std::filesystem::path& dir,
                                    const std::string& payload, std::int64_t chunk_bytes,
                                    int streams) {
  api::TransferManager tm;
  tm.set_max_concurrent(streams);

  struct Stream {
    core::Data data;
    std::filesystem::path in_path;
    std::filesystem::path out_path;
  };
  std::vector<Stream> plan(static_cast<std::size_t>(streams));
  {
    // Register the slots over one control connection up front; the timed
    // region below is pure data plane.
    api::RemoteServiceBus control("127.0.0.1", port);
    api::BitDew bitdew(control, "bench");
    api::ActiveData active_data(control, "bench");
    api::Session session(bitdew, active_data);
    for (int i = 0; i < streams; ++i) {
      Stream& stream = plan[static_cast<std::size_t>(i)];
      stream.in_path = dir / ("in-" + std::to_string(chunk_bytes) + "-" + std::to_string(i));
      stream.out_path = dir / ("out-" + std::to_string(chunk_bytes) + "-" + std::to_string(i));
      std::ofstream(stream.in_path, std::ios::binary) << payload;
      const auto data = session.create_data(
          "real-" + std::to_string(chunk_bytes) + "-" + std::to_string(i),
          core::file_content(stream.in_path.string()));
      if (!data.ok()) throw std::runtime_error(data.error().to_string());
      stream.data = *data;
    }
  }

  auto run_phase = [&](bool upload) {
    const auto started = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    workers.reserve(plan.size());
    for (const Stream& stream : plan) {
      workers.emplace_back([&, stream] {
        // Each stream is its own out-of-band TCP connection.
        api::RemoteServiceBus bus("127.0.0.1", port);
        transfer::TcpTransfer engine(bus, transfer::TcpConfig{chunk_bytes, 3, false});
        tm.begin(stream.data.uid);
        const api::Status outcome =
            upload ? engine.put_file(stream.data, stream.in_path.string())
                   : engine.get_file(stream.data, stream.out_path.string());
        tm.finish(stream.data.uid, outcome);
        if (!outcome.ok()) {
          std::fprintf(stderr, "stream failed: %s\n", outcome.error().to_string().c_str());
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    const double elapsed = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - started).count();
    const double total_mb = static_cast<double>(payload.size()) * plan.size() / 1e6;
    return elapsed > 0 ? total_mb / elapsed : 0.0;
  };

  const double put_rate = run_phase(/*upload=*/true);
  const double get_rate = run_phase(/*upload=*/false);
  for (const Stream& stream : plan) {
    std::error_code ec;
    std::filesystem::remove(stream.in_path, ec);
    std::filesystem::remove(stream.out_path, ec);
  }
  return {put_rate, get_rate};
}

int run_real(int argc, char** argv) {
  using namespace bitdew::bench;
  const bool full = has_flag(argc, argv, "--full");
  const int mb = int_flag(argc, argv, "--mb", 8);

  const auto dir = std::filesystem::temp_directory_path() /
                   ("bitdew-fig3a-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  // The daemon's data plane: WAL-backed, so staged and published content
  // lives in files beside the WAL (bench.wal.content/).
  static util::SystemClock clock;
  services::ServiceContainer container("bench-dr", clock, (dir / "bench.wal").string());
  dht::LocalDht ddc;
  rpc::ServiceHost host(container, ddc, rpc::ServiceHostConfig{0, /*loopback_only=*/true, -1});
  const api::Status started = host.start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start host: %s\n", started.error().to_string().c_str());
    std::filesystem::remove_all(dir);
    return 1;
  }
  std::string payload(static_cast<std::size_t>(mb) * 1000 * 1000, '\0');
  util::Rng rng(0xf16a3);
  for (char& byte : payload) byte = static_cast<char>(rng.below(256));

  const std::vector<std::int64_t> chunk_sizes =
      full ? std::vector<std::int64_t>{64 << 10, 256 << 10, 1 << 20, 4 << 20}
           : std::vector<std::int64_t>{64 << 10, 256 << 10, 1 << 20};
  const std::vector<int> stream_counts = full ? std::vector<int>{1, 2, 4, 8}
                                              : std::vector<int>{1, 4};

  header("Figure 3a (real) — put/get throughput over live sockets vs chunk size",
         "real data plane: chunked, checksummed transfers to an in-process, "
         "file-backed bitdewd");
  std::printf("%-12s %-8s | %14s %14s\n", "chunk", "streams", "put(MB/s)", "get(MB/s)");
  rule();
  JsonEmitter json("fig3a_transfer_real", argc, argv);
  for (const std::int64_t chunk : chunk_sizes) {
    for (const int streams : stream_counts) {
      const auto [put_rate, get_rate] = real_cell(host.port(), dir, payload, chunk, streams);
      std::printf("%-12s %-8d | %14.1f %14.1f\n", util::human_bytes(chunk).c_str(), streams,
                  put_rate, get_rate);
      json.row({{"chunk_bytes", static_cast<double>(chunk)},
                {"streams", streams},
                {"file_mb", mb},
                {"storage", "file"},
                {"put_MBps", put_rate},
                {"get_MBps", get_rate}});
    }
  }
  std::printf("\nexpected shape: throughput rises with chunk size until the per-chunk\n"
              "round-trip stops dominating; concurrent streams help most at small chunks.\n");

  host.stop();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bitdew::bench;
  if (has_flag(argc, argv, "--real")) return run_real(argc, argv);
  const bool full = has_flag(argc, argv, "--full");
  const std::vector<std::int64_t> sizes =
      full ? std::vector<std::int64_t>{10, 50, 100, 250, 500}
           : std::vector<std::int64_t>{10, 100, 500};
  const std::vector<int> node_counts = full ? std::vector<int>{10, 20, 50, 100, 150, 200, 250}
                                            : std::vector<int>{10, 50, 150};

  header("Figure 3a — file distribution completion time, FTP vs BitTorrent",
         "paper Fig. 3a: sizes 10-500 MB, 10-250 nodes, GdX cluster");
  std::printf("%-10s %-8s | %12s %12s | %s\n", "size(MB)", "nodes", "ftp(s)", "bt(s)",
              "winner");
  rule();
  for (const std::int64_t mb : sizes) {
    for (const int nodes : node_counts) {
      const double ftp = distribute(mb * util::kMB, nodes, "ftp");
      const double bt = distribute(mb * util::kMB, nodes, "bittorrent");
      std::printf("%-10lld %-8d | %12.1f %12.1f | %s\n", static_cast<long long>(mb), nodes,
                  ftp, bt, bt < ftp ? "bittorrent" : "ftp");
    }
  }
  std::printf("\nexpected shape (paper): FTP ~linear in nodes (server uplink bound);\n"
              "BT ~flat; BT wins for size > 20MB and nodes > 10, FTP wins small/few.\n");
  return 0;
}
