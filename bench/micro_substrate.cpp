// google-benchmark micro-benchmarks of the substrates: MD5, the binary
// codec, RPC frame encode/decode (scalar vs batch envelopes), DewDB
// operations (indexed vs scanned finds), the max-min solver, DHT key
// hashing, and live pipelined RPC over a loopback epoll ServiceHost. These
// are the per-operation costs behind the macro-benches.
//
// `micro_substrate --pipeline-gate` runs the CI assertion instead of the
// benchmarks: frames/s over one real loopback connection at pipeline depth
// 8 must be >= 2x depth 1 on the same build. JSON on stdout, exit 1 on a
// miss.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string_view>

#include "api/remote_service_bus.hpp"
#include "db/database.hpp"
#include "dht/ring_math.hpp"
#include "net/network.hpp"
#include "rpc/codec.hpp"
#include "rpc/server.hpp"
#include "rpc/wire.hpp"
#include "sim/simulator.hpp"
#include "util/clock.hpp"
#include "util/md5.hpp"
#include "util/rng.hpp"

namespace {

using namespace bitdew;

void BM_Md5Digest64K(benchmark::State& state) {
  const std::string payload(64 * 1024, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Md5::of(payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64 * 1024);
}
BENCHMARK(BM_Md5Digest64K);

void BM_CodecRowRoundTrip(benchmark::State& state) {
  db::Row row;
  row["uid"] = std::string("00000000-0000-0000-0000-000000000001");
  row["name"] = std::string("genome");
  row["size"] = std::int64_t{123456};
  row["checksum"] = std::string("00112233445566778899aabbccddeeff");
  for (auto _ : state) {
    rpc::Writer writer;
    db::encode_row(writer, row);
    rpc::Reader reader(writer.buffer());
    benchmark::DoNotOptimize(db::decode_row(reader));
  }
}
BENCHMARK(BM_CodecRowRoundTrip);

core::Data frame_datum(int i) {
  core::Data data;
  data.uid = util::Auid{0xbead, static_cast<std::uint64_t>(i)};
  data.name = "datum-" + std::to_string(i);
  data.checksum = "00112233445566778899aabbccddeeff";
  data.size = 1 << 20;
  return data;
}

// One dc_register RPC frame (header + body) encoded and decoded per
// iteration — the per-call framing cost RemoteServiceBus/ServiceHost pay on
// the scalar path.
void BM_WireFrameScalarRegister(benchmark::State& state) {
  const core::Data data = frame_datum(1);
  std::int64_t frame_bytes = 0;
  for (auto _ : state) {
    rpc::Writer w;
    rpc::wire::write_frame_header(w, {rpc::wire::Endpoint::kDcRegister, 42});
    rpc::wire::write_data(w, data);
    frame_bytes = static_cast<std::int64_t>(w.size());
    rpc::Reader r(w.buffer());
    benchmark::DoNotOptimize(rpc::wire::read_frame_header(r));
    benchmark::DoNotOptimize(rpc::wire::read_data(r));
  }
  state.SetBytesProcessed(state.iterations() * frame_bytes);
  state.counters["bytes_per_item"] = static_cast<double>(frame_bytes);
}
BENCHMARK(BM_WireFrameScalarRegister);

// One dc_register_batch frame carrying N data per iteration: the envelope
// (frame header + list count) amortizes over the batch, so bytes_per_item
// approaches the raw payload size as N grows — the wire-level half of the
// bulk endpoints' claim, measured on real encoded bytes.
void BM_WireFrameBatchRegister(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  std::vector<core::Data> items;
  items.reserve(static_cast<std::size_t>(batch));
  for (int i = 0; i < batch; ++i) items.push_back(frame_datum(i));
  std::int64_t frame_bytes = 0;
  for (auto _ : state) {
    rpc::Writer w;
    rpc::wire::write_frame_header(w, {rpc::wire::Endpoint::kDcRegisterBatch, 42});
    rpc::wire::write_register_batch(w, items);
    frame_bytes = static_cast<std::int64_t>(w.size());
    rpc::Reader r(w.buffer());
    benchmark::DoNotOptimize(rpc::wire::read_frame_header(r));
    benchmark::DoNotOptimize(rpc::wire::read_register_batch(r));
  }
  state.SetBytesProcessed(state.iterations() * frame_bytes);
  state.counters["bytes_per_item"] = static_cast<double>(frame_bytes) / batch;
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_WireFrameBatchRegister)->Arg(1)->Arg(16)->Arg(64)->Arg(256);

void BM_DewDbInsert(benchmark::State& state) {
  db::Database database;
  database.create_table(db::TableSchema{"t", "uid", {"name"}});
  std::uint64_t i = 0;
  for (auto _ : state) {
    db::Row row;
    row["uid"] = std::to_string(i++);
    row["name"] = std::string("n");
    benchmark::DoNotOptimize(database.insert("t", std::move(row)));
  }
}
BENCHMARK(BM_DewDbInsert);

void BM_DewDbFind(benchmark::State& state) {
  const bool indexed = state.range(0) != 0;
  db::Database database;
  database.create_table(db::TableSchema{
      "t", "uid", indexed ? std::vector<std::string>{"name"} : std::vector<std::string>{}});
  for (int i = 0; i < 10000; ++i) {
    db::Row row;
    row["uid"] = std::to_string(i);
    row["name"] = std::string("n") + std::to_string(i % 100);
    database.insert("t", std::move(row));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(database.find("t", "name", db::Value{std::string("n42")}));
  }
  state.SetLabel(indexed ? "indexed" : "scan");
}
BENCHMARK(BM_DewDbFind)->Arg(0)->Arg(1);

void BM_MaxMinRecompute(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  sim::Simulator sim(1);
  net::Network net(sim);
  net.set_sharing_model(net::SharingModel::kMaxMin);
  const auto zone = net.add_zone("z");
  net::HostSpec server_spec;
  server_spec.name = "server";
  const auto server = net.add_host(zone, server_spec);
  std::vector<net::HostId> clients;
  for (int i = 0; i < flows; ++i) {
    net::HostSpec spec;
    spec.name = "c" + std::to_string(i);
    clients.push_back(net.add_host(zone, spec));
  }
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator fresh(1);
    net::Network fresh_net(fresh);
    fresh_net.set_sharing_model(net::SharingModel::kMaxMin);
    const auto z = fresh_net.add_zone("z");
    net::HostSpec ss;
    ss.name = "server";
    const auto s = fresh_net.add_host(z, ss);
    std::vector<net::HostId> cs;
    for (int i = 0; i < flows; ++i) {
      net::HostSpec spec;
      spec.name = "c" + std::to_string(i);
      cs.push_back(fresh_net.add_host(z, spec));
    }
    state.ResumeTiming();
    for (int i = 0; i < flows; ++i) {
      fresh_net.start_flow(s, cs[static_cast<std::size_t>(i)], 1000,
                           [](const net::FlowResult&) {});
    }
    fresh.run();
  }
  (void)server;
  (void)clients;
}
BENCHMARK(BM_MaxMinRecompute)->Arg(16)->Arg(64);

void BM_RingHash(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dht::ring_hash("data-" + std::to_string(i++)));
  }
}
BENCHMARK(BM_RingHash);

// --- live pipelined RPC over the epoll ServiceHost ----------------------------

/// One loopback daemon + bus, a registered datum, and a frames/s probe.
struct LoopbackRig {
  LoopbackRig() : container("server", clock), host(container, ddc, {0, true, -1}) {
    if (!host.start().ok()) std::abort();
    bus = std::make_unique<api::RemoteServiceBus>("127.0.0.1", host.port(),
                                                  api::RemoteBusConfig{2.0, 10.0});
    datum.uid = util::next_auid();
    datum.name = "bench";
    datum.size = 1 << 20;
    datum.checksum = "00112233445566778899aabbccddeeff";
    bool ok = false;
    bus->dc_register(datum, [&ok](api::Status s) { ok = s.ok(); });
    if (!ok) std::abort();
  }

  /// Issues `calls` dc_get frames at the given pipeline depth and returns
  /// the completed-frames-per-second over the wall clock.
  double frames_per_s(int depth, int calls) {
    bus->set_pipeline_depth(depth);
    int completed = 0;
    const auto begin = std::chrono::steady_clock::now();
    for (int i = 0; i < calls; ++i) {
      bus->dc_get(datum.uid, [&completed](api::Expected<core::Data> reply) {
        if (reply.ok()) ++completed;
      });
    }
    bus->drain();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
    if (completed != calls || elapsed <= 0) return 0;
    return calls / elapsed;
  }

  util::ManualClock clock;
  services::ServiceContainer container;
  dht::LocalDht ddc;
  rpc::ServiceHost host;
  std::unique_ptr<api::RemoteServiceBus> bus;
  core::Data datum;
};

// Real sockets, real epoll host: the per-call cost of a scalar RPC at
// pipeline depth N. Depth 1 pays a full round trip (two context switches)
// per frame; deeper windows amortize the wakeups across the in-flight
// frames.
void BM_RpcLoopbackScalar(benchmark::State& state) {
  static LoopbackRig rig;  // one daemon for every depth arg
  const int depth = static_cast<int>(state.range(0));
  rig.bus->set_pipeline_depth(depth);
  int completed = 0;
  for (auto _ : state) {
    rig.bus->dc_get(rig.datum.uid, [&completed](api::Expected<core::Data> reply) {
      if (reply.ok()) ++completed;
    });
    if (rig.bus->in_flight() >= static_cast<std::size_t>(depth)) rig.bus->pump();
  }
  rig.bus->drain();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RpcLoopbackScalar)->Arg(1)->Arg(8);

/// The CI gate: depth-8 pipelining must at least double depth-1 throughput
/// on the same build. Three rounds, best ratio wins (one noisy round on a
/// shared runner must not flake the gate).
int run_pipeline_gate() {
  constexpr int kCalls = 2000;
  constexpr double kThreshold = 2.0;
  LoopbackRig rig;
  rig.frames_per_s(1, 200);  // warm up: connection, allocator, branch caches
  double depth1 = 0;
  double depth8 = 0;
  double ratio = 0;
  for (int round = 0; round < 3 && ratio < kThreshold; ++round) {
    const double d1 = rig.frames_per_s(1, kCalls);
    const double d8 = rig.frames_per_s(8, kCalls);
    if (d1 <= 0 || d8 <= 0) continue;
    if (d8 / d1 > ratio) {
      ratio = d8 / d1;
      depth1 = d1;
      depth8 = d8;
    }
  }
  const bool pass = ratio >= kThreshold;
  std::printf(
      "{\"bench\":\"micro_substrate_pipeline_gate\",\"calls\":%d,"
      "\"depth1_frames_per_s\":%.0f,\"depth8_frames_per_s\":%.0f,"
      "\"ratio\":%.2f,\"threshold\":%.1f,\"pass\":%s}\n",
      kCalls, depth1, depth8, ratio, kThreshold, pass ? "true" : "false");
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--pipeline-gate") return run_pipeline_gate();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
