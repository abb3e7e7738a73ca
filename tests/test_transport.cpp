// TCP transport tests: length-prefixed framing (round-trips, deadlines,
// oversize rejection), ServiceHost hardening — malformed, truncated or
// fuzzed frames must produce a typed decode failure and a dropped
// connection, never a crash, a hang, or a wedged server — and the real data
// plane over live sockets: chunked put/get round trips, resume across a
// daemon kill + WAL restart, mid-stream corruption, and concurrent streams.
// Everything runs on loopback sockets with ephemeral ports.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/remote_service_bus.hpp"
#include "api/session.hpp"
#include "api/transfer_manager.hpp"
#include "rpc/reactor.hpp"
#include "rpc/server.hpp"
#include "rpc/transport.hpp"
#include "transfer/peer.hpp"
#include "transfer/tcp.hpp"
#include "util/md5.hpp"
#include "util/rng.hpp"

namespace bitdew {
namespace {

using api::Errc;
using api::Status;

/// A listener + connected client pair on loopback.
struct SocketPair {
  SocketPair() {
    auto listener = rpc::tcp_listen(0, /*loopback_only=*/true);
    if (!listener.ok()) throw std::runtime_error(listener.error().to_string());
    server_listener = std::move(listener->fd);
    auto connected = rpc::tcp_connect("127.0.0.1", listener->port, 1.0);
    if (!connected.ok()) throw std::runtime_error(connected.error().to_string());
    client = std::move(*connected);
    server = rpc::tcp_accept(server_listener.get(), 1.0);
    if (!server.valid()) throw std::runtime_error("accept failed");
  }

  rpc::Fd server_listener;
  rpc::Fd client;
  rpc::Fd server;
};

TEST(Framing, RoundTripsPayloads) {
  SocketPair pair;
  const std::string payloads[] = {"", "x", std::string("bin\0ary", 7), std::string(100000, 'q')};
  for (const std::string& payload : payloads) {
    ASSERT_TRUE(rpc::send_frame(pair.client.get(), payload));
    const rpc::RecvResult received = rpc::recv_frame(pair.server.get(), 1.0);
    ASSERT_EQ(received.status, rpc::IoStatus::kOk);
    EXPECT_EQ(received.payload, payload);
  }
}

TEST(Framing, BackToBackFramesStayDelimited) {
  SocketPair pair;
  ASSERT_TRUE(rpc::send_frame(pair.client.get(), "first"));
  ASSERT_TRUE(rpc::send_frame(pair.client.get(), "second"));
  ASSERT_TRUE(rpc::send_frame(pair.client.get(), ""));
  EXPECT_EQ(rpc::recv_frame(pair.server.get(), 1.0).payload, "first");
  EXPECT_EQ(rpc::recv_frame(pair.server.get(), 1.0).payload, "second");
  const rpc::RecvResult third = rpc::recv_frame(pair.server.get(), 1.0);
  EXPECT_EQ(third.status, rpc::IoStatus::kOk);
  EXPECT_TRUE(third.payload.empty());
}

TEST(Framing, DeadlineExpiresAsTimeout) {
  SocketPair pair;
  const rpc::RecvResult received = rpc::recv_frame(pair.server.get(), 0.05);
  EXPECT_EQ(received.status, rpc::IoStatus::kTimeout);
}

TEST(Framing, PeerCloseIsClosedNotError) {
  SocketPair pair;
  pair.client.reset();
  const rpc::RecvResult received = rpc::recv_frame(pair.server.get(), 1.0);
  EXPECT_EQ(received.status, rpc::IoStatus::kClosed);
}

TEST(Framing, TornFrameIsError) {
  SocketPair pair;
  // A length prefix promising 100 bytes, then the peer dies after 3.
  rpc::Writer w;
  w.u32(100);
  w.append_raw("abc");
  ASSERT_TRUE(rpc::send_frame(pair.client.get(), "ignored"));  // keep stream warm
  ASSERT_EQ(rpc::recv_frame(pair.server.get(), 1.0).status, rpc::IoStatus::kOk);
  ::send(pair.client.get(), w.buffer().data(), w.size(), MSG_NOSIGNAL);
  pair.client.reset();
  const rpc::RecvResult received = rpc::recv_frame(pair.server.get(), 1.0);
  EXPECT_EQ(received.status, rpc::IoStatus::kError);
}

TEST(Framing, OversizeLengthPrefixRejectedBeforeAllocation) {
  SocketPair pair;
  rpc::Writer w;
  w.u32(0xffffffffu);  // 4 GiB claim
  ::send(pair.client.get(), w.buffer().data(), w.size(), MSG_NOSIGNAL);
  const rpc::RecvResult received = rpc::recv_frame(pair.server.get(), 1.0);
  EXPECT_EQ(received.status, rpc::IoStatus::kOversize);
}

// --- EpollServer: the readiness-loop substrate -------------------------------

/// An echo reactor; frames starting with "slow" stall their worker first.
rpc::EpollServer make_echo_reactor(int workers = 4) {
  return rpc::EpollServer(
      [](std::uint64_t, const std::string& frame) -> std::optional<rpc::ReplyFrame> {
        if (frame.rfind("slow", 0) == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(300));
        }
        rpc::ReplyFrame reply;
        reply.bytes = frame;
        return reply;
      },
      rpc::EpollServerConfig{0, true, -1, 30, workers, 32});
}

TEST(EpollReactor, SlowHandlerDoesNotBlockOtherRequestsOnOneSocket) {
  rpc::EpollServer server = make_echo_reactor();
  ASSERT_TRUE(server.start().ok());
  auto connected = rpc::tcp_connect("127.0.0.1", server.port(), 1.0);
  ASSERT_TRUE(connected.ok());
  // Both frames ride the SAME connection; the slow one is first on the
  // wire. The fast reply must come back first — the loop hands frames to
  // the worker pool and completes replies out of order.
  ASSERT_TRUE(rpc::send_frame(connected->get(), "slow-one"));
  ASSERT_TRUE(rpc::send_frame(connected->get(), "fast-two"));
  const rpc::RecvResult first = rpc::recv_frame(connected->get(), 5.0);
  ASSERT_EQ(first.status, rpc::IoStatus::kOk);
  EXPECT_EQ(first.payload, "fast-two");
  const rpc::RecvResult second = rpc::recv_frame(connected->get(), 5.0);
  ASSERT_EQ(second.status, rpc::IoStatus::kOk);
  EXPECT_EQ(second.payload, "slow-one");
  EXPECT_EQ(server.requests_served(), 2u);
  server.stop();
}

TEST(EpollReactor, StopStartFlapSurvivesRacingConnects) {
  // stop() must drain the loop and join the workers deterministically even
  // while a dialer races late accepts against it (run under TSan in CI).
  rpc::EpollServer server = make_echo_reactor(2);
  std::atomic<bool> done{false};
  std::atomic<std::uint16_t> port{0};
  std::thread dialer([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::uint16_t p = port.load(std::memory_order_acquire);
      if (p == 0) continue;
      auto c = rpc::tcp_connect("127.0.0.1", p, 0.2);
      if (c.ok()) rpc::send_frame(c->get(), "hello", 0.2);
    }
  });
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(server.start().ok());
    port.store(server.port(), std::memory_order_release);
    auto probe = rpc::tcp_connect("127.0.0.1", server.port(), 1.0);
    if (probe.ok() && rpc::send_frame(probe->get(), "probe")) {
      EXPECT_EQ(rpc::recv_frame(probe->get(), 2.0).payload, "probe");
    }
    server.stop();
    EXPECT_FALSE(server.running());
  }
  done.store(true, std::memory_order_release);
  dialer.join();
}

TEST(EpollReactor, TenThousandIdleConnectionsSmoke) {
  rlimit limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &limit), 0);
  if (limit.rlim_cur < limit.rlim_max) {
    limit.rlim_cur = limit.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &limit);
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &limit), 0);
  }
  // Each idle client costs two descriptors in this process (dialed side +
  // accepted side); keep headroom for the suite's own files.
  const std::size_t budget =
      limit.rlim_cur > 600 ? (static_cast<std::size_t>(limit.rlim_cur) - 600) / 2 : 0;
  const std::size_t target = std::min<std::size_t>(10000, budget);
  if (target < 100) GTEST_SKIP() << "RLIMIT_NOFILE too low for an idle-connection smoke";

  rpc::EpollServer server = make_echo_reactor(2);
  ASSERT_TRUE(server.start().ok());
  std::vector<rpc::Fd> idle;
  idle.reserve(target);
  for (std::size_t i = 0; i < target; ++i) {
    auto connected = rpc::tcp_connect("127.0.0.1", server.port(), 5.0);
    ASSERT_TRUE(connected.ok()) << "connection " << i << ": " << connected.error().to_string();
    idle.push_back(std::move(*connected));
    // Pace the dialing so the accept loop never falls a full backlog behind.
    if (i % 512 == 0) {
      while (i > server.connections_open() + 2048) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.connections_open() < target &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.connections_open(), target);

  // The loop still serves requests with every slot occupied.
  auto active = rpc::tcp_connect("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(active.ok());
  ASSERT_TRUE(rpc::send_frame(active->get(), "still-alive"));
  EXPECT_EQ(rpc::recv_frame(active->get(), 5.0).payload, "still-alive");
  idle.clear();
  server.stop();
}

// --- ServiceHost hardening ---------------------------------------------------

struct HostRig {
  /// An in-memory container, or a WAL-backed one at `wal` (content in
  /// `<wal>.content/`, as in every bitdewd --wal).
  explicit HostRig(const std::string& wal = {})
      : owned(wal.empty() ? std::make_unique<services::ServiceContainer>("server", clock)
                          : std::make_unique<services::ServiceContainer>("server", clock, wal)),
        container(*owned),
        host(container, ddc, {0, true, -1}) {
    const Status started = host.start();
    if (!started.ok()) throw std::runtime_error(started.error().to_string());
  }

  /// Sends raw bytes as one frame and returns the connection outcome.
  rpc::IoStatus poke(std::string_view frame_payload) {
    auto connected = rpc::tcp_connect("127.0.0.1", host.port(), 1.0);
    if (!connected.ok()) return rpc::IoStatus::kError;
    if (!rpc::send_frame(connected->get(), frame_payload)) return rpc::IoStatus::kError;
    return rpc::recv_frame(connected->get(), 2.0).status;
  }

  /// The server must still answer a well-formed request.
  bool alive() {
    api::RemoteServiceBus bus("127.0.0.1", host.port(), api::RemoteBusConfig{1.0, 2.0});
    return bus.ping().ok();
  }

  util::ManualClock clock;
  std::unique_ptr<services::ServiceContainer> owned;
  services::ServiceContainer& container;
  dht::LocalDht ddc;
  rpc::ServiceHost host;
};

TEST(ServiceHostHardening, GarbageFrameDropsConnectionNotServer) {
  HostRig rig;
  // Unknown endpoint id: decode fails typed, connection drops (kClosed).
  rpc::Writer w;
  w.u16(0x7fff);
  w.u64(1);
  EXPECT_EQ(rig.poke(w.buffer()), rpc::IoStatus::kClosed);
  EXPECT_GE(rig.host.frames_rejected(), 1u);
  EXPECT_TRUE(rig.alive());
}

TEST(ServiceHostHardening, TruncatedRequestBodyDropsConnection) {
  HostRig rig;
  // A valid dc_get header but only half an Auid behind it.
  rpc::Writer w;
  rpc::wire::write_frame_header(w, {rpc::wire::Endpoint::kDcGet, 7});
  w.u64(0xdead);  // Auid needs 16 bytes; this is 8
  EXPECT_EQ(rig.poke(w.buffer()), rpc::IoStatus::kClosed);
  EXPECT_TRUE(rig.alive());
}

TEST(ServiceHostHardening, TrailingGarbageAfterRequestDropsConnection) {
  HostRig rig;
  rpc::Writer w;
  rpc::wire::write_frame_header(w, {rpc::wire::Endpoint::kPing, 1});
  w.str("stowaway bytes the ping request does not define");
  EXPECT_EQ(rig.poke(w.buffer()), rpc::IoStatus::kClosed);
  EXPECT_TRUE(rig.alive());
}

TEST(ServiceHostHardening, FuzzedFramesNeverKillTheServer) {
  HostRig rig;
  util::Rng rng(0xb17d3);
  for (int round = 0; round < 64; ++round) {
    std::string garbage;
    const std::uint64_t length = rng.below(256);
    garbage.reserve(length);
    for (std::uint64_t i = 0; i < length; ++i) {
      garbage.push_back(static_cast<char>(rng.below(256)));
    }
    rig.poke(garbage);  // outcome may be kClosed (dropped) or kOk (it
                        // happened to decode) — what matters is survival
  }
  EXPECT_TRUE(rig.alive());
}

TEST(ServiceHostHardening, EveryEndpointSurvivesGarbageBodies) {
  HostRig rig;
  util::Rng rng(0x5eed);
  // Every wire endpoint, by wire value: a new endpoint is probed the moment
  // it joins the enum.
  for (std::uint16_t id = 0; id < static_cast<std::uint16_t>(rpc::wire::Endpoint::kEndpointCount);
       ++id) {
    const auto endpoint = static_cast<rpc::wire::Endpoint>(id);
    // A well-formed header for a real endpoint followed by bodies the
    // decoder never agreed to: empty, short, and random bytes. Every
    // outcome must be a typed reply or a dropped connection — the host
    // answers a clean ping afterwards either way.
    for (int round = 0; round < 3; ++round) {
      rpc::Writer w;
      rpc::wire::write_frame_header(w, {endpoint, rng.below(1u << 16)});
      const std::uint64_t length = round == 0 ? 0 : rng.below(96);
      for (std::uint64_t i = 0; i < length; ++i) {
        w.u8(static_cast<std::uint8_t>(rng.below(256)));
      }
      rig.poke(w.buffer());
    }
    EXPECT_TRUE(rig.alive()) << "host wedged by garbage "
                             << rpc::wire::endpoint_name(endpoint) << " bodies";
  }
}

// --- the data plane over live sockets -----------------------------------------

/// A fresh temporary directory, removed at destruction.
struct TempDir {
  TempDir()
      : dir(std::filesystem::temp_directory_path() /
            ("bitdew-dataplane-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter()++))) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
  ~TempDir() { std::filesystem::remove_all(dir); }

  static int& counter() {
    static int value = 0;
    return value;
  }

  std::filesystem::path dir;
};

/// Which container a host serves from: an in-memory one, whose repository
/// keeps content in a private temp dir, or a WAL-backed one, whose content
/// lives in `<wal>.content/` (every bitdewd --wal).
enum class Storage { kInMemory, kFileBacked };

/// A host over either container (its WAL in the temp dir), plus the
/// filesystem and registered-datum helpers shared by the data-plane tests.
struct DataPlaneRig : TempDir, HostRig {
  explicit DataPlaneRig(Storage storage)
      : HostRig(storage == Storage::kFileBacked ? (dir / "bitdewd.wal").string()
                                                : std::string()) {}

  std::string make_payload(std::size_t size, int salt = 0) {
    std::string payload(size, '\0');
    for (std::size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<char>((i * 211 + 13 + static_cast<std::size_t>(salt)) & 0xff);
    }
    return payload;
  }

  std::string write_file(const std::string& name, const std::string& bytes) {
    const std::string path = (dir / name).string();
    std::ofstream(path, std::ios::binary) << bytes;
    return path;
  }

  std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }

  core::Data register_data(api::RemoteServiceBus& bus, const std::string& name,
                           const std::string& path) {
    core::Data data;
    data.uid = util::next_auid();
    data.name = name;
    const core::Content content = core::file_content(path);
    data.size = content.size;
    data.checksum = content.checksum;
    std::optional<Status> registered;
    bus.dc_register(data, [&](Status s) { registered = s; });
    EXPECT_TRUE(registered.has_value() && registered->ok());
    return data;
  }
};

/// The data-plane tests that run over both containers.
class DataPlaneByStorage : public ::testing::TestWithParam<Storage> {};

INSTANTIATE_TEST_SUITE_P(Modes, DataPlaneByStorage,
                         ::testing::Values(Storage::kInMemory, Storage::kFileBacked),
                         [](const ::testing::TestParamInfo<Storage>& info) {
                           return info.param == Storage::kInMemory ? "InMemory" : "FileBacked";
                         });

TEST_P(DataPlaneByStorage, LivePutGetRoundTripIsByteIdentical) {
  DataPlaneRig rig(GetParam());
  api::RemoteServiceBus bus("127.0.0.1", rig.host.port(), api::RemoteBusConfig{1.0, 5.0});
  const std::string payload = rig.make_payload(200000);
  const std::string in_path = rig.write_file("in.bin", payload);
  const core::Data data = rig.register_data(bus, "payload", in_path);

  transfer::TcpTransfer tcp(bus, transfer::TcpConfig{32 * 1024, 3, true});
  const Status put = tcp.put_file(data, in_path);
  ASSERT_TRUE(put.ok()) << put.error().to_string();
  EXPECT_EQ(tcp.stats().chunks_sent, 7);  // 6 full chunks + remainder

  const std::string out_path = (rig.dir / "out.bin").string();
  const Status got = tcp.get_file(data, out_path);
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  EXPECT_EQ(rig.slurp(out_path), payload);
  EXPECT_EQ(rig.container.dt().stats().completed, 2u);
}

TEST(DataPlane, PutResumesAcrossDaemonKillAndWalRestart) {
  // The acceptance scenario: a multi-chunk upload is interrupted by killing
  // the daemon, a fresh daemon replays the WAL, and the resumed put sends
  // only the missing bytes; the final get is byte-identical.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("bitdew-resume-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string wal = (dir / "bitdewd.wal").string();

  std::string payload(160000, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>((i * 97 + 31) & 0xff);
  }
  const std::string in_path = (dir / "in.bin").string();
  std::ofstream(in_path, std::ios::binary) << payload;

  core::Data data;
  data.uid = util::next_auid();
  data.name = "resumable";
  data.size = static_cast<std::int64_t>(payload.size());
  data.checksum = core::file_content(in_path).checksum;

  constexpr std::int64_t kChunk = 16 * 1024;
  constexpr std::int64_t kStaged = 5 * kChunk;
  util::ManualClock clock;
  {
    // First daemon: register the datum, stage five chunks, die.
    services::ServiceContainer container("server", clock, wal);
    dht::LocalDht ddc;
    rpc::ServiceHost host(container, ddc, {0, true, -1});
    ASSERT_TRUE(host.start().ok());
    api::RemoteServiceBus bus("127.0.0.1", host.port(), api::RemoteBusConfig{1.0, 5.0});
    std::optional<Status> registered;
    bus.dc_register(data, [&](Status s) { registered = s; });
    ASSERT_TRUE(registered->ok());
    std::optional<api::Expected<std::int64_t>> started;
    bus.dr_put_start(data, [&](auto reply) { started = std::move(reply); });
    ASSERT_TRUE(started->ok());
    for (std::int64_t at = 0; at < kStaged; at += kChunk) {
      std::optional<Status> sent;
      bus.dr_put_chunk(data.uid, at,
                       payload.substr(static_cast<std::size_t>(at), kChunk),
                       [&](Status s) { sent = s; });
      ASSERT_TRUE(sent->ok());
    }
    host.stop();
  }  // container destroyed: only the WAL survives

  {
    // Second daemon: same WAL, fresh everything else.
    services::ServiceContainer container("server", clock, wal);
    dht::LocalDht ddc;
    rpc::ServiceHost host(container, ddc, {0, true, -1});
    ASSERT_TRUE(host.start().ok());
    api::RemoteServiceBus bus("127.0.0.1", host.port(), api::RemoteBusConfig{1.0, 5.0});

    transfer::TcpTransfer tcp(bus, transfer::TcpConfig{kChunk, 3, true});
    const Status put = tcp.put_file(data, in_path);
    ASSERT_TRUE(put.ok()) << put.error().to_string();
    EXPECT_EQ(tcp.stats().resumes, 1);
    EXPECT_EQ(tcp.stats().bytes_sent, data.size - kStaged);  // only the tail moved

    const std::string out_path = (dir / "out.bin").string();
    const Status got = tcp.get_file(data, out_path);
    ASSERT_TRUE(got.ok()) << got.error().to_string();
    std::ifstream in(out_path, std::ios::binary);
    const std::string roundtripped{std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>()};
    EXPECT_EQ(roundtripped, payload);
    host.stop();
  }
  std::filesystem::remove_all(dir);
}

TEST_P(DataPlaneByStorage, MidStreamCorruptionOverSocketFailsChecksum) {
  DataPlaneRig rig(GetParam());
  api::RemoteServiceBus bus("127.0.0.1", rig.host.port(), api::RemoteBusConfig{1.0, 5.0});
  const std::string payload = rig.make_payload(65536);
  const std::string in_path = rig.write_file("in.bin", payload);
  const core::Data data = rig.register_data(bus, "payload", in_path);

  std::optional<api::Expected<std::int64_t>> started;
  bus.dr_put_start(data, [&](auto reply) { started = std::move(reply); });
  ASSERT_TRUE(started->ok());
  std::string corrupted = payload;
  corrupted[40000] = static_cast<char>(corrupted[40000] ^ 0x01);  // one flipped bit
  for (std::int64_t at = 0; at < 65536; at += 16384) {
    std::optional<Status> sent;
    bus.dr_put_chunk(data.uid, at, corrupted.substr(static_cast<std::size_t>(at), 16384),
                     [&](Status s) { sent = s; });
    ASSERT_TRUE(sent->ok());
  }
  std::optional<api::Expected<core::Locator>> committed;
  bus.dr_put_commit(data.uid, "tcp", [&](auto reply) { committed = std::move(reply); });
  EXPECT_EQ(committed->code(), Errc::kChecksumMismatch);
  EXPECT_TRUE(rig.alive());
}

TEST_P(DataPlaneByStorage, ConcurrentPutAndGetOfTheSameUid) {
  DataPlaneRig rig(GetParam());
  api::RemoteServiceBus setup("127.0.0.1", rig.host.port(), api::RemoteBusConfig{1.0, 5.0});
  const std::string payload = rig.make_payload(100000);
  const std::string in_path = rig.write_file("in.bin", payload);
  const core::Data data = rig.register_data(setup, "contended", in_path);
  {
    transfer::TcpTransfer tcp(setup, transfer::TcpConfig{16 * 1024, 3, false});
    ASSERT_TRUE(tcp.put_file(data, in_path).ok());
  }

  // One writer re-putting the uid, one reader getting it, each on its own
  // connection. Every get must be either a typed failure or byte-identical
  // content — never a torn read, never a crash.
  std::atomic<int> good_gets{0};
  std::thread writer([&] {
    api::RemoteServiceBus bus("127.0.0.1", rig.host.port(), api::RemoteBusConfig{1.0, 5.0});
    transfer::TcpTransfer tcp(bus, transfer::TcpConfig{8 * 1024, 3, false});
    for (int round = 0; round < 3; ++round) {
      const Status put = tcp.put_file(data, in_path);
      EXPECT_TRUE(put.ok()) << put.error().to_string();
    }
  });
  std::thread reader([&] {
    api::RemoteServiceBus bus("127.0.0.1", rig.host.port(), api::RemoteBusConfig{1.0, 5.0});
    transfer::TcpTransfer tcp(bus, transfer::TcpConfig{8 * 1024, 3, false});
    for (int round = 0; round < 3; ++round) {
      const std::string out = (rig.dir / ("out-" + std::to_string(round) + ".bin")).string();
      const Status got = tcp.get_file(data, out);
      if (got.ok()) {
        EXPECT_EQ(rig.slurp(out), payload);
        ++good_gets;
      } else {
        EXPECT_NE(got.error().code, Errc::kOk);
      }
    }
  });
  writer.join();
  reader.join();
  EXPECT_GE(good_gets.load(), 1);
  EXPECT_TRUE(rig.alive());
}

TEST_P(DataPlaneByStorage, TransferManagerDrivesConcurrentStreams) {
  DataPlaneRig rig(GetParam());
  constexpr int kStreams = 4;
  api::TransferManager tm;
  tm.set_max_concurrent(kStreams);

  struct Stream {
    core::Data data;
    std::string in_path;
    std::string out_path;
  };
  std::vector<Stream> streams;
  api::RemoteServiceBus setup("127.0.0.1", rig.host.port(), api::RemoteBusConfig{1.0, 5.0});
  for (int i = 0; i < kStreams; ++i) {
    Stream stream;
    stream.in_path = rig.write_file("in-" + std::to_string(i) + ".bin",
                                    rig.make_payload(50000, /*salt=*/i));
    stream.out_path = (rig.dir / ("out-" + std::to_string(i) + ".bin")).string();
    stream.data = rig.register_data(setup, "stream-" + std::to_string(i), stream.in_path);
    streams.push_back(std::move(stream));
  }

  std::vector<std::thread> workers;
  for (const Stream& stream : streams) {
    workers.emplace_back([&rig, &tm, stream] {
      api::RemoteServiceBus bus("127.0.0.1", rig.host.port(), api::RemoteBusConfig{1.0, 5.0});
      transfer::TcpTransfer tcp(bus, transfer::TcpConfig{8 * 1024, 3, true});
      tm.begin(stream.data.uid);
      Status outcome = tcp.put_file(stream.data, stream.in_path);
      if (outcome.ok()) outcome = tcp.get_file(stream.data, stream.out_path);
      tm.finish(stream.data.uid, outcome);
    });
  }
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(tm.active_count(), 0);
  for (const Stream& stream : streams) {
    EXPECT_EQ(tm.probe(stream.data.uid), api::TransferProbe::kDone);
    EXPECT_TRUE(tm.outcome(stream.data.uid).ok());
    EXPECT_EQ(rig.slurp(stream.out_path), rig.slurp(stream.in_path));
  }
}

TEST_P(DataPlaneByStorage, PipelinedScalarAndChunkFramesInterleaveOnOneConnection) {
  DataPlaneRig rig(GetParam());
  api::RemoteServiceBus bus("127.0.0.1", rig.host.port(), api::RemoteBusConfig{1.0, 5.0});
  const std::string payload = rig.make_payload(64 * 1024);
  const std::string in_path = rig.write_file("in.bin", payload);
  const core::Data data = rig.register_data(bus, "payload", in_path);

  // Upload sequentially — the repository's stage offset is stateful, so
  // writes must not pipeline. Reads below are idempotent and do.
  constexpr std::int64_t kChunk = 16 * 1024;
  std::optional<api::Expected<std::int64_t>> started;
  bus.dr_put_start(data, [&](auto reply) { started = std::move(reply); });
  ASSERT_TRUE(started->ok());
  for (std::int64_t at = 0; at < data.size; at += kChunk) {
    std::optional<Status> sent;
    bus.dr_put_chunk(data.uid, at, payload.substr(static_cast<std::size_t>(at), kChunk),
                     [&](Status s) { sent = s; });
    ASSERT_TRUE(sent->ok());
  }
  std::optional<api::Expected<core::Locator>> committed;
  bus.dr_put_commit(data.uid, "tcp", [&](auto reply) { committed = std::move(reply); });
  ASSERT_TRUE(committed->ok()) << committed->error().to_string();

  // Eight calls in flight on the ONE connection: chunk reads (the zero-copy
  // fast path) interleaved with scalar ddc_publish frames. Callbacks stay
  // deferred until drain() — SimServiceBus's completion contract.
  bus.set_pipeline_depth(16);
  constexpr int kPairs = 4;
  std::vector<std::optional<api::Expected<std::string>>> chunks(kPairs);
  std::vector<std::optional<Status>> published(kPairs);
  for (int i = 0; i < kPairs; ++i) {
    bus.dr_get_chunk(data.uid, i * kChunk, kChunk,
                     [&chunks, i](api::Expected<std::string> reply) {
                       chunks[static_cast<std::size_t>(i)] = std::move(reply);
                     });
    bus.ddc_publish("pipelined-" + std::to_string(i), "v",
                    [&published, i](Status s) { published[static_cast<std::size_t>(i)] = s; });
  }
  EXPECT_EQ(bus.in_flight(), 2u * kPairs);  // genuinely deferred, none resolved yet
  bus.drain();
  EXPECT_EQ(bus.in_flight(), 0u);
  for (int i = 0; i < kPairs; ++i) {
    ASSERT_TRUE(chunks[i].has_value());
    ASSERT_TRUE(chunks[i]->ok()) << chunks[i]->error().to_string();
    EXPECT_EQ(**chunks[i], payload.substr(static_cast<std::size_t>(i) * kChunk, kChunk));
    ASSERT_TRUE(published[i].has_value());
    EXPECT_TRUE(published[i]->ok());
  }
  bus.set_pipeline_depth(1);
  EXPECT_TRUE(rig.alive());
}

TEST(DataPlane, FileBackedRemoteGetIsZeroCopy) {
  // A WAL-backed container keeps content in files (<wal>.content/), so a
  // remote get must serve every chunk as an fd slice straight onto the
  // socket: slice_reads counts them, blob_copies must stay exactly zero.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("bitdew-zerocopy-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string wal = (dir / "bitdewd.wal").string();

  util::ManualClock clock;
  services::ServiceContainer container("server", clock, wal);
  dht::LocalDht ddc;
  rpc::ServiceHost host(container, ddc, {0, true, -1});
  ASSERT_TRUE(host.start().ok());
  api::RemoteServiceBus bus("127.0.0.1", host.port(), api::RemoteBusConfig{1.0, 5.0});

  std::string payload(96 * 1024, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>((i * 131 + 7) & 0xff);
  }
  const std::string in_path = (dir / "in.bin").string();
  std::ofstream(in_path, std::ios::binary) << payload;
  core::Data data;
  data.uid = util::next_auid();
  data.name = "filebacked";
  const core::Content descriptor = core::file_content(in_path);
  data.size = descriptor.size;
  data.checksum = descriptor.checksum;
  std::optional<Status> registered;
  bus.dc_register(data, [&](Status s) { registered = s; });
  ASSERT_TRUE(registered->ok());

  transfer::TcpTransfer tcp(bus, transfer::TcpConfig{16 * 1024, 3, false});
  const Status put = tcp.put_file(data, in_path);
  ASSERT_TRUE(put.ok()) << put.error().to_string();
  const std::string out_path = (dir / "out.bin").string();
  const Status got = tcp.get_file(data, out_path);
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  std::ifstream round(out_path, std::ios::binary);
  const std::string roundtripped{std::istreambuf_iterator<char>(round),
                                 std::istreambuf_iterator<char>()};
  EXPECT_EQ(roundtripped, payload);

  std::optional<api::Expected<services::RepoStats>> stats;
  bus.dr_stats([&](api::Expected<services::RepoStats> reply) { stats = std::move(reply); });
  ASSERT_TRUE(stats.has_value() && stats->ok());
  EXPECT_GT((*stats)->slice_reads, 0u);   // every chunk left as an fd slice
  EXPECT_EQ((*stats)->blob_copies, 0u);   // no read materialized a blob
  host.stop();
  std::filesystem::remove_all(dir);
}

// --- file-backed staging under concurrency ---------------------------------------
// A file-backed host stages a chunk with the container lock held only to
// reserve its offset and advance the stage row; the bytes are written under
// the upload's lock and hashed after the reply.

/// The published content file of `uid` on a file-backed rig.
std::string published_bytes(DataPlaneRig& rig, const util::Auid& uid) {
  return rig.slurp((rig.dir / "bitdewd.wal.content" / uid.str()).string());
}

TEST(DataPlane, FileBackedConcurrentUploadsOfDifferentUidsCommitIntact) {
  DataPlaneRig rig(Storage::kFileBacked);
  api::RemoteServiceBus setup("127.0.0.1", rig.host.port(), api::RemoteBusConfig{1.0, 5.0});
  constexpr int kUploads = 2;
  std::vector<std::string> payloads;
  std::vector<std::string> paths;
  std::vector<core::Data> data;
  for (int i = 0; i < kUploads; ++i) {
    payloads.push_back(rig.make_payload(700000, /*salt=*/i + 1));
    paths.push_back(rig.write_file("in-" + std::to_string(i) + ".bin", payloads.back()));
    data.push_back(rig.register_data(setup, "upload-" + std::to_string(i), paths.back()));
  }

  // Each upload on its own connection, both in flight at once: their chunks
  // are written and hashed on different workers in parallel.
  std::vector<Status> outcomes(kUploads, Status(api::Error{Errc::kUnavailable, "test", "unset"}));
  std::vector<std::thread> uploaders;
  for (int i = 0; i < kUploads; ++i) {
    uploaders.emplace_back([&, i] {
      api::RemoteServiceBus bus("127.0.0.1", rig.host.port(), api::RemoteBusConfig{1.0, 5.0});
      transfer::TcpTransfer tcp(bus, transfer::TcpConfig{16 * 1024, 1, true});
      outcomes[static_cast<std::size_t>(i)] =
          tcp.put_file(data[static_cast<std::size_t>(i)], paths[static_cast<std::size_t>(i)]);
    });
  }
  for (std::thread& uploader : uploaders) uploader.join();

  for (int i = 0; i < kUploads; ++i) {
    const auto at = static_cast<std::size_t>(i);
    ASSERT_TRUE(outcomes[at].ok()) << outcomes[at].error().to_string();
    EXPECT_EQ(published_bytes(rig, data[at].uid), payloads[at]);
    transfer::TcpTransfer tcp(setup, transfer::TcpConfig{64 * 1024, 1, false});
    const std::string out = (rig.dir / ("out-" + std::to_string(i) + ".bin")).string();
    ASSERT_TRUE(tcp.get_file(data[at], out).ok());
    EXPECT_EQ(rig.slurp(out), payloads[at]);
  }
}

TEST(DataPlane, FileBackedRaceOnOneOffsetAdmitsExactlyOneChunk) {
  DataPlaneRig rig(Storage::kFileBacked);
  api::RemoteServiceBus first("127.0.0.1", rig.host.port(), api::RemoteBusConfig{1.0, 5.0});
  api::RemoteServiceBus second("127.0.0.1", rig.host.port(), api::RemoteBusConfig{1.0, 5.0});
  constexpr std::int64_t kChunk = 32 * 1024;
  const std::string payload = rig.make_payload(16 * kChunk, /*salt=*/7);
  const core::Data data = rig.register_data(first, "raced", rig.write_file("in.bin", payload));
  std::optional<api::Expected<std::int64_t>> started;
  first.dr_put_start(data, [&](auto reply) { started = std::move(reply); });
  ASSERT_TRUE(started->ok());

  // Both connections send every chunk at the same moment. Whichever lands
  // second finds the offset claimed or already passed: kRejected.
  for (std::int64_t at = 0; at < data.size; at += kChunk) {
    const std::string chunk = payload.substr(static_cast<std::size_t>(at), kChunk);
    std::atomic<int> ready{0};
    std::optional<Status> replies[2];
    const auto send = [&](api::RemoteServiceBus& bus, int which) {
      ++ready;
      while (ready.load() < 2) {
      }
      bus.dr_put_chunk(data.uid, at, chunk, [&, which](Status s) { replies[which] = s; });
    };
    std::thread racer([&] { send(second, 1); });
    send(first, 0);
    racer.join();
    ASSERT_TRUE(replies[0].has_value() && replies[1].has_value());
    const int admitted = static_cast<int>(replies[0]->ok()) + static_cast<int>(replies[1]->ok());
    EXPECT_EQ(admitted, 1) << "at offset " << at;
    for (const std::optional<Status>& reply : replies) {
      if (!reply->ok()) {
        EXPECT_EQ(reply->error().code, Errc::kRejected);
      }
    }
  }
  std::optional<api::Expected<core::Locator>> committed;
  first.dr_put_commit(data.uid, "tcp", [&](auto reply) { committed = std::move(reply); });
  ASSERT_TRUE(committed->ok()) << committed->error().to_string();
  EXPECT_EQ(published_bytes(rig, data.uid), payload);
}

TEST(DataPlane, FileBackedCommitRightBehindTheLastChunkWaitsForItsHash) {
  DataPlaneRig rig(Storage::kFileBacked);
  api::RemoteServiceBus bus("127.0.0.1", rig.host.port(), api::RemoteBusConfig{1.0, 5.0});
  // Chunks large enough that the last one's MD5 is still running when the
  // commit arrives right after its reply.
  constexpr std::int64_t kChunk = 2 << 20;
  for (int round = 0; round < 3; ++round) {
    const std::string payload = rig.make_payload(2 * kChunk, /*salt=*/round);
    const core::Data data = rig.register_data(
        bus, "eager-" + std::to_string(round),
        rig.write_file("in-" + std::to_string(round) + ".bin", payload));
    std::optional<api::Expected<std::int64_t>> started;
    bus.dr_put_start(data, [&](auto reply) { started = std::move(reply); });
    ASSERT_TRUE(started->ok());
    std::optional<api::Expected<core::Locator>> committed;
    for (std::int64_t at = 0; at < data.size; at += kChunk) {
      const bool last = at + kChunk >= data.size;
      bus.dr_put_chunk(data.uid, at, payload.substr(static_cast<std::size_t>(at), kChunk),
                       [&](Status s) {
                         ASSERT_TRUE(s.ok()) << s.error().to_string();
                         if (!last) return;
                         bus.dr_put_commit(data.uid, "tcp", [&](auto reply) {
                           committed = std::move(reply);
                         });
                       });
    }
    ASSERT_TRUE(committed.has_value());
    ASSERT_TRUE(committed->ok()) << committed->error().to_string();
    EXPECT_EQ(published_bytes(rig, data.uid), payload);
  }
}

// --- downloads through the chunk window ------------------------------------------
// TcpTransfer keeps several dr_get_chunk fetches in flight and hashes the
// `.part` on a helper thread; these pin what the window must not change.

/// A committed datum of `size` bytes on a file-backed rig, uploaded in
/// 32 KiB chunks over a depth-1 bus; the payload is left in `payload`.
core::Data committed_datum(DataPlaneRig& rig, std::size_t size, std::string& payload) {
  api::RemoteServiceBus setup("127.0.0.1", rig.host.port(), api::RemoteBusConfig{1.0, 5.0});
  payload = rig.make_payload(size);
  const std::string in_path = rig.write_file("in.bin", payload);
  const core::Data data = rig.register_data(setup, "windowed", in_path);
  transfer::TcpTransfer tcp(setup, transfer::TcpConfig{32 * 1024, 3, false});
  const Status put = tcp.put_file(data, in_path);
  EXPECT_TRUE(put.ok()) << put.error().to_string();
  return data;
}

TEST(DataPlane, FileBackedTransfersWithoutPumpOnAPipelinedBus) {
  // No pump: the engine completes its own calls through the bus's pump(),
  // at whatever depth the caller set.
  DataPlaneRig rig(Storage::kFileBacked);
  api::RemoteServiceBus setup("127.0.0.1", rig.host.port(), api::RemoteBusConfig{1.0, 5.0});
  const std::string payload = rig.make_payload(300000);
  const std::string in_path = rig.write_file("in.bin", payload);
  const core::Data data = rig.register_data(setup, "deep", in_path);

  api::RemoteServiceBus bus("127.0.0.1", rig.host.port(),
                            api::RemoteBusConfig{1.0, 5.0, 4, /*pipeline_depth=*/16});
  transfer::TcpTransfer tcp(bus, transfer::TcpConfig{32 * 1024, 3, true});
  const Status put = tcp.put_file(data, in_path);
  ASSERT_TRUE(put.ok()) << put.error().to_string();
  const std::string out_path = (rig.dir / "out.bin").string();
  const Status got = tcp.get_file(data, out_path);
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  EXPECT_EQ(rig.slurp(out_path), payload);
  EXPECT_EQ(bus.pipeline_depth(), 16);
}

TEST(DataPlane, FileBackedCorruptContentOnDiskFailsGetChecksum) {
  DataPlaneRig rig(Storage::kFileBacked);
  std::string payload;
  const core::Data data = committed_datum(rig, 200000, payload);
  {
    std::fstream content(rig.dir / "bitdewd.wal.content" / data.uid.str(),
                         std::ios::binary | std::ios::in | std::ios::out);
    content.seekp(150000);
    content.put(static_cast<char>(payload[150000] ^ 0x01));
  }

  api::RemoteServiceBus bus("127.0.0.1", rig.host.port(), api::RemoteBusConfig{1.0, 5.0});
  transfer::TcpTransfer tcp(bus, transfer::TcpConfig{32 * 1024, 3, true});
  const std::string out_path = (rig.dir / "out.bin").string();
  EXPECT_EQ(tcp.get_file(data, out_path).code(), Errc::kChecksumMismatch);
  EXPECT_FALSE(std::filesystem::exists(out_path + ".part"));
  EXPECT_FALSE(std::filesystem::exists(out_path));
}

TEST(DataPlane, FileBackedTruncatedContentFailsGetUnavailable) {
  // The repository now holds fewer bytes than the descriptor declares: the
  // chunk cut short mid-file must fail the get, never land at the offset
  // of the chunks fetched after it.
  DataPlaneRig rig(Storage::kFileBacked);
  std::string payload;
  const core::Data data = committed_datum(rig, 200000, payload);
  std::filesystem::resize_file(rig.dir / "bitdewd.wal.content" / data.uid.str(), 100000);

  api::RemoteServiceBus bus("127.0.0.1", rig.host.port(), api::RemoteBusConfig{1.0, 5.0});
  transfer::TcpTransfer tcp(bus, transfer::TcpConfig{32 * 1024, 3, true});
  const std::string out_path = (rig.dir / "out.bin").string();
  EXPECT_EQ(tcp.get_file(data, out_path).code(), Errc::kUnavailable);
  EXPECT_FALSE(std::filesystem::exists(out_path));
  EXPECT_TRUE(rig.alive());
}

TEST(DataPlane, FileBackedGetLeavesTheCallersPipelineDepth) {
  DataPlaneRig rig(Storage::kFileBacked);
  std::string payload;
  const core::Data data = committed_datum(rig, 200000, payload);
  core::Data missing = data;  // registered nowhere, no bytes anywhere
  missing.uid = util::next_auid();

  for (const int depth : {1, 16}) {
    api::RemoteServiceBus bus("127.0.0.1", rig.host.port(),
                              api::RemoteBusConfig{1.0, 5.0, 4, depth});
    transfer::TcpTransfer tcp(bus, transfer::TcpConfig{32 * 1024, 3, true});
    const std::string out_path = (rig.dir / ("out-" + std::to_string(depth))).string();
    const Status got = tcp.get_file(data, out_path);
    ASSERT_TRUE(got.ok()) << got.error().to_string();
    EXPECT_EQ(rig.slurp(out_path), payload);
    EXPECT_EQ(bus.pipeline_depth(), depth);

    EXPECT_EQ(tcp.get_file(missing, out_path + "-missing").code(), Errc::kNotFound);
    EXPECT_EQ(bus.pipeline_depth(), depth);
    EXPECT_FALSE(std::filesystem::exists(out_path + "-missing"));
  }
}

TEST(DataPlane, PeerTransferClosesItsTicketOnAPipelinedBus) {
  // Over a depth-16 bus the dt_register reply is deferred: the engine must
  // wait for its ticket, or the get runs untracked while the deferred
  // registration opens a ticket that nothing closes.
  DataPlaneRig rig(Storage::kFileBacked);
  std::string payload;
  const core::Data data = committed_datum(rig, 200000, payload);  // untracked put

  api::RemoteServiceBus bus("127.0.0.1", rig.host.port(),
                            api::RemoteBusConfig{1.0, 5.0, 4, /*pipeline_depth=*/16});
  transfer::PeerConfig config;
  config.chunk_bytes = 32 * 1024;
  config.track_ticket = true;
  transfer::PeerTransfer p2p(bus, config);
  const std::string out_path = (rig.dir / "out.bin").string();
  const Status got = p2p.get_file(data, out_path, {});
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  EXPECT_EQ(rig.slurp(out_path), payload);
  bus.drain();
  EXPECT_EQ(rig.container.dt().stats().registered, 1u);
  EXPECT_EQ(rig.container.dt().stats().completed, 1u);
}

// --- the in-memory repository's content dir -----------------------------------

/// Points TMPDIR at `path` until destruction, which restores the previous
/// value.
class ScopedTmpdir {
 public:
  explicit ScopedTmpdir(const std::string& path) {
    if (const char* previous = std::getenv("TMPDIR")) saved_ = previous;
    ::setenv("TMPDIR", path.c_str(), 1);
  }
  ~ScopedTmpdir() {
    if (saved_.has_value()) {
      ::setenv("TMPDIR", saved_->c_str(), 1);
    } else {
      ::unsetenv("TMPDIR");
    }
  }
  ScopedTmpdir(const ScopedTmpdir&) = delete;
  ScopedTmpdir& operator=(const ScopedTmpdir&) = delete;

 private:
  std::optional<std::string> saved_;
};

core::Data three_byte_datum() {
  core::Data data;
  data.uid = util::next_auid();
  data.name = "staged";
  data.size = 3;
  data.checksum = util::Md5::of("abc").hex();
  return data;
}

TEST(InMemoryContentDir, MadeByTheFirstStageAndRemovedWithTheContainer) {
  TempDir tmp;
  const ScopedTmpdir scoped(tmp.dir.string());
  const auto entries = [&tmp] {
    std::vector<std::filesystem::path> found;
    for (const auto& entry : std::filesystem::directory_iterator(tmp.dir)) {
      found.push_back(entry.path());
    }
    return found;
  };
  const core::Data data = three_byte_datum();
  util::ManualClock clock;
  {
    services::ServiceContainer container("server", clock);
    services::DataRepository& repository = container.dr();
    // Metadata, reads and removal of a datum with no bytes touch no disk.
    repository.put(data, core::Content{data.size, data.checksum}, "tcp");
    EXPECT_FALSE(repository.read_bytes(data.uid, 0, 3).has_value());
    EXPECT_TRUE(repository.remove(data.uid));
    EXPECT_TRUE(entries().empty());

    ASSERT_EQ(repository.stage_begin(data), 0);
    const std::vector<std::filesystem::path> made = entries();
    ASSERT_EQ(made.size(), 1u);
    EXPECT_EQ(made[0].filename().string().rfind("bitdew-content-", 0), 0u) << made[0];
    EXPECT_TRUE(std::filesystem::is_directory(made[0]));
    EXPECT_TRUE(std::filesystem::exists(made[0] / (data.uid.str() + ".part")));
  }
  EXPECT_TRUE(entries().empty());
}

TEST(InMemoryContentDir, UnusableTmpdirFailsPutStartUnavailable) {
  // TMPDIR names a regular file, so the repository cannot make its content
  // dir: dr_put_start fails typed, naming the path, and the host serves on.
  TempDir tmp;
  const std::string not_a_dir = (tmp.dir / "not-a-dir").string();
  std::ofstream(not_a_dir) << "a regular file";
  const ScopedTmpdir scoped(not_a_dir);
  HostRig rig;
  api::RemoteServiceBus bus("127.0.0.1", rig.host.port(), api::RemoteBusConfig{1.0, 5.0});
  std::optional<api::Expected<std::int64_t>> started;
  bus.dr_put_start(three_byte_datum(), [&](auto reply) { started = std::move(reply); });
  ASSERT_TRUE(started.has_value());
  ASSERT_FALSE(started->ok());
  EXPECT_EQ(started->error().code, Errc::kUnavailable);
  EXPECT_NE(started->error().message.find(not_a_dir), std::string::npos)
      << started->error().to_string();
  EXPECT_TRUE(rig.alive());
}

TEST(InMemoryContentDir, RefusedPendingStartLeavesNoDatumUnderTheName) {
  TempDir tmp;
  const std::string not_a_dir = (tmp.dir / "not-a-dir").string();
  std::ofstream(not_a_dir) << "a regular file";
  const std::string path = (tmp.dir / "in.bin").string();
  std::ofstream(path, std::ios::binary) << std::string(3000, 'p');
  const ScopedTmpdir scoped(not_a_dir);
  HostRig rig;
  api::RemoteServiceBus bus("127.0.0.1", rig.host.port(), api::RemoteBusConfig{1.0, 5.0});
  api::BitDew bitdew(bus, "client");
  api::ActiveData active_data(bus, "client");
  api::Session session(bitdew, active_data);

  EXPECT_EQ(session.put_file("refused", path).code(), Errc::kUnavailable);
  EXPECT_TRUE(rig.container.dc().search("refused").empty());
  EXPECT_EQ(rig.container.dc().size(), 0u);
}

TEST(DataPlane, ChunkToAVanishedPartFailsUnavailableThroughTheHost) {
  DataPlaneRig rig(Storage::kFileBacked);
  api::RemoteServiceBus bus("127.0.0.1", rig.host.port(), api::RemoteBusConfig{1.0, 5.0});
  const std::string in_path = rig.write_file("in.bin", rig.make_payload(2048));
  const core::Data data = rig.register_data(bus, "payload", in_path);
  std::optional<api::Expected<std::int64_t>> started;
  bus.dr_put_start(data, [&](auto reply) { started = std::move(reply); });
  ASSERT_TRUE(started.has_value() && started->ok());
  const std::string part = rig.container.dr().stage_path(data.uid);
  ASSERT_TRUE(std::filesystem::remove(part));

  std::optional<Status> sent;
  bus.dr_put_chunk(data.uid, 0, rig.make_payload(1024), [&](Status s) { sent = s; });
  ASSERT_TRUE(sent.has_value());
  EXPECT_EQ(sent->code(), Errc::kUnavailable);
  EXPECT_NE(sent->error().message.find(part), std::string::npos) << sent->error().to_string();
  EXPECT_EQ(rig.container.dr().stage_received(data.uid), 0);
  EXPECT_TRUE(rig.alive());
}

TEST(DataPlane, SessionPutLeavesTheCallersPipelineDepth) {
  DataPlaneRig rig(Storage::kInMemory);
  api::RemoteServiceBus bus("127.0.0.1", rig.host.port(), api::RemoteBusConfig{1.0, 5.0});
  api::BitDew bitdew(bus, "client");
  api::ActiveData active_data(bus, "client");
  // A pipelined bus needs the session to pump its replies.
  api::Session session(bitdew, active_data, [&bus] { return bus.pump(); });
  session.set_chunk_bytes(16 * 1024);
  const std::string payload = rig.make_payload(100000);
  const std::string path = rig.write_file("in.bin", payload);
  for (const int depth : {1, 16}) {
    bus.set_pipeline_depth(depth);
    const std::string name = "depth-" + std::to_string(depth);
    const auto put = session.put_file(name, path);
    ASSERT_TRUE(put.ok()) << depth << ": " << put.error().to_string();
    EXPECT_EQ(bus.pipeline_depth(), depth);
    EXPECT_EQ(put->checksum, util::Md5::of(payload).hex());
    const std::string out = (rig.dir / (name + ".out")).string();
    ASSERT_TRUE(session.get_file(*put, out).ok()) << depth;
    EXPECT_EQ(bus.pipeline_depth(), depth);
    EXPECT_EQ(rig.slurp(out), payload);
  }
}

TEST(ServiceHostHardening, ManyConcurrentClients) {
  HostRig rig;
  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&rig, &ok_count, c] {
      api::RemoteServiceBus bus("127.0.0.1", rig.host.port(), api::RemoteBusConfig{1.0, 2.0});
      for (int i = 0; i < 16; ++i) {
        std::optional<Status> published;
        bus.ddc_publish("client-" + std::to_string(c), "v" + std::to_string(i),
                        [&](Status s) { published = s; });
        if (published.has_value() && published->ok()) ++ok_count;
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(ok_count.load(), kClients * 16);
  EXPECT_EQ(rig.ddc.key_count(), static_cast<std::size_t>(kClients));
}

}  // namespace
}  // namespace bitdew
