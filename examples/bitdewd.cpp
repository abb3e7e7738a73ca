// bitdewd — the BitDew service daemon (paper Fig. 1's stable node, deployed
// for real): one ServiceContainer hosting the four D* services plus a DHT
// back-end, served over TCP by rpc::ServiceHost. Clients are
// api::RemoteServiceBus (or `bitdew_cli connect HOST:PORT`).
//
//   bitdewd [--port P] [--wal DIR] [--host NAME] [--compact-bytes N]
//           [--loopback] [--data-rate BYTES] [--host-gc SWEEPS]
//           [--ring] [--ring-join HOST:PORT]
//           [--ring-id HEX] [--replication-f N] [--ring-stabilize S]
//           [--advertise HOST]
//
//   --port P           TCP port to listen on (default 9328; 0 = ephemeral)
//   --wal DIR          durable mode: persist state to DIR/bitdewd.wal and
//                      recover it on restart (default: in-memory)
//   --host NAME        service host name announced in locators (default
//                      "bitdewd")
//   --compact-bytes N  auto-compact the WAL when it grows past N bytes
//                      (default 8388608; 0 disables)
//   --loopback         bind 127.0.0.1 only instead of all interfaces
//   --data-rate BYTES  cap data-plane egress (dr_get_chunk replies) at
//                      BYTES/s, e.g. "64MB" (default 0 = unlimited);
//                      control traffic is never shaped
//   --host-gc SWEEPS   forget a dead worker from the host table after it
//                      has missed SWEEPS failure sweeps (default 0 = list
//                      dead hosts forever, the historical behavior)
//
// Live DHT ring (shard the dc_*/ddc_* metadata plane across daemons):
//   --ring             become a ring member (bootstraps a new ring unless
//                      --ring-join names an existing member)
//   --ring-join H:P    join the ring through the member at H:P
//   --ring-id HEX      explicit 64-bit ring position (default: derived from
//                      the advertised endpoint; keep it stable across
//                      restarts of a durable member)
//   --replication-f N  owner + (N-1) successors hold each key (default 2)
//   --ring-stabilize S stabilization period in seconds (default 2.0)
//   --advertise HOST   address other members/clients reach us at
//                      (default 127.0.0.1)
//
// The daemon prints "serving on port P" once ready (scripts parse this for
// ephemeral ports) and exits cleanly on SIGINT/SIGTERM — a ring member
// hands its keys to its successor (planned leave) before stopping.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "rpc/server.hpp"
#include "util/bytes.hpp"
#include "util/clock.hpp"

using namespace bitdew;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port P] [--wal DIR] [--host NAME] [--compact-bytes N]"
               " [--loopback] [--data-rate BYTES] [--host-gc SWEEPS]"
               " [--ring] [--ring-join HOST:PORT]"
               " [--ring-id HEX] [--replication-f N] [--ring-stabilize S]"
               " [--advertise HOST]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t port = 9328;
  std::string wal_dir;
  std::string host_name = "bitdewd";
  std::uint64_t compact_bytes = 8u << 20;
  bool loopback = false;
  double data_rate_Bps = 0;
  int host_gc_sweeps = 0;
  bool ring = false;
  rpc::RingOptions ring_options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--port") {
      const char* value = next();
      if (value == nullptr) return usage(argv[0]);
      char* end = nullptr;
      const long parsed = std::strtol(value, &end, 10);
      if (end == value || *end != '\0' || parsed < 0 || parsed > 65535) {
        std::fprintf(stderr, "bitdewd: bad port '%s' (expected 0-65535)\n", value);
        return 2;
      }
      port = static_cast<std::uint16_t>(parsed);
    } else if (arg == "--wal") {
      const char* value = next();
      if (value == nullptr) return usage(argv[0]);
      wal_dir = value;
    } else if (arg == "--host") {
      const char* value = next();
      if (value == nullptr) return usage(argv[0]);
      host_name = value;
    } else if (arg == "--compact-bytes") {
      const char* value = next();
      if (value == nullptr) return usage(argv[0]);
      char* end = nullptr;
      compact_bytes = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') {
        std::fprintf(stderr, "bitdewd: bad --compact-bytes '%s' (expected a byte count)\n",
                     value);
        return 2;
      }
    } else if (arg == "--loopback") {
      loopback = true;
    } else if (arg == "--ring") {
      ring = true;
    } else if (arg == "--ring-join") {
      const char* value = next();
      if (value == nullptr) return usage(argv[0]);
      ring = true;
      ring_options.join_endpoint = value;
    } else if (arg == "--ring-id") {
      const char* value = next();
      if (value == nullptr) return usage(argv[0]);
      char* end = nullptr;
      ring_options.ring_id = std::strtoull(value, &end, 16);
      if (end == value || *end != '\0' || ring_options.ring_id == 0) {
        std::fprintf(stderr, "bitdewd: bad --ring-id '%s' (expected nonzero hex)\n", value);
        return 2;
      }
    } else if (arg == "--replication-f") {
      const char* value = next();
      if (value == nullptr) return usage(argv[0]);
      char* end = nullptr;
      const long parsed = std::strtol(value, &end, 10);
      if (end == value || *end != '\0' || parsed < 1 || parsed > 64) {
        std::fprintf(stderr, "bitdewd: bad --replication-f '%s' (expected 1-64)\n", value);
        return 2;
      }
      ring_options.replication_f = static_cast<int>(parsed);
    } else if (arg == "--ring-stabilize") {
      const char* value = next();
      if (value == nullptr) return usage(argv[0]);
      char* end = nullptr;
      const double parsed = std::strtod(value, &end);
      if (end == value || *end != '\0' || parsed <= 0) {
        std::fprintf(stderr, "bitdewd: bad --ring-stabilize '%s' (expected seconds > 0)\n",
                     value);
        return 2;
      }
      ring_options.stabilize_period_s = parsed;
    } else if (arg == "--advertise") {
      const char* value = next();
      if (value == nullptr) return usage(argv[0]);
      ring_options.advertise_host = value;
    } else if (arg == "--data-rate") {
      const char* value = next();
      if (value == nullptr) return usage(argv[0]);
      const std::int64_t parsed = util::parse_bytes(value);
      if (parsed < 0) {
        std::fprintf(stderr, "bitdewd: bad --data-rate '%s' (expected bytes/s)\n", value);
        return 2;
      }
      data_rate_Bps = static_cast<double>(parsed);
    } else if (arg == "--host-gc") {
      const char* value = next();
      if (value == nullptr) return usage(argv[0]);
      char* end = nullptr;
      const long parsed = std::strtol(value, &end, 10);
      if (end == value || *end != '\0' || parsed < 0) {
        std::fprintf(stderr, "bitdewd: bad --host-gc '%s' (expected sweeps >= 0)\n", value);
        return 2;
      }
      host_gc_sweeps = static_cast<int>(parsed);
    } else {
      return usage(argv[0]);
    }
  }

  // Restart-stable epoch: anchored lifetimes land in the WAL as clock
  // readings, so a reopened daemon must read the SAME clock — a
  // seconds-since-construction epoch would shift every replayed deadline
  // by the previous uptime.
  static util::WallClock clock;
  services::SchedulerConfig scheduler_config;
  scheduler_config.host_gc_sweeps = host_gc_sweeps;
  std::unique_ptr<services::ServiceContainer> container;
  if (wal_dir.empty()) {
    container = std::make_unique<services::ServiceContainer>(host_name, clock, scheduler_config);
  } else {
    const std::string wal_path = (std::filesystem::path(wal_dir) / "bitdewd.wal").string();
    try {
      std::filesystem::create_directories(wal_dir);
      container = std::make_unique<services::ServiceContainer>(host_name, clock, wal_path,
                                                               scheduler_config);
    } catch (const std::exception& error) {
      // An unopenable WAL or content dir: refuse to boot rather than serve
      // without the durable state the flag asked for.
      std::fprintf(stderr, "bitdewd: %s\n", error.what());
      return 1;
    }
    container->database().set_auto_compact(compact_bytes);
    std::printf("bitdewd: durable state at %s (%llu bytes replayed, %zu data scheduled)\n",
                wal_path.c_str(),
                static_cast<unsigned long long>(container->database().wal_bytes()),
                container->ds().scheduled_count());
  }

  dht::LocalDht ddc;
  rpc::ServiceHostConfig config;
  config.port = port;
  config.loopback_only = loopback;
  config.data_plane_upload_Bps = data_rate_Bps;
  rpc::ServiceHost host(*container, ddc, config);
  const api::Status started = host.start();
  if (!started.ok()) {
    std::fprintf(stderr, "bitdewd: %s\n", started.error().to_string().c_str());
    return 1;
  }

  if (ring) {
    const api::Status joined = host.start_ring(ring_options);
    if (!joined.ok()) {
      std::fprintf(stderr, "bitdewd: ring: %s\n", joined.error().to_string().c_str());
      host.stop();
      return 1;
    }
    const std::string via = ring_options.join_endpoint.empty()
                                ? "bootstrapped"
                                : "joined via " + ring_options.join_endpoint;
    std::printf("bitdewd: ring member %s (id %016llx, %s)\n",
                host.ring()->self().endpoint.c_str(),
                static_cast<unsigned long long>(host.ring()->self().id), via.c_str());
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::printf("bitdewd: serving on port %u (host %s, %s)\n",
              static_cast<unsigned>(host.port()), host_name.c_str(),
              wal_dir.empty() ? "in-memory" : "durable");
  std::fflush(stdout);

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  host.ring_leave();  // no-op unless a ring member: planned key handoff
  host.stop();
  std::printf("bitdewd: stopped after %llu request(s) on %llu connection(s)\n",
              static_cast<unsigned long long>(host.requests_served()),
              static_cast<unsigned long long>(host.connections_accepted()));
  return 0;
}
