// Live DHT ring tests: N in-process bitdewd-style members (in-memory
// containers, loopback ephemeral ports, fast stabilization) forming a real
// ring over real sockets. The suite checks the distributed catalog against
// the same semantics a single LocalDht / central container provides —
// randomized put/get/remove equivalence through arbitrary members — and the
// churn story: a join moves key ownership, a crash (stop() without leave)
// loses no keys at f=2, a planned leave hands everything off, a durable
// member restarted from its WAL rejoins re-announcing its keys, and the
// client-side redirect chase is actually exercised.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/remote_service_bus.hpp"
#include "dht/live_ring.hpp"
#include "dht/local_dht.hpp"
#include "rpc/server.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace bitdew {
namespace {

using api::Errc;
using api::Status;

constexpr double kStabilize = 0.05;

rpc::ServiceHostConfig member_host_config() {
  rpc::ServiceHostConfig config;
  config.port = 0;
  config.loopback_only = true;
  config.idle_timeout_s = -1;
  config.failure_sweep_period_s = 0;  // the ring tick alone drives the sweeper
  return config;
}

rpc::RingOptions member_ring_options(const std::string& join_endpoint,
                                     std::uint64_t ring_id = 0) {
  rpc::RingOptions options;
  options.ring_id = ring_id;
  options.join_endpoint = join_endpoint;
  options.replication_f = 2;
  options.stabilize_period_s = kStabilize;
  options.call_timeout_s = 1.0;
  return options;
}

/// One in-process ring member: container + ddc + ServiceHost, in-memory
/// unless a WAL path is given.
struct Member {
  explicit Member(const std::string& wal_path = "") {
    if (wal_path.empty()) {
      container = std::make_unique<services::ServiceContainer>("member", clock);
    } else {
      container = std::make_unique<services::ServiceContainer>("member", clock, wal_path);
    }
    host = std::make_unique<rpc::ServiceHost>(*container, ddc, member_host_config());
  }

  Status start(const std::string& join_endpoint = "", std::uint64_t ring_id = 0) {
    const Status started = host->start();
    if (!started.ok()) return started;
    return host->start_ring(member_ring_options(join_endpoint, ring_id));
  }

  std::string endpoint() const { return "127.0.0.1:" + std::to_string(host->port()); }

  util::ManualClock clock;
  std::unique_ptr<services::ServiceContainer> container;
  dht::LocalDht ddc;
  std::unique_ptr<rpc::ServiceHost> host;
};

std::unique_ptr<api::RemoteServiceBus> connect(std::uint16_t port) {
  api::RemoteBusConfig config;
  config.connect_timeout_s = 1.0;
  config.call_deadline_s = 2.0;
  return std::make_unique<api::RemoteServiceBus>("127.0.0.1", port, config);
}

Status publish(api::RemoteServiceBus& bus, const std::string& key, const std::string& value) {
  std::optional<Status> out;
  bus.ddc_publish(key, value, [&](Status s) { out = std::move(s); });
  return *out;
}

api::Expected<std::vector<std::string>> lookup(api::RemoteServiceBus& bus,
                                               const std::string& key) {
  std::optional<api::Expected<std::vector<std::string>>> out;
  bus.ddc_search(key, [&](api::Expected<std::vector<std::string>> reply) {
    out = std::move(reply);
  });
  return *out;
}

Status dc_register(api::RemoteServiceBus& bus, const core::Data& data) {
  std::optional<Status> out;
  bus.dc_register(data, [&](Status s) { out = std::move(s); });
  return *out;
}

api::Expected<core::Data> dc_get(api::RemoteServiceBus& bus, const util::Auid& uid) {
  std::optional<api::Expected<core::Data>> out;
  bus.dc_get(uid, [&](api::Expected<core::Data> reply) { out = std::move(reply); });
  return *out;
}

Status dc_remove(api::RemoteServiceBus& bus, const util::Auid& uid) {
  std::optional<Status> out;
  bus.dc_remove(uid, [&](Status s) { out = std::move(s); });
  return *out;
}

core::Data make_data(std::uint64_t n) {
  core::Data data;
  data.uid = util::Auid{0x9000 + n, n * 7 + 1};
  data.name = "datum-" + std::to_string(n);
  data.size = static_cast<std::int64_t>(100 + n);
  return data;
}

/// Polls until `predicate` holds or the deadline passes.
bool eventually(double deadline_s, const std::function<bool()>& predicate) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(deadline_s));
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return predicate();
}

/// True when a walk from `port` sees exactly `n` members, all with live
/// predecessors — the ring has converged.
bool ring_converged(std::uint16_t port, std::size_t n) {
  auto bus = connect(port);
  const auto home = bus->ring_info();
  if (!home.ok()) return false;
  std::set<std::string> seen{home->self.endpoint};
  std::vector<rpc::wire::RingNode> frontier = home->successors;
  if (!home->has_pred) return n == 1 && frontier.empty();
  while (!frontier.empty() && seen.size() <= n + 1) {
    const rpc::wire::RingNode next = frontier.back();
    frontier.pop_back();
    if (!seen.insert(next.endpoint).second) continue;
    const std::size_t colon = next.endpoint.rfind(':');
    auto peer = connect(static_cast<std::uint16_t>(
        std::stoi(next.endpoint.substr(colon + 1))));
    const auto info = peer->ring_info();
    if (!info.ok() || !info->has_pred) return false;
    for (const rpc::wire::RingNode& s : info->successors) frontier.push_back(s);
  }
  return seen.size() == n;
}

TEST(RingLive, EquivalentToLocalCatalogAcrossMembers) {
  Member a, b, c;
  ASSERT_TRUE(a.start().ok());
  ASSERT_TRUE(b.start(a.endpoint()).ok());
  ASSERT_TRUE(eventually(5, [&] { return ring_converged(a.host->port(), 2); }));
  ASSERT_TRUE(c.start(a.endpoint()).ok());
  ASSERT_TRUE(eventually(5, [&] { return ring_converged(a.host->port(), 3); }));

  std::vector<std::unique_ptr<api::RemoteServiceBus>> buses;
  for (const Member* m : {&a, &b, &c}) buses.push_back(connect(m->host->port()));

  // Randomized ddc puts mirrored into a reference LocalDht; every member
  // must answer every key identically to the reference.
  util::Rng rng(0x41e);
  dht::LocalDht reference;
  const int kKeys = 12;
  for (int op = 0; op < 80; ++op) {
    const std::string key = "key" + std::to_string(rng.below(kKeys));
    const std::string value = "v" + std::to_string(rng.below(5));
    auto& bus = *buses[rng.below(buses.size())];
    ASSERT_TRUE(publish(bus, key, value).ok());
    reference.put(key, value);
  }
  for (int k = 0; k < kKeys; ++k) {
    const std::string key = "key" + std::to_string(k);
    const std::vector<std::string> want = reference.get(key);
    for (auto& bus : buses) {
      const auto got = lookup(*bus, key);
      ASSERT_TRUE(got.ok()) << key << ": " << got.error().to_string();
      EXPECT_EQ(*got, want) << key;
    }
  }

  // dc registrations and removals behave like one central catalog no
  // matter which member each request lands on.
  std::map<std::uint64_t, core::Data> live;
  for (std::uint64_t n = 0; n < 24; ++n) {
    const core::Data data = make_data(n);
    ASSERT_TRUE(dc_register(*buses[rng.below(buses.size())], data).ok()) << n;
    live[n] = data;
  }
  // Duplicate registration is a duplicate everywhere, not a second copy.
  EXPECT_EQ(dc_register(*buses[0], make_data(3)).code(), Errc::kDuplicate);
  for (std::uint64_t n = 0; n < 24; n += 3) {
    ASSERT_TRUE(dc_remove(*buses[rng.below(buses.size())], live[n].uid).ok()) << n;
    live.erase(n);
  }
  for (std::uint64_t n = 0; n < 24; ++n) {
    for (auto& bus : buses) {
      const auto got = dc_get(*bus, make_data(n).uid);
      if (live.count(n) != 0) {
        ASSERT_TRUE(got.ok()) << n;
        EXPECT_EQ(got->name, live[n].name);
      } else {
        ASSERT_FALSE(got.ok()) << n;
        EXPECT_EQ(got.error().code, Errc::kNotFound) << n;
      }
    }
  }
}

TEST(RingLive, PendingRowCompletesOnceOnOwnerAndReplicas) {
  Member a, b, c;
  ASSERT_TRUE(a.start().ok());
  ASSERT_TRUE(b.start(a.endpoint()).ok());
  ASSERT_TRUE(c.start(a.endpoint()).ok());
  ASSERT_TRUE(eventually(5, [&] { return ring_converged(a.host->port(), 3); }));

  auto bus_a = connect(a.host->port());
  auto bus_c = connect(c.host->port());
  const core::Data pending = make_data(77);  // no checksum: an upload in progress
  ASSERT_TRUE(dc_register(*bus_a, pending).ok());
  core::Data complete = pending;
  complete.checksum = "0123456789abcdef0123456789abcdef";
  ASSERT_TRUE(dc_register(*bus_c, complete).ok());  // completes it, wherever it lives
  core::Data again = complete;
  again.checksum = "fedcba9876543210fedcba9876543210";
  EXPECT_EQ(dc_register(*bus_a, again).code(), Errc::kDuplicate);

  for (Member* m : {&a, &b, &c}) {
    auto bus = connect(m->host->port());
    const auto got = dc_get(*bus, pending.uid);
    ASSERT_TRUE(got.ok()) << got.error().to_string();
    EXPECT_EQ(*got, complete);
  }
  // Writes replicate before they are answered: once the hosts stop, the
  // owner and its replica hold the completed row.
  for (Member* m : {&a, &b, &c}) m->host->stop();
  int holders = 0;
  for (Member* m : {&a, &b, &c}) {
    const auto held = m->container->dc().get(pending.uid);
    if (!held.has_value()) continue;
    EXPECT_EQ(*held, complete);
    ++holders;
  }
  EXPECT_GE(holders, 2);
}

TEST(RingLive, JoinTakesOverKeysAndServesThem) {
  Member a;
  ASSERT_TRUE(a.start().ok());
  auto bus_a = connect(a.host->port());
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(publish(*bus_a, "jk" + std::to_string(i), "v").ok());
  }

  Member b, c;
  ASSERT_TRUE(b.start(a.endpoint()).ok());
  ASSERT_TRUE(c.start(a.endpoint()).ok());
  ASSERT_TRUE(eventually(5, [&] { return ring_converged(a.host->port(), 3); }));

  // The joiners adopted key ranges (join handoff + repair), and every key
  // resolves through the members that did not receive the publishes.
  auto bus_b = connect(b.host->port());
  auto bus_c = connect(c.host->port());
  ASSERT_TRUE(eventually(5, [&] {
    const auto ib = bus_b->ring_info();
    const auto ic = bus_c->ring_info();
    return ib.ok() && ic.ok() && ib->ddc_keys + ic->ddc_keys > 0;
  }));
  for (int i = 0; i < 60; ++i) {
    const std::string key = "jk" + std::to_string(i);
    for (auto* bus : {bus_b.get(), bus_c.get()}) {
      const auto got = lookup(*bus, key);
      ASSERT_TRUE(got.ok()) << key;
      EXPECT_EQ(got->size(), 1u) << key;
    }
  }
}

TEST(RingLive, CrashLosesNoKeysAtReplicationTwo) {
  Member a, b, c;
  ASSERT_TRUE(a.start().ok());
  ASSERT_TRUE(b.start(a.endpoint()).ok());
  ASSERT_TRUE(eventually(5, [&] { return ring_converged(a.host->port(), 2); }));
  ASSERT_TRUE(c.start(a.endpoint()).ok());
  ASSERT_TRUE(eventually(5, [&] { return ring_converged(a.host->port(), 3); }));

  auto bus_a = connect(a.host->port());
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(publish(*bus_a, "ck" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  // Let one repair round replicate everything before the crash.
  ASSERT_TRUE(eventually(5, [&] {
    std::uint64_t total = 0;
    for (const Member* m : {&a, &b, &c}) {
      auto bus = connect(m->host->port());
      const auto info = bus->ring_info();
      if (!info.ok()) return false;
      total += info->ddc_keys;
    }
    return total >= 2 * 80;
  }));

  b.host->stop();  // kill -9 equivalent: no leave, no handoff

  auto bus_c = connect(c.host->port());
  ASSERT_TRUE(eventually(10, [&] {
    for (int i = 0; i < 80; ++i) {
      const auto got = lookup(*bus_c, "ck" + std::to_string(i));
      if (!got.ok() || got->size() != 1) return false;
    }
    return true;
  }));
  // The survivors converge to a 2-member ring, and the original member
  // answers every key as well.
  EXPECT_TRUE(eventually(10, [&] { return ring_converged(a.host->port(), 2); }));
  for (int i = 0; i < 80; ++i) {
    const auto got = lookup(*bus_a, "ck" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ((*got)[0], "v" + std::to_string(i)) << i;
  }
}

TEST(RingLive, PlannedLeaveHandsKeysOff) {
  Member a, b;
  ASSERT_TRUE(a.start().ok());
  ASSERT_TRUE(b.start(a.endpoint()).ok());
  ASSERT_TRUE(eventually(5, [&] { return ring_converged(a.host->port(), 2); }));

  auto bus_b = connect(b.host->port());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(publish(*bus_b, "lk" + std::to_string(i), "v").ok());
  }

  b.host->ring_leave();
  b.host->stop();

  // No stabilization grace needed: the handoff is synchronous with leave().
  auto bus_a = connect(a.host->port());
  for (int i = 0; i < 50; ++i) {
    const auto got = lookup(*bus_a, "lk" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(got->size(), 1u) << i;
  }
  ASSERT_TRUE(eventually(5, [&] { return ring_converged(a.host->port(), 1); }));
}

TEST(RingLive, ClientChasesRedirects) {
  Member a, b, c;
  ASSERT_TRUE(a.start().ok());
  ASSERT_TRUE(b.start(a.endpoint()).ok());
  ASSERT_TRUE(c.start(a.endpoint()).ok());
  ASSERT_TRUE(eventually(5, [&] { return ring_converged(a.host->port(), 3); }));

  // Everything through ONE member: keys owned elsewhere come back as
  // redirects the bus must chase transparently.
  auto bus = connect(a.host->port());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(publish(*bus, "rk" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 40; ++i) {
    const auto got = lookup(*bus, "rk" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << i;
    ASSERT_EQ(got->size(), 1u) << i;
    EXPECT_EQ((*got)[0], "v" + std::to_string(i));
  }
  // With 3 members, ~2/3 of keyed calls land on a non-owner.
  EXPECT_GT(bus->redirects_followed(), 0u);
}

TEST(RingLive, DurableMemberRejoinsFromWal) {
  const auto dir = std::filesystem::temp_directory_path() / "bitdew_ring_wal_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string wal = (dir / "member.wal").string();
  constexpr std::uint64_t kStableId = 0x4242424242424242ULL;

  Member a;
  ASSERT_TRUE(a.start().ok());
  auto bus_a = connect(a.host->port());

  std::uint64_t held_before = 0;
  {
    Member b(wal);
    ASSERT_TRUE(b.start(a.endpoint(), kStableId).ok());
    ASSERT_TRUE(eventually(5, [&] { return ring_converged(a.host->port(), 2); }));
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(publish(*bus_a, "wk" + std::to_string(i), "v").ok());
    }
    auto bus_b = connect(b.host->port());
    ASSERT_TRUE(eventually(5, [&] {
      const auto info = bus_b->ring_info();
      if (!info.ok()) return false;
      held_before = info->ddc_keys;
      return held_before > 0;
    }));
    b.host->stop();  // crash: no leave — only the WAL survives
  }

  ASSERT_TRUE(eventually(10, [&] { return ring_converged(a.host->port(), 1); }));

  // Same WAL, same ring id: the restarted member re-announces its keys
  // instead of coming back empty.
  Member b2(wal);
  ASSERT_TRUE(b2.start(a.endpoint(), kStableId).ok());
  ASSERT_TRUE(eventually(5, [&] { return ring_converged(a.host->port(), 2); }));
  auto bus_b2 = connect(b2.host->port());
  const auto info = bus_b2->ring_info();
  ASSERT_TRUE(info.ok());
  EXPECT_GE(info->ddc_keys, held_before);
  for (int i = 0; i < 60; ++i) {
    const auto got = lookup(*bus_b2, "wk" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(got->size(), 1u) << i;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bitdew
