// Golden frames: the exact bytes of every ServiceBus endpoint on the wire.
// A recording tap sits between a RemoteServiceBus and a ServiceHost and
// keeps, for each call, the request body the bus put behind the frame
// header and the reply body the host sent back. A fixed script drives all
// 34 bus endpoints once each, with fixed inputs against a fresh container
// and reseeded uids, and both bodies are compared as hex against the table
// below. Any change to how an endpoint is encoded, decoded or dispatched
// shows up here as a byte diff.
//
// The script runs twice: against an in-memory container, whose repository
// keeps content in a private temp dir, and against a WAL-backed one, whose
// content lives beside its WAL. Both serve dr_get_chunk as an fd slice and
// must produce the same bytes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "api/remote_service_bus.hpp"
#include "rpc/reactor.hpp"
#include "rpc/server.hpp"
#include "rpc/transport.hpp"
#include "rpc/wire.hpp"
#include "util/auid.hpp"
#include "util/md5.hpp"

namespace bitdew {
namespace {

namespace wire = rpc::wire;

/// One request/reply pair as the tap saw it (bodies without frame headers).
struct Exchange {
  wire::Endpoint endpoint = wire::Endpoint::kPing;
  std::string request;
  std::string reply;
};

/// A recording proxy: every frame it accepts is forwarded unchanged to the
/// upstream host over one connection, and the upstream reply goes back
/// unchanged to the caller.
class Tap {
 public:
  explicit Tap(std::uint16_t upstream_port)
      : upstream_port_(upstream_port),
        server_([this](std::uint64_t, const std::string& frame) { return forward(frame); },
                rpc::EpollServerConfig{0, true, -1, 30, 2, 32}) {
    const api::Status started = server_.start();
    if (!started.ok()) throw std::runtime_error(started.error().to_string());
  }

  std::uint16_t port() const { return server_.port(); }

  std::vector<Exchange> exchanges() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return exchanges_;
  }

 private:
  std::optional<rpc::ReplyFrame> forward(const std::string& frame) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!upstream_.valid()) {
      auto connected = rpc::tcp_connect("127.0.0.1", upstream_port_, 2.0);
      if (!connected.ok()) return std::nullopt;
      upstream_ = std::move(*connected);
    }
    if (!rpc::send_frame(upstream_.get(), frame, 5.0)) return std::nullopt;
    rpc::RecvResult reply = rpc::recv_frame(upstream_.get(), 5.0);
    if (reply.status != rpc::IoStatus::kOk) return std::nullopt;
    rpc::Reader header(frame);
    Exchange exchange;
    exchange.endpoint = wire::read_frame_header(header).endpoint;
    exchange.request = frame.substr(wire::kFrameHeaderBytes);
    exchange.reply = reply.payload.substr(wire::kFrameHeaderBytes);
    exchanges_.push_back(std::move(exchange));
    rpc::ReplyFrame out;
    out.bytes = std::move(reply.payload);
    return out;
  }

  std::uint16_t upstream_port_;
  std::mutex mutex_;
  rpc::Fd upstream_;
  std::vector<Exchange> exchanges_;
  rpc::EpollServer server_;
};

std::string hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0xf]);
  }
  return out;
}

/// ds_hosts ages come from the scheduler's clock: checked by value, then
/// zeroed so the rest of the reply compares byte for byte.
std::string without_sync_ages(const std::string& reply) {
  rpc::Reader r(reply);
  api::Expected<std::vector<services::HostInfo>> hosts =
      wire::read_expected<std::vector<services::HostInfo>>(r, wire::read_host_list);
  EXPECT_TRUE(r.exhausted());
  if (!hosts.ok()) return reply;
  for (services::HostInfo& info : *hosts) {
    EXPECT_GE(info.last_sync_age_s, 0.0) << info.name;
    EXPECT_LT(info.last_sync_age_s, 60.0) << info.name;
    info.last_sync_age_s = 0;
  }
  rpc::Writer w;
  wire::write_expected(w, hosts, wire::write_host_list);
  return w.take();
}

struct Golden {
  const char* endpoint;
  const char* request;
  const char* reply;
};

// clang-format off
constexpr Golden kGolden[] = {
    {"dc_register_batch",
     "03000000a73e0f94b4931e5a010000000000000008000000676f6c64656e2d612000000032633137343361333931"
     "33303566626633363764663865346630363966396639050000000000000000000000a73e0f94b4931e5a02000000"
     "0000000008000000676f6c64656e2d62200000003638326264623464646462363632386364383131383233616137"
     "343839373866160000000000000000000000a73e0f94b4931e5a030000000000000008000000676f6c64656e2d63"
     "20000000643431643863643938663030623230346539383030393938656366383432376500000000000000000000"
     "0000",
     "03000000010101"},
    {"dc_register",
     "a73e0f94b4931e5a010000000000000008000000676f6c64656e2d61200000003263313734336133393133303566"
     "626633363764663865346630363966396639050000000000000000000000",
     "00010200000064633b0000007569642035613165393362342d393430662d336561372d303030302d303030303030"
     "30303030303120616c72656164792072656769737465726564"},
    {"dc_get",
     "a73e0f94b4931e5a0100000000000000",
     "01a73e0f94b4931e5a010000000000000008000000676f6c64656e2d612000000032633137343361333931333035"
     "66626633363764663865346630363966396639050000000000000000000000"},
    {"dc_search",
     "08000000676f6c64656e2d61",
     "0101000000a73e0f94b4931e5a010000000000000008000000676f6c64656e2d6120000000326331373433613339"
     "3133303566626633363764663865346630363966396639050000000000000000000000"},
    {"dc_add_locator",
     "a73e0f94b4931e5a0100000000000000030000006674700b000000676f6c64656e2d686f7374090000002f676f6c"
     "64656e2f6107000000757365723a7077",
     "01"},
    {"dc_locators",
     "a73e0f94b4931e5a0100000000000000",
     "0101000000a73e0f94b4931e5a0100000000000000030000006674700b000000676f6c64656e2d686f7374090000"
     "002f676f6c64656e2f6107000000757365723a7077"},
    {"dc_locators_batch",
     "02000000a73e0f94b4931e5a0100000000000000a73e0f94b4931e5a0400000000000000",
     "020000000101000000a73e0f94b4931e5a0100000000000000030000006674700b000000676f6c64656e2d686f73"
     "74090000002f676f6c64656e2f6107000000757365723a7077000202000000646330000000756e6b6e6f776e2075"
     "69642035613165393362342d393430662d336561372d303030302d303030303030303030303034"},
    {"dr_put",
     "a73e0f94b4931e5a010000000000000008000000676f6c64656e2d61200000003263313734336133393133303566"
     "62663336376466386534663036396639663905000000000000000000000005000000000000002000000032633137"
     "3433613339313330356662663336376466386534663036396639663903000000667470",
     "01a73e0f94b4931e5a01000000000000000300000066747006000000676f6c64656e2a00000073746f72652f3561"
     "3165393362342d393430662d336561372d303030302d30303030303030303030303100000000"},
    {"dr_get",
     "a73e0f94b4931e5a0100000000000000",
     "010500000000000000200000003263313734336133393133303566626633363764663865346630363966396639"},
    {"dr_remove",
     "a73e0f94b4931e5a0100000000000000",
     "01"},
    {"dr_put_start",
     "a73e0f94b4931e5a020000000000000008000000676f6c64656e2d62200000003638326264623464646462363632"
     "386364383131383233616137343839373866160000000000000000000000",
     "010000000000000000"},
    {"dr_put_chunk",
     "a73e0f94b4931e5a0200000000000000000000000000000016000000676f6c64656e206368756e6b656420706179"
     "6c6f6164",
     "01"},
    {"dr_put_commit",
     "a73e0f94b4931e5a020000000000000003000000746370",
     "01a73e0f94b4931e5a02000000000000000300000074637006000000676f6c64656e2a00000073746f72652f3561"
     "3165393362342d393430662d336561372d303030302d30303030303030303030303200000000"},
    {"dr_get_chunk",
     "a73e0f94b4931e5a020000000000000004000000000000000800000000000000",
     "0108000000656e206368756e6b"},
    {"dr_stats",
     "",
     "01010000000000000016000000000000000100000000000000080000000000000000000000000000000100000000"
     "000000"},
    {"dt_register",
     "a73e0f94b4931e5a010000000000000008000000676f6c64656e2d61200000003263313734336133393133303566"
     "6266333637646638653466303639663966390500000000000000000000000a000000676f6c64656e2d7372630a00"
     "0000676f6c64656e2d64737403000000667470",
     "010100000000000000"},
    {"dt_monitor",
     "01000000000000000300000000000000",
     "01"},
    {"dt_complete",
     "01000000000000000c00000072656365697665642d6d64350c00000065787065637465642d6d6435",
     "0004020000006474230000007469636b657420313a20726563656976656420636865636b73756d20646966666572"
     "73"},
    {"dt_failure",
     "0100000000000000020000000000000001",
     "01"},
    {"dt_give_up",
     "0100000000000000",
     "01"},
    {"ds_schedule",
     "a73e0f94b4931e5a030000000000000008000000676f6c64656e2d63200000006434316438636439386630306232"
     "3034653938303039393865636638343237650000000000000000000000000b000000676f6c64656e2d6174747201"
     "00000000000000010000000000000000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000003000000746370",
     "01"},
    {"ds_schedule_batch",
     "02000000a73e0f94b4931e5a010000000000000008000000676f6c64656e2d612000000032633137343361333931"
     "333035666266333637646638653466303639663966390500000000000000000000000b000000676f6c64656e2d61"
     "74747202000000000000000100000000000000000000000000000000000000000000000000000000000000000000"
     "000000000000000000000003000000746370a73e0f94b4931e5a020000000000000008000000676f6c64656e2d62"
     "20000000363832626462346464646236363238636438313138323361613734383937386616000000000000000000"
     "00000b000000676f6c64656e2d61747472fbffffffffffffff010000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000003000000746370",
     "0200000001000302000000647312000000696e76616c69642061747472696275746573"},
    {"ds_pin",
     "a73e0f94b4931e5a01000000000000000b000000676f6c64656e2d686f7374",
     "01"},
    {"job_submit",
     "a73e0f94b4931e5a05000000000000000a000000676f6c64656e2d6a6f6203000000020000007763020000002d63"
     "070000007b696e7075747d0100000008000000474f4c44454e3d310000000000003e4001000000a73e0f94b4931e"
     "5a0200000000000000a73e0f94b4931e5a0300000000000000",
     "01a73e0f94b4931e5a0500000000000000"},
    {"ds_sync",
     "020b000000676f6c64656e2d686f737400000000000000000101000000a73e0f94b4931e5a020000000000000000"
     "000000000000000e0000003132372e302e302e313a37303030",
     "0101000000000000000001000000a73e0f94b4931e5a020000000000000003000000a73e0f94b4931e5a01000000"
     "0000000008000000676f6c64656e2d61200000003263313734336133393133303566626633363764663865346630"
     "3639663966390500000000000000000000000b000000676f6c64656e2d6174747202000000000000000100000000"
     "00000000000000000000000000000000000000000000000000000000000000000000000000000000000300000074"
     "6370a73e0f94b4931e5a030000000000000008000000676f6c64656e2d6320000000643431643863643938663030"
     "62323034653938303039393865636638343237650000000000000000000000000b000000676f6c64656e2d617474"
     "72010000000000000001000000000000000000000000000000000000000000000000000000000000000000000000"
     "00000000000000000003000000746370a73e0f94b4931e5a06000000000000000c000000676f6c64656e2d6a6f62"
     "23302000000064343164386364393866303062323034653938303039393865636638343237650000000000000000"
     "000000000b0000006269746465772d7461736b000000000000000001000000000000000000000000000000000000"
     "00000000000000a73e0f94b4931e5a02000000000000000000000003000000746370000000000300000000000000"
     "0000000000000000"},
    {"ds_hosts",
     "",
     "01010000000b000000676f6c64656e2d686f7374000000000000000001010000000e0000003132372e302e302e31"
     "3a373030300100000000000000000000000000000000000000"},
    {"job_status",
     "a73e0f94b4931e5a0500000000000000",
     "01a73e0f94b4931e5a05000000000000000a000000676f6c64656e2d6a6f62010000000000000001000000000000"
     "00000000000000000000000000000000000000000000000000000000000000000000000000000000000100000000"
     "00000000000000000000000001000000000000000000000000000000000000000000000000"},
    {"job_claim",
     "a73e0f94b4931e5a06000000000000000b000000676f6c64656e2d686f7374",
     "01a73e0f94b4931e5a0600000000000000a73e0f94b4931e5a050000000000000000000000000000000300000002"
     "0000007763020000002d63070000007b696e7075747d0100000008000000474f4c44454e3d310000000000003e40"
     "a73e0f94b4931e5a020000000000000008000000676f6c64656e2d62200000003638326264623464646462363632"
     "38636438313138323361613734383937386616000000000000000000000013000000676f6c64656e2d6a6f622d72"
     "6573756c742d30"},
    {"job_task_report",
     "a73e0f94b4931e5a06000000000000000b000000676f6c64656e2d686f73740100000000000000000001a73e0f94"
     "b4931e5a07000000000000000d000000676f6c64656e2d726573756c742000000062366437363764326638656435"
     "64323161343462306535383836363830636239020000000000000000000000",
     "01"},
    {"ds_unschedule",
     "a73e0f94b4931e5a0100000000000000",
     "01"},
    {"ddc_publish",
     "0a000000676f6c64656e2d6b65790c000000676f6c64656e2d76616c7565",
     "01"},
    {"ddc_search",
     "0a000000676f6c64656e2d6b6579",
     "01010000000c000000676f6c64656e2d76616c7565"},
    {"ddc_publish_batch",
     "0200000009000000676f6c64656e2d6b3202000000763200000000020000007633",
     "020000000100070300000064646309000000656d707479206b6579"},
    {"dc_remove",
     "a73e0f94b4931e5a0100000000000000",
     "01"},
};
// clang-format on

core::Data datum(const std::string& name, const std::string& payload) {
  core::Data data;
  data.uid = util::next_auid();
  data.name = name;
  data.checksum = util::Md5::of(payload).hex();
  data.size = static_cast<std::int64_t>(payload.size());
  return data;
}

core::DataAttributes attributes(int replica) {
  core::DataAttributes out;
  out.name = "golden-attr";
  out.replica = replica;
  out.fault_tolerant = true;
  out.protocol = "tcp";
  return out;
}

/// What the tap saw for one run of the script, with each call's outcome.
struct Run {
  std::vector<Exchange> seen;
  std::vector<std::string> outcomes;
};

/// Serves `container` and drives every bus endpoint once through the tap.
Run run_script(services::ServiceContainer& container) {
  rpc::ServiceHostConfig config;
  config.loopback_only = true;
  config.failure_sweep_period_s = 0;  // no background writer besides the calls
  dht::LocalDht ddc;
  rpc::ServiceHost host(container, ddc, config);
  Run run;
  if (!host.start().ok()) {
    ADD_FAILURE() << "host did not start";
    return run;
  }
  Tap tap(host.port());
  api::RemoteServiceBus bus("127.0.0.1", tap.port(), api::RemoteBusConfig{2.0, 5.0});

  const std::string payload = "golden chunked payload";
  const core::Data a = datum("golden-a", "alpha");
  const core::Data b = datum("golden-b", payload);
  const core::Data c = datum("golden-c", "");
  const util::Auid unknown = util::next_auid();
  const util::Auid job = util::next_auid();
  const core::Locator locator{a.uid, "ftp", "golden-host", "/golden/a", "user:pw"};

  // Every reply lands here; the bytes are what the test checks, but a
  // failed script step should say which one.
  std::vector<std::string>& outcomes = run.outcomes;
  const auto note = [&outcomes](const auto& result) {
    outcomes.push_back(result.ok() ? "ok" : result.error().to_string());
  };
  const auto note_batch = [&outcomes](const auto& results) {
    outcomes.push_back("batch of " + std::to_string(results.size()));
  };

  bus.dc_register_batch({a, b, c}, note_batch);
  bus.dc_register(a, note);
  bus.dc_get(a.uid, note);
  bus.dc_search("golden-a", note);
  bus.dc_add_locator(locator, note);
  bus.dc_locators(a.uid, note);
  bus.dc_locators_batch({a.uid, unknown}, note_batch);
  bus.dr_put(a, core::Content{5, a.checksum}, "ftp", note);
  bus.dr_get(a.uid, note);
  bus.dr_remove(a.uid, note);
  bus.dr_put_start(b, note);
  bus.dr_put_chunk(b.uid, 0, payload, note);
  bus.dr_put_commit(b.uid, "tcp", note);
  bus.dr_get_chunk(b.uid, 4, 8, note);
  bus.dr_stats(note);
  services::TicketId ticket = 0;
  bus.dt_register(a, "golden-src", "golden-dst", "ftp",
                  [&](api::Expected<services::TicketId> minted) {
                    note(minted);
                    if (minted.ok()) ticket = *minted;
                  });
  bus.dt_monitor(ticket, 3, note);
  bus.dt_complete(ticket, "received-md5", "expected-md5", note);
  bus.dt_failure(ticket, 2, true, note);
  bus.dt_give_up(ticket, note);
  bus.ds_schedule(c, attributes(1), note);
  bus.ds_schedule_batch({{a, attributes(2)}, {b, attributes(-5)}}, note_batch);
  bus.ds_pin(a.uid, "golden-host", note);
  jobs::JobSpec spec;
  spec.uid = job;
  spec.name = "golden-job";
  spec.argv = {"wc", "-c", "{input}"};
  spec.env = {"GOLDEN=1"};
  spec.timeout_s = 30;
  spec.inputs = {b.uid};
  spec.collector = c.uid;
  bus.job_submit(spec, note);
  services::SyncRequest sync;
  sync.host = "golden-host";
  sync.full = true;
  sync.added = {b.uid};
  sync.endpoint = "127.0.0.1:7000";
  util::Auid task;
  bus.ds_sync(sync, [&](api::Expected<services::SyncReply> reply) {
    note(reply);
    if (!reply.ok()) return;
    for (const services::ScheduledData& item : reply->download) {
      if (item.data.name == "golden-job#0") task = item.data.uid;
    }
  });
  bus.ds_hosts(note);
  bus.job_status(job, note);
  bus.job_claim(task, "golden-host", note);
  jobs::TaskReport report;
  report.task = task;
  report.runner = "golden-host";
  report.ok = true;
  report.data_local = true;
  report.result = datum("golden-result", "22");
  bus.job_task_report(report, note);
  bus.ds_unschedule(a.uid, note);
  bus.ddc_publish("golden-key", "golden-value", note);
  bus.ddc_search("golden-key", note);
  bus.ddc_publish_batch({{"golden-k2", "v2"}, {"", "v3"}}, note_batch);
  bus.dc_remove(a.uid, note);
  EXPECT_FALSE(task.is_nil()) << "the sync reply placed no task on golden-host";

  run.seen = tap.exchanges();
  host.stop();
  return run;
}

/// Compares a run with kGolden.
void expect_golden(const Run& run) {
  ASSERT_EQ(run.seen.size(), std::size(kGolden));
  for (std::size_t i = 0; i < run.seen.size(); ++i) {
    const Exchange& exchange = run.seen[i];
    const Golden& golden = kGolden[i];
    SCOPED_TRACE(std::string(golden.endpoint) + " (" + run.outcomes.at(i) + ")");
    EXPECT_STREQ(wire::endpoint_name(exchange.endpoint), golden.endpoint);
    EXPECT_EQ(hex(exchange.request), golden.request);
    const std::string reply = exchange.endpoint == wire::Endpoint::kDsHosts
                                  ? without_sync_ages(exchange.reply)
                                  : exchange.reply;
    EXPECT_EQ(hex(reply), golden.reply);
  }
}

TEST(GoldenFrames, EveryBusEndpointKeepsItsBytes) {
  util::reseed_auid(0x601d);
  util::ManualClock clock;
  services::ServiceContainer container("golden", clock);
  expect_golden(run_script(container));
}

TEST(GoldenFrames, FileBackedHostAnswersWithTheSameBytes) {
  // The WAL-backed container stages uploads in `<wal>.content/<uid>.part`
  // and serves dr_get_chunk as an fd slice, as the in-memory one does.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("bitdew-golden-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    util::reseed_auid(0x601d);
    util::ManualClock clock;
    services::ServiceContainer container("golden", clock, (dir / "golden.wal").string());
    expect_golden(run_script(container));
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bitdew
