// ServiceBus v2 tests: the typed Expected<T> error channel (distinct
// Error::codes for duplicate registration, unknown uids, scheduler
// rejection, checksum mismatch), the bulk endpoints (batch-of-1 scalar
// equivalence, partial failure, empty-batch no-op) and the blocking Session
// facade — all through EVERY implementation: the synchronous
// DirectServiceBus, the discrete-event SimServiceBus, and the networked
// RemoteServiceBus (a loopback ServiceHost, i.e. an in-process bitdewd).
// The remote rig also covers the failure contract: killing the host makes
// calls fail Errc::kTransport within the deadline instead of hanging.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>

#include "api/direct_service_bus.hpp"
#include "api/remote_service_bus.hpp"
#include "api/session.hpp"
#include "rpc/server.hpp"
#include "runtime/sim_service_bus.hpp"
#include "testbed/topologies.hpp"

namespace bitdew {
namespace {

using api::BatchStatus;
using api::Errc;
using api::Expected;
using api::Status;

core::Data make_data(const std::string& name, std::int64_t size = 1000) {
  core::Data data;
  data.uid = util::next_auid();
  data.name = name;
  data.size = size;
  data.checksum = core::synthetic_content(data.uid.lo, size).checksum;
  return data;
}

core::DataAttributes attr(int replica) {
  core::DataAttributes attributes;
  attributes.replica = replica;
  return attributes;
}

/// A full-report sync beat (the retired positional overload, spelled as the
/// one SyncRequest entry point).
services::SyncRequest full_sync(const std::string& host, std::vector<util::Auid> cache,
                                const std::string& endpoint = "") {
  services::SyncRequest request;
  request.host = host;
  request.full = true;
  request.added = std::move(cache);
  request.endpoint = endpoint;
  return request;
}

/// The synchronous rig: replies resolve before the call returns.
struct DirectRig {
  DirectRig() : container("server", clock), bus(container, ddc) {}

  void settle() {}
  std::uint64_t traffic() const { return bus.call_count(); }
  api::Session::Pump pump() { return nullptr; }

  util::ManualClock clock;
  services::ServiceContainer container;
  dht::LocalDht ddc;
  api::DirectServiceBus bus;
};

/// The discrete-event rig: every call crosses the simulated network and the
/// FIFO service queue; settle() drains the event queue.
struct SimRig {
  SimRig()
      : net(sim),
        cluster(testbed::make_cluster(net, testbed::ClusterSpec{"gdx", 2})),
        container(net.host_name(cluster.hosts[0]), sim),
        queue(sim, 500e-6),
        bus(sim, net, cluster.hosts[1], cluster.hosts[0], container, queue, ddc) {}

  void settle() { sim.run(); }
  std::uint64_t traffic() const { return bus.rpc_count(); }
  api::Session::Pump pump() {
    return [this] { return sim.step(); };
  }

  sim::Simulator sim{5};
  net::Network net;
  testbed::Cluster cluster;
  services::ServiceContainer container;
  runtime::ServiceQueue queue;
  dht::LocalDht ddc;
  runtime::SimServiceBus bus;
};

/// The networked rig: a loopback ServiceHost (bitdewd-equivalent) on an
/// ephemeral port, driven through RemoteServiceBus over real TCP. Replies
/// resolve synchronously like the direct bus, so settle() is a no-op.
struct RemoteRig {
  RemoteRig()
      : container("server", clock),
        host(container, ddc, rpc::ServiceHostConfig{0, /*loopback_only=*/true, -1}),
        bus("127.0.0.1", start_host(), api::RemoteBusConfig{1.0, 2.0}) {}

  std::uint16_t start_host() {
    const api::Status started = host.start();
    if (!started.ok()) throw std::runtime_error(started.error().to_string());
    return host.port();
  }

  void settle() {}
  std::uint64_t traffic() const { return bus.rpc_count(); }
  api::Session::Pump pump() { return nullptr; }

  util::ManualClock clock;
  services::ServiceContainer container;
  dht::LocalDht ddc;
  rpc::ServiceHost host;
  api::RemoteServiceBus bus;
};

template <typename T>
std::optional<T> capture(std::optional<T>& slot) {
  return slot;
}

// --- the typed error channel ------------------------------------------------

template <typename Rig>
void check_error_codes() {
  Rig rig;
  const core::Data data = make_data("genome");

  // Concurrent RPCs may overtake each other on the simulated network, so
  // assert the pair of outcomes, not their order: exactly one registration
  // wins and the other reports kDuplicate.
  std::optional<Status> first;
  std::optional<Status> second;
  rig.bus.dc_register(data, [&](Status s) { first = s; });
  rig.bus.dc_register(data, [&](Status s) { second = s; });
  rig.settle();
  ASSERT_TRUE(first.has_value() && second.has_value());
  const Status& winner = first->ok() ? *first : *second;
  const Status& loser = first->ok() ? *second : *first;
  EXPECT_TRUE(winner.ok());
  EXPECT_EQ(loser.code(), Errc::kDuplicate);
  EXPECT_EQ(loser.error().service, "dc");

  // Unknown-uid locate is kNotFound — distinct from a registered datum
  // that merely has no locators yet (ok + empty).
  std::optional<Expected<std::vector<core::Locator>>> unknown;
  std::optional<Expected<std::vector<core::Locator>>> empty;
  rig.bus.dc_locators(util::next_auid(), [&](auto v) { unknown = v; });
  rig.bus.dc_locators(data.uid, [&](auto v) { empty = v; });
  rig.settle();
  ASSERT_TRUE(unknown.has_value() && empty.has_value());
  EXPECT_EQ(unknown->code(), Errc::kNotFound);
  ASSERT_TRUE(empty->ok());
  EXPECT_TRUE((*empty)->empty());

  // Scheduler rejection: invalid replica count and self-affinity.
  std::optional<Status> rejected;
  std::optional<Status> self_affine;
  rig.bus.ds_schedule(data, attr(-5), [&](Status s) { rejected = s; });
  core::DataAttributes loop_attr = attr(1);
  loop_attr.affinity = data.uid;
  rig.bus.ds_schedule(data, loop_attr, [&](Status s) { self_affine = s; });
  rig.settle();
  EXPECT_EQ(rejected->code(), Errc::kRejected);
  EXPECT_EQ(rejected->error().service, "ds");
  EXPECT_EQ(self_affine->code(), Errc::kRejected);
  EXPECT_EQ(rig.container.ds().scheduled_count(), 0u);

  // Pinning an unscheduled datum is kNotFound.
  std::optional<Status> pin;
  rig.bus.ds_pin(data.uid, "host", [&](Status s) { pin = s; });
  rig.settle();
  EXPECT_EQ(pin->code(), Errc::kNotFound);

  // DT checksum verification failure is kChecksumMismatch.
  std::optional<Expected<services::TicketId>> ticket;
  rig.bus.dt_register(data, "server", "worker", "ftp", [&](auto t) { ticket = t; });
  rig.settle();
  ASSERT_TRUE(ticket.has_value() && ticket->ok());
  std::optional<Status> verify;
  rig.bus.dt_complete(ticket->value(), "badbadbad", data.checksum,
                      [&](Status s) { verify = s; });
  rig.settle();
  EXPECT_EQ(verify->code(), Errc::kChecksumMismatch);
  EXPECT_EQ(verify->error().service, "dt");
}

TEST(ErrorChannel, DirectBusSurfacesDistinctCodes) { check_error_codes<DirectRig>(); }
TEST(ErrorChannel, SimBusSurfacesDistinctCodes) { check_error_codes<SimRig>(); }
TEST(ErrorChannel, RemoteBusSurfacesDistinctCodes) { check_error_codes<RemoteRig>(); }

// --- the failure detector's host table ---------------------------------------

template <typename Rig>
void check_ds_hosts() {
  Rig rig;
  std::optional<api::Expected<std::vector<services::HostInfo>>> empty;
  rig.bus.ds_hosts(
      [&](api::Expected<std::vector<services::HostInfo>> reply) { empty = std::move(reply); });
  rig.settle();
  ASSERT_TRUE(empty.has_value());
  ASSERT_TRUE(empty->ok());
  EXPECT_TRUE((*empty)->empty());  // no worker has ever synced

  std::optional<api::Expected<services::SyncReply>> synced;
  rig.bus.ds_sync(full_sync("w1", {}, "10.0.0.7:9000"),
                  [&](api::Expected<services::SyncReply> reply) { synced = std::move(reply); });
  rig.settle();
  ASSERT_TRUE(synced.has_value());
  ASSERT_TRUE(synced->ok());

  std::optional<api::Expected<std::vector<services::HostInfo>>> table;
  rig.bus.ds_hosts(
      [&](api::Expected<std::vector<services::HostInfo>> reply) { table = std::move(reply); });
  rig.settle();
  ASSERT_TRUE(table.has_value());
  ASSERT_TRUE(table->ok());
  ASSERT_EQ((*table)->size(), 1u);
  EXPECT_EQ((**table)[0].name, "w1");
  EXPECT_TRUE((**table)[0].alive);
  EXPECT_EQ((**table)[0].cached, 0u);
  // The announced chunk-server endpoint survives the round trip on every bus.
  EXPECT_EQ((**table)[0].endpoint, "10.0.0.7:9000");
}

TEST(HostTable, DirectBusServesIt) { check_ds_hosts<DirectRig>(); }
TEST(HostTable, SimBusServesIt) { check_ds_hosts<SimRig>(); }
TEST(HostTable, RemoteBusServesIt) { check_ds_hosts<RemoteRig>(); }

// --- the job endpoints -------------------------------------------------------

/// The whole compute-to-data lifecycle over one bus: submit → the task datum
/// reaches the input's holder via ds_sync → claim race → report → status
/// complete — plus the typed rejections at each step.
template <typename Rig>
void check_job_endpoints() {
  Rig rig;
  const core::Data input = make_data("chunk");
  const core::Data token = make_data("collector", 0);
  std::optional<Status> status_reply;
  rig.bus.dc_register(input, [&](Status s) { status_reply = s; });
  rig.bus.dc_register(token, [&](Status) {});
  core::DataAttributes replicated = attr(1);
  replicated.fault_tolerant = true;
  rig.bus.ds_schedule(input, replicated, [&](Status) {});
  rig.bus.ds_schedule(token, attr(0), [&](Status) {});
  rig.settle();
  rig.bus.ds_pin(token.uid, "coll", [&](Status s) { status_reply = s; });
  rig.settle();
  ASSERT_TRUE(status_reply.has_value() && status_reply->ok());

  // w1 acquires and confirms the input; the collector holds its token.
  rig.bus.ds_sync(full_sync("w1", {}), [&](auto) {});
  rig.bus.ds_sync(full_sync("w1", {input.uid}), [&](auto) {});
  rig.bus.ds_sync(full_sync("coll", {token.uid}), [&](auto) {});
  rig.settle();

  // A spec with no inputs is a typed rejection, not a hang or a crash.
  jobs::JobSpec bad;
  bad.uid = util::next_auid();
  bad.argv = {"/bin/true"};
  bad.collector = token.uid;
  std::optional<Expected<util::Auid>> rejected;
  rig.bus.job_submit(bad, [&](Expected<util::Auid> r) { rejected = std::move(r); });
  rig.settle();
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(rejected->code(), Errc::kInvalidArgument);
  EXPECT_EQ(rejected->error().service, "jobs");

  jobs::JobSpec spec = bad;
  spec.uid = util::next_auid();
  spec.name = "grep";
  spec.inputs = {input.uid};
  std::optional<Expected<util::Auid>> submitted;
  rig.bus.job_submit(spec, [&](Expected<util::Auid> r) { submitted = std::move(r); });
  rig.settle();
  ASSERT_TRUE(submitted.has_value() && submitted->ok());

  // Unknown job/task are kNotFound on the same typed channel.
  std::optional<Expected<jobs::JobStatusInfo>> unknown_job;
  rig.bus.job_status(util::next_auid(),
                     [&](Expected<jobs::JobStatusInfo> r) { unknown_job = std::move(r); });
  std::optional<Expected<jobs::TaskOrder>> unknown_task;
  rig.bus.job_claim(util::next_auid(), "w1",
                    [&](Expected<jobs::TaskOrder> r) { unknown_task = std::move(r); });
  rig.settle();
  EXPECT_EQ(unknown_job->code(), Errc::kNotFound);
  EXPECT_EQ(unknown_task->code(), Errc::kNotFound);

  // The task datum is delivered to the holder on its next sync.
  std::optional<api::Expected<services::SyncReply>> synced;
  rig.bus.ds_sync(full_sync("w1", {input.uid}),
                  [&](api::Expected<services::SyncReply> r) { synced = std::move(r); });
  rig.settle();
  ASSERT_TRUE(synced.has_value() && synced->ok());
  util::Auid task;
  for (const services::ScheduledData& item : (*synced)->download) {
    if (item.attributes.name == jobs::kTaskAttributeName) task = item.data.uid;
  }
  ASSERT_FALSE(task.is_nil());

  // The claim race over the bus: first wins, second stands down.
  std::optional<Expected<jobs::TaskOrder>> won;
  std::optional<Expected<jobs::TaskOrder>> lost;
  rig.bus.job_claim(task, "w1", [&](Expected<jobs::TaskOrder> r) { won = std::move(r); });
  rig.bus.job_claim(task, "w2", [&](Expected<jobs::TaskOrder> r) { lost = std::move(r); });
  rig.settle();
  ASSERT_TRUE(won.has_value() && lost.has_value());
  const Expected<jobs::TaskOrder>& winner = won->ok() ? *won : *lost;
  const Expected<jobs::TaskOrder>& loser = won->ok() ? *lost : *won;
  ASSERT_TRUE(winner.ok());
  EXPECT_EQ(loser.code(), Errc::kRejected);
  EXPECT_EQ(winner->input.uid, input.uid);
  EXPECT_EQ(winner->argv, spec.argv);

  jobs::TaskReport report;
  report.task = task;
  report.runner = won->ok() ? "w1" : "w2";
  report.ok = true;
  report.data_local = true;
  report.result = make_data("grep-result-0");
  std::optional<Status> reported;
  rig.bus.job_task_report(report, [&](Status s) { reported = s; });
  rig.settle();
  ASSERT_TRUE(reported.has_value() && reported->ok());

  std::optional<Expected<jobs::JobStatusInfo>> done;
  rig.bus.job_status(submitted->value(),
                     [&](Expected<jobs::JobStatusInfo> r) { done = std::move(r); });
  rig.settle();
  ASSERT_TRUE(done.has_value() && done->ok());
  EXPECT_TRUE((*done)->complete());
  EXPECT_EQ((*done)->data_local, 1);
  ASSERT_EQ((*done)->tasks.size(), 1u);
  EXPECT_EQ((*done)->tasks[0].result, report.result.uid);
  // The result datum entered Θ with the affinity chain to the collector.
  const auto scheduled = rig.container.ds().scheduled(report.result.uid);
  ASSERT_TRUE(scheduled.has_value());
  EXPECT_EQ(scheduled->attributes.affinity, token.uid);
}

TEST(JobEndpoints, DirectBusRunsTheLifecycle) { check_job_endpoints<DirectRig>(); }
TEST(JobEndpoints, SimBusRunsTheLifecycle) { check_job_endpoints<SimRig>(); }
TEST(JobEndpoints, RemoteBusRunsTheLifecycle) { check_job_endpoints<RemoteRig>(); }

// --- bulk endpoints ----------------------------------------------------------

template <typename Rig>
void check_batch_of_one_equivalence() {
  Rig rig;
  const core::Data scalar_data = make_data("scalar");
  const core::Data batch_data = make_data("batched");

  std::optional<Status> scalar;
  std::optional<BatchStatus> batch;
  rig.bus.dc_register(scalar_data, [&](Status s) { scalar = s; });
  rig.bus.dc_register_batch({batch_data}, [&](BatchStatus s) { batch = s; });
  rig.settle();
  ASSERT_EQ(batch->size(), 1u);
  EXPECT_EQ(scalar->ok(), (*batch)[0].ok());

  // Both really registered — and re-running either path reports the same
  // duplicate code.
  std::optional<Status> scalar_dup;
  std::optional<BatchStatus> batch_dup;
  rig.bus.dc_register(scalar_data, [&](Status s) { scalar_dup = s; });
  rig.bus.dc_register_batch({batch_data}, [&](BatchStatus s) { batch_dup = s; });
  rig.settle();
  EXPECT_EQ(scalar_dup->code(), Errc::kDuplicate);
  EXPECT_EQ((*batch_dup)[0].code(), Errc::kDuplicate);
  EXPECT_EQ(scalar_dup->error().service, (*batch_dup)[0].error().service);
}

TEST(BatchEndpoints, DirectBatchOfOneMatchesScalar) {
  check_batch_of_one_equivalence<DirectRig>();
}
TEST(BatchEndpoints, SimBatchOfOneMatchesScalar) { check_batch_of_one_equivalence<SimRig>(); }
TEST(BatchEndpoints, RemoteBatchOfOneMatchesScalar) {
  check_batch_of_one_equivalence<RemoteRig>();
}

template <typename Rig>
void check_partial_failure() {
  Rig rig;
  const core::Data poison = make_data("poison");
  std::optional<Status> seeded;
  rig.bus.dc_register(poison, [&](Status s) { seeded = s; });
  rig.settle();
  ASSERT_TRUE(seeded->ok());

  const core::Data before = make_data("before");
  const core::Data after = make_data("after");
  std::optional<BatchStatus> statuses;
  rig.bus.dc_register_batch({before, poison, after}, [&](BatchStatus s) { statuses = s; });
  rig.settle();
  ASSERT_EQ(statuses->size(), 3u);
  EXPECT_TRUE((*statuses)[0].ok());
  EXPECT_EQ((*statuses)[1].code(), Errc::kDuplicate);
  EXPECT_TRUE((*statuses)[2].ok());

  // The good items really landed despite the bad one.
  std::optional<Expected<core::Data>> got_before;
  std::optional<Expected<core::Data>> got_after;
  rig.bus.dc_get(before.uid, [&](auto d) { got_before = d; });
  rig.bus.dc_get(after.uid, [&](auto d) { got_after = d; });
  rig.settle();
  EXPECT_TRUE(got_before->ok());
  EXPECT_TRUE(got_after->ok());

  // Scheduler batches report per-item rejection the same way.
  std::optional<BatchStatus> schedule_statuses;
  rig.bus.ds_schedule_batch(
      {services::ScheduledData{before, attr(1)}, services::ScheduledData{poison, attr(-7)},
       services::ScheduledData{after, attr(2)}},
      [&](BatchStatus s) { schedule_statuses = s; });
  rig.settle();
  ASSERT_EQ(schedule_statuses->size(), 3u);
  EXPECT_TRUE((*schedule_statuses)[0].ok());
  EXPECT_EQ((*schedule_statuses)[1].code(), Errc::kRejected);
  EXPECT_TRUE((*schedule_statuses)[2].ok());
  EXPECT_EQ(rig.container.ds().scheduled_count(), 2u);
}

TEST(BatchEndpoints, DirectPartialFailureDoesNotPoison) { check_partial_failure<DirectRig>(); }
TEST(BatchEndpoints, SimPartialFailureDoesNotPoison) { check_partial_failure<SimRig>(); }
TEST(BatchEndpoints, RemotePartialFailureDoesNotPoison) { check_partial_failure<RemoteRig>(); }

template <typename Rig>
void check_empty_batch_noop() {
  Rig rig;
  const std::uint64_t traffic_before = rig.traffic();
  std::optional<BatchStatus> registered;
  std::optional<api::BatchLocators> located;
  std::optional<BatchStatus> scheduled;
  std::optional<BatchStatus> published;
  rig.bus.dc_register_batch({}, [&](BatchStatus s) { registered = s; });
  rig.bus.dc_locators_batch({}, [&](api::BatchLocators l) { located = l; });
  rig.bus.ds_schedule_batch({}, [&](BatchStatus s) { scheduled = s; });
  rig.bus.ddc_publish_batch({}, [&](BatchStatus s) { published = s; });
  rig.settle();
  EXPECT_TRUE(registered->empty());
  EXPECT_TRUE(located->empty());
  EXPECT_TRUE(scheduled->empty());
  EXPECT_TRUE(published->empty());
  EXPECT_EQ(rig.traffic(), traffic_before);  // no RPC / service call issued
}

TEST(BatchEndpoints, DirectEmptyBatchIsNoop) { check_empty_batch_noop<DirectRig>(); }
TEST(BatchEndpoints, SimEmptyBatchIsNoop) { check_empty_batch_noop<SimRig>(); }
TEST(BatchEndpoints, RemoteEmptyBatchIsNoop) { check_empty_batch_noop<RemoteRig>(); }

template <typename Rig>
void check_ddc_and_locator_batches() {
  Rig rig;
  std::optional<BatchStatus> published;
  rig.bus.ddc_publish_batch({{"k1", "host-a"}, {"", "bad"}, {"k1", "host-b"}},
                            [&](BatchStatus s) { published = s; });
  rig.settle();
  ASSERT_EQ(published->size(), 3u);
  EXPECT_TRUE((*published)[0].ok());
  EXPECT_EQ((*published)[1].code(), Errc::kInvalidArgument);
  EXPECT_TRUE((*published)[2].ok());

  std::optional<Expected<std::vector<std::string>>> found;
  rig.bus.ddc_search("k1", [&](auto v) { found = v; });
  rig.settle();
  ASSERT_TRUE(found->ok());
  EXPECT_EQ((*found)->size(), 2u);

  // Locator batch: per-item kNotFound for unknown uids.
  const core::Data known = make_data("known");
  std::optional<Status> seeded;
  rig.bus.dc_register(known, [&](Status s) { seeded = s; });
  rig.settle();
  core::Locator locator;
  locator.data_uid = known.uid;
  locator.protocol = "ftp";
  locator.host = "server";
  locator.path = "x";
  std::optional<Status> added;
  rig.bus.dc_add_locator(locator, [&](Status s) { added = s; });
  rig.settle();
  ASSERT_TRUE(added->ok());

  std::optional<api::BatchLocators> located;
  rig.bus.dc_locators_batch({known.uid, util::next_auid()},
                            [&](api::BatchLocators l) { located = l; });
  rig.settle();
  ASSERT_EQ(located->size(), 2u);
  ASSERT_TRUE((*located)[0].ok());
  EXPECT_EQ((*located)[0]->size(), 1u);
  EXPECT_EQ((*located)[1].code(), Errc::kNotFound);
}

TEST(BatchEndpoints, DirectDdcAndLocatorBatches) { check_ddc_and_locator_batches<DirectRig>(); }
TEST(BatchEndpoints, SimDdcAndLocatorBatches) { check_ddc_and_locator_batches<SimRig>(); }
TEST(BatchEndpoints, RemoteDdcAndLocatorBatches) { check_ddc_and_locator_batches<RemoteRig>(); }

/// The bulk endpoint's whole point: one service event per batch, not per
/// item, with per-item service time preserved.
TEST(BatchEndpoints, SimBatchAmortizesServiceEvents) {
  SimRig scalar_rig;
  std::vector<core::Data> items;
  for (int i = 0; i < 64; ++i) items.push_back(make_data("d" + std::to_string(i)));

  for (const core::Data& data : items) scalar_rig.bus.dc_register(data, [](Status) {});
  scalar_rig.settle();
  EXPECT_EQ(scalar_rig.bus.rpc_count(), 64u);
  EXPECT_EQ(scalar_rig.queue.served(), 64u);

  SimRig batch_rig;
  std::optional<BatchStatus> statuses;
  batch_rig.bus.dc_register_batch(items, [&](BatchStatus s) { statuses = s; });
  batch_rig.settle();
  ASSERT_EQ(statuses->size(), 64u);
  for (const Status& status : *statuses) EXPECT_TRUE(status.ok());
  EXPECT_EQ(batch_rig.bus.rpc_count(), 1u);
  EXPECT_EQ(batch_rig.queue.served(), 1u);           // one service event...
  EXPECT_EQ(batch_rig.queue.items_served(), 64u);    // ...charged for 64 items
  EXPECT_EQ(batch_rig.container.dc().size(), 64u);
}

// --- the Session facade ------------------------------------------------------

template <typename Rig>
void check_session() {
  Rig rig;
  api::BitDew bitdew(rig.bus, "client");
  api::ActiveData active_data(rig.bus, "client");
  api::Session session(bitdew, active_data, rig.pump());

  const Expected<core::Data> data = session.create_data("dataset", {4096, "cafe"});
  ASSERT_TRUE(data.ok());
  EXPECT_TRUE(session.offer_local(*data, "http").ok());
  const auto locators = session.locate(data->uid);
  ASSERT_TRUE(locators.ok());
  EXPECT_EQ(locators->size(), 1u);

  // Blocking search: found and not-found.
  const Expected<core::Data> found = session.search("dataset");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->uid, data->uid);
  EXPECT_EQ(session.search("nope").code(), Errc::kNotFound);

  // Typed rejection through the blocking path.
  EXPECT_TRUE(session.schedule(*data, attr(2)).ok());
  EXPECT_EQ(session.schedule(*data, attr(-9)).code(), Errc::kRejected);

  // wait_all over futures: all ok, then one duplicate poisoning the join.
  std::vector<api::StatusFuture> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(session.publish_async("key" + std::to_string(i), "value"));
  }
  EXPECT_TRUE(session.wait_all(futures).ok());

  const Expected<std::vector<std::string>> values = session.lookup("key1");
  ASSERT_TRUE(values.ok());
  EXPECT_EQ(values->size(), 1u);

  // Bulk through the session: one round-trip, per-item statuses.
  auto [slots, statuses] = session.create_data_batch(
      {{"bulk-a", {10, "aa"}}, {"bulk-b", {20, "bb"}}});
  ASSERT_EQ(slots.size(), 2u);
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_TRUE(statuses[0].ok() && statuses[1].ok());
  const BatchStatus again = session.register_batch(slots);
  EXPECT_EQ(again[0].code(), Errc::kDuplicate);
  EXPECT_EQ(again[1].code(), Errc::kDuplicate);

  // A wait that can never resolve fails typed instead of hanging.
  api::StatusFuture orphan;
  EXPECT_EQ(session.wait(orphan).code(), Errc::kUnavailable);
}

TEST(Session, BlocksOverDirectBus) { check_session<DirectRig>(); }
TEST(Session, BlocksOverSimBus) { check_session<SimRig>(); }
TEST(Session, BlocksOverRemoteBus) { check_session<RemoteRig>(); }

// --- transport failure contract ----------------------------------------------

/// Killing the daemon must surface Errc::kTransport within the call
/// deadline — never hang, never crash.
TEST(RemoteTransport, DaemonKillSurfacesTransportError) {
  RemoteRig rig;
  const core::Data data = make_data("survivor");
  std::optional<Status> before;
  rig.bus.dc_register(data, [&](Status s) { before = s; });
  ASSERT_TRUE(before.has_value() && before->ok());

  rig.host.stop();  // the daemon dies with a call-ready client attached

  const auto start = std::chrono::steady_clock::now();
  std::optional<Status> after;
  rig.bus.dc_register(make_data("orphan"), [&](Status s) { after = s; });
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->code(), Errc::kTransport);
  EXPECT_EQ(after->error().service, "bus");
  EXPECT_LT(elapsed, 5.0);  // bounded by connect timeout + deadline, no hang

  // A batch against the dead daemon fails per-item, index-aligned.
  std::optional<BatchStatus> batch;
  rig.bus.dc_register_batch({make_data("a"), make_data("b")}, [&](BatchStatus s) { batch = s; });
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->size(), 2u);
  EXPECT_EQ((*batch)[0].code(), Errc::kTransport);
  EXPECT_EQ((*batch)[1].code(), Errc::kTransport);
}

TEST(RemoteTransport, ConnectionRefusedIsTransportNotHang) {
  // Grab an ephemeral port, then close the listener: nothing serves it.
  auto listener = rpc::tcp_listen(0, /*loopback_only=*/true);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t dead_port = listener->port;
  listener->fd.reset();

  api::RemoteServiceBus bus("127.0.0.1", dead_port, api::RemoteBusConfig{0.5, 0.5});
  std::optional<Expected<core::Data>> reply;
  bus.dc_get(util::next_auid(), [&](auto d) { reply = d; });
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->code(), Errc::kTransport);
}

/// The daemon restarting under a live client: the first call after the
/// restart may fail (the old socket is dead), but the bus reconnects and
/// the next call lands on the fresh host.
TEST(RemoteTransport, ClientReconnectsAfterRestart) {
  util::ManualClock clock;
  dht::LocalDht ddc;
  services::ServiceContainer container("server", clock);
  rpc::ServiceHostConfig config{0, /*loopback_only=*/true, -1};

  auto first = std::make_unique<rpc::ServiceHost>(container, ddc, config);
  ASSERT_TRUE(first->start().ok());
  const std::uint16_t port = first->port();

  api::RemoteServiceBus bus("127.0.0.1", port, api::RemoteBusConfig{1.0, 2.0});
  std::optional<Status> seeded;
  bus.dc_register(make_data("pre-restart"), [&](Status s) { seeded = s; });
  ASSERT_TRUE(seeded.has_value() && seeded->ok());

  first.reset();  // kill
  config.port = port;
  rpc::ServiceHost second(container, ddc, config);  // resurrect on the same port
  ASSERT_TRUE(second.start().ok());

  // The stale connection fails typed, then the bus dials the new host.
  std::optional<Status> stale;
  bus.dc_register(make_data("during-restart"), [&](Status s) { stale = s; });
  ASSERT_TRUE(stale.has_value());
  std::optional<Status> fresh;
  bus.dc_register(make_data("post-restart"), [&](Status s) { fresh = s; });
  ASSERT_TRUE(fresh.has_value());
  EXPECT_TRUE(fresh->ok());
  EXPECT_EQ(container.dc().size(), stale->ok() ? 3u : 2u);
}

/// Session::put_file(name, path) across a daemon restart: the stale socket's
/// failed search must not read as "name not registered" — a second datum
/// under the same name would shadow the first in lookups by name.
TEST(RemoteTransport, PutFileAfterRestartKeepsOneDatumPerName) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    ("bitdew-api-restart-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string wal = (dir / "wal").string();
  const std::string path = (dir / "x.bin").string();
  std::ofstream(path, std::ios::binary) << std::string(3000, 'x');

  util::ManualClock clock;
  dht::LocalDht ddc;
  rpc::ServiceHostConfig config{0, /*loopback_only=*/true, -1};
  auto container = std::make_unique<services::ServiceContainer>("server", clock, wal);
  auto host = std::make_unique<rpc::ServiceHost>(*container, ddc, config);
  ASSERT_TRUE(host->start().ok());
  config.port = host->port();

  api::RemoteServiceBus bus("127.0.0.1", config.port, api::RemoteBusConfig{1.0, 2.0});
  api::BitDew bitdew(bus, "client");
  api::ActiveData active_data(bus, "client");
  api::Session session(bitdew, active_data);
  session.set_chunk_bytes(1024);
  const Expected<core::Data> first = session.put_file("x", path);
  ASSERT_TRUE(first.ok()) << first.error().to_string();

  // Restart: same WAL, same port, fresh everything else.
  host.reset();
  container = std::make_unique<services::ServiceContainer>("server", clock, wal);
  host = std::make_unique<rpc::ServiceHost>(*container, ddc, config);
  ASSERT_TRUE(host->start().ok());

  // The first call on the stale socket may fail; it must fail typed, and
  // the next put (over a fresh connection) reuses the registered slot.
  Expected<core::Data> again = session.put_file("x", path);
  if (!again.ok()) {
    EXPECT_EQ(again.code(), Errc::kTransport) << again.error().to_string();
    again = session.put_file("x", path);
  }
  ASSERT_TRUE(again.ok()) << again.error().to_string();
  EXPECT_EQ(again->uid, first->uid);

  std::optional<Expected<std::vector<core::Data>>> named;
  bus.dc_search("x", [&](auto found) { named = std::move(found); });
  ASSERT_TRUE(named.has_value() && named->ok());
  ASSERT_EQ((*named)->size(), 1u);
  EXPECT_EQ((*named)->front().uid, first->uid);

  host.reset();
  container.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bitdew
