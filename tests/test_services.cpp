// Service-core tests: DC/DR/DT behaviour and every branch of the Data
// Scheduler's Algorithm 1 (keep/expire/affinity/replica/broadcast/
// MaxDataSchedule/failure detection/pinning/relative-lifetime chains).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "core/attributes.hpp"
#include "services/container.hpp"
#include "util/clock.hpp"
#include "util/md5.hpp"

namespace bitdew {
namespace {

using core::Data;
using core::DataAttributes;
using core::Lifetime;
using services::DataScheduler;
using services::SchedulerConfig;
using services::ScheduledData;
using services::SyncReply;

Data make_data(const std::string& name, std::int64_t size = 1000) {
  Data data;
  data.uid = util::next_auid();
  data.name = name;
  data.size = size;
  data.checksum = core::synthetic_content(data.uid.lo, size).checksum;
  return data;
}

std::vector<util::Auid> uids_of(const std::vector<ScheduledData>& items) {
  std::vector<util::Auid> out;
  out.reserve(items.size());
  for (const auto& item : items) out.push_back(item.data.uid);
  return out;
}

// --- Data Catalog ------------------------------------------------------------

class CatalogTest : public ::testing::Test {
 protected:
  db::Database database_;
  services::DataCatalog catalog_{database_};
};

TEST_F(CatalogTest, RegisterGetSearchRemove) {
  const Data data = make_data("genome");
  EXPECT_TRUE(catalog_.register_data(data));
  EXPECT_FALSE(catalog_.register_data(data));  // duplicate uid

  const auto got = catalog_.get(data.uid);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, data);

  EXPECT_EQ(catalog_.search("genome").size(), 1u);
  EXPECT_TRUE(catalog_.search("nope").empty());
  EXPECT_EQ(catalog_.search_one("genome")->uid, data.uid);

  EXPECT_TRUE(catalog_.remove(data.uid));
  EXPECT_FALSE(catalog_.remove(data.uid));
  EXPECT_FALSE(catalog_.get(data.uid).has_value());
}

TEST_F(CatalogTest, NamesAreNotUnique) {
  const Data a = make_data("shared");
  const Data b = make_data("shared");
  EXPECT_TRUE(catalog_.register_data(a));
  EXPECT_TRUE(catalog_.register_data(b));
  EXPECT_EQ(catalog_.search("shared").size(), 2u);
}

TEST_F(CatalogTest, PendingRowIsCompletedOnceInPlace) {
  Data pending = make_data("upload", 4096);
  pending.checksum.clear();
  ASSERT_TRUE(catalog_.register_data(pending));
  EXPECT_FALSE(catalog_.register_data(pending));  // a second pending register

  Data complete = pending;
  complete.checksum = util::Md5::of("upload").hex();
  Data other_name = complete;
  other_name.name = "elsewhere";
  Data other_size = complete;
  other_size.size = 1;
  EXPECT_FALSE(catalog_.register_data(other_name));
  EXPECT_FALSE(catalog_.register_data(other_size));
  EXPECT_EQ(catalog_.get(pending.uid), pending);

  EXPECT_TRUE(catalog_.register_data(complete));
  EXPECT_EQ(catalog_.get(pending.uid), complete);
  EXPECT_EQ(catalog_.search("upload").size(), 1u);
  // Complete now: every further register of the uid is a duplicate.
  Data again = complete;
  again.checksum = util::Md5::of("again").hex();
  EXPECT_FALSE(catalog_.register_data(complete));
  EXPECT_FALSE(catalog_.register_data(again));
  EXPECT_FALSE(catalog_.register_data(pending));
  EXPECT_EQ(catalog_.get(pending.uid), complete);
}

TEST_F(CatalogTest, LocatorsAttachAndCascadeDelete) {
  const Data data = make_data("with-locators");
  ASSERT_TRUE(catalog_.register_data(data));

  core::Locator locator;
  locator.data_uid = data.uid;
  locator.protocol = "ftp";
  locator.host = "server1";
  locator.path = "store/x";
  EXPECT_TRUE(catalog_.add_locator(locator));
  locator.host = "server2";
  EXPECT_TRUE(catalog_.add_locator(locator));
  EXPECT_EQ(catalog_.locators(data.uid).size(), 2u);

  // Locator for unknown data is rejected.
  core::Locator orphan = locator;
  orphan.data_uid = util::next_auid();
  EXPECT_FALSE(catalog_.add_locator(orphan));

  catalog_.remove(data.uid);
  EXPECT_TRUE(catalog_.locators(data.uid).empty());
}

// --- Data Repository -----------------------------------------------------------

TEST(Repository, PutGetRemove) {
  db::Database database;
  services::DataRepository repository(database, "server1");
  const Data data = make_data("blob", 4096);
  const auto content = core::synthetic_content(1, 4096);

  const core::Locator locator = repository.put(data, content, "ftp");
  EXPECT_EQ(locator.host, "server1");
  EXPECT_EQ(locator.protocol, "ftp");
  EXPECT_EQ(locator.data_uid, data.uid);

  ASSERT_TRUE(repository.exists(data.uid));
  EXPECT_EQ(repository.get(data.uid)->checksum, content.checksum);
  EXPECT_EQ(repository.stored_bytes(), 4096);
  EXPECT_EQ(repository.object_count(), 1u);

  // Re-put overwrites.
  const auto content2 = core::synthetic_content(2, 8192);
  repository.put(data, content2, "http");
  EXPECT_EQ(repository.stored_bytes(), 8192);
  EXPECT_EQ(repository.object_count(), 1u);

  EXPECT_TRUE(repository.remove(data.uid));
  EXPECT_FALSE(repository.remove(data.uid));
  EXPECT_FALSE(repository.get(data.uid).has_value());
}

/// A file-backed repository in a fresh temp dir, with one datum whose
/// content is `bytes`.
struct FileBackedRepository {
  explicit FileBackedRepository(const std::string& bytes)
      : dir(std::filesystem::temp_directory_path() /
            ("bitdew-repo-" + std::to_string(::getpid()) + "-" + util::next_auid().str())),
        repository(database, "server1", (dir / "content").string()) {
    data.uid = util::next_auid();
    data.name = "staged";
    data.size = static_cast<std::int64_t>(bytes.size());
    data.checksum = util::Md5::of(bytes).hex();
  }
  ~FileBackedRepository() { std::filesystem::remove_all(dir); }

  std::filesystem::path part() const { return dir / "content" / (data.uid.str() + ".part"); }

  std::filesystem::path dir;
  db::Database database;
  services::DataRepository repository;
  Data data;
};

TEST(Repository, FailedCommitRenamePublishesNothing) {
  // The staged bytes vanish before commit: the rename into the published
  // path fails, and no descriptor may be published without its bytes.
  const std::string bytes(1000, 'x');
  FileBackedRepository fixture(bytes);
  services::DataRepository& repository = fixture.repository;
  ASSERT_EQ(repository.stage_begin(fixture.data), 0);
  ASSERT_EQ(repository.stage_chunk(fixture.data.uid, 0, bytes), services::ChunkResult::kOk);
  ASSERT_TRUE(std::filesystem::remove(fixture.part()));

  EXPECT_EQ(repository.stage_commit(fixture.data.uid, "tcp"), services::CommitResult::kNoStage);
  EXPECT_FALSE(repository.exists(fixture.data.uid));
  EXPECT_FALSE(repository.has_bytes(fixture.data.uid));
  EXPECT_EQ(repository.stored_bytes(), 0);
  EXPECT_EQ(repository.object_count(), 0u);
}

TEST(Repository, EmptyUploadCommitsInFileMode) {
  FileBackedRepository fixture("");
  services::DataRepository& repository = fixture.repository;
  ASSERT_EQ(repository.stage_begin(fixture.data), 0);
  EXPECT_EQ(repository.stage_commit(fixture.data.uid, "tcp"), services::CommitResult::kOk);
  EXPECT_TRUE(repository.has_bytes(fixture.data.uid));
  EXPECT_EQ(repository.read_bytes(fixture.data.uid, 0, 16), "");
}

TEST(Repository, UncreatableContentDirFailsConstruction) {
  // A regular file where the WAL's content dir belongs: the container must
  // refuse to build, naming the path, instead of keeping content in WAL
  // rows. An in-memory container stages into a private dir instead.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("bitdew-nodir-" + std::to_string(::getpid()) + "-" + util::next_auid().str());
  std::filesystem::create_directories(dir);
  const std::string wal = (dir / "bitdewd.wal").string();
  { std::ofstream(wal + ".content") << "not a directory"; }
  util::ManualClock clock;
  try {
    services::ServiceContainer container("server", clock, wal);
    ADD_FAILURE() << "a container built over an unusable content dir";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(wal + ".content"), std::string::npos)
        << error.what();
  }
  services::ServiceContainer in_memory("server", clock);
  const Data data = make_data("blob", 3);
  ASSERT_EQ(in_memory.dr().stage_begin(data), 0);
  std::filesystem::remove_all(dir);
}

TEST(Repository, StaleChunkAfterResumeChangesNothing) {
  // A chunk reserved before a resume (its sender's connection died and the
  // retry called stage_begin) must neither advance the row nor reach the
  // hasher, whether its bytes landed before the resume or come after it.
  std::string bytes(3000, '\0');
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<char>(i * 37 + 11);
  FileBackedRepository fixture(bytes);
  services::DataRepository& repository = fixture.repository;
  const util::Auid uid = fixture.data.uid;
  const std::string stray(1000, '!');
  ASSERT_EQ(repository.stage_begin(fixture.data), 0);
  ASSERT_EQ(repository.stage_chunk(uid, 0, bytes.substr(0, 1000)), services::ChunkResult::kOk);

  // Written before the resume: the resume truncates the bytes away.
  services::StageSlot landed;
  ASSERT_EQ(repository.stage_reserve(uid, 1000, 1000, landed), services::ChunkResult::kOk);
  repository.stage_write(landed, stray);
  EXPECT_TRUE(landed.written);
  ASSERT_EQ(repository.stage_begin(fixture.data), 1000);
  EXPECT_EQ(repository.stage_advance(landed), services::ChunkResult::kBadOffset);
  repository.stage_hash(landed, stray);  // its upload is retired: returns at once
  EXPECT_EQ(repository.stage_received(uid), 1000);
  EXPECT_EQ(std::filesystem::file_size(fixture.part()), 1000u);

  // Written after the resume: nothing lands.
  services::StageSlot late;
  ASSERT_EQ(repository.stage_reserve(uid, 1000, 1000, late), services::ChunkResult::kOk);
  ASSERT_EQ(repository.stage_begin(fixture.data), 1000);
  repository.stage_write(late, stray);
  EXPECT_FALSE(late.written);
  EXPECT_EQ(repository.stage_advance(late), services::ChunkResult::kBadOffset);
  repository.stage_hash(late, stray);
  EXPECT_EQ(std::filesystem::file_size(fixture.part()), 1000u);

  // The resumed upload re-hashes the staged prefix from the .part file and
  // commits the real bytes.
  ASSERT_EQ(repository.stage_chunk(uid, 1000, bytes.substr(1000, 1000)),
            services::ChunkResult::kOk);
  ASSERT_EQ(repository.stage_chunk(uid, 2000, bytes.substr(2000)), services::ChunkResult::kOk);
  ASSERT_EQ(repository.stage_commit(uid, "tcp"), services::CommitResult::kOk);
  EXPECT_EQ(repository.read_bytes(uid, 0, 3000), bytes);
}

TEST(Repository, SealAdoptsTheChecksumAndKeepsTheLiveUpload) {
  std::string bytes(3000, '\0');
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<char>(i * 29 + 5);
  FileBackedRepository fixture(bytes);
  services::DataRepository& repository = fixture.repository;
  const util::Auid uid = fixture.data.uid;
  Data pending = fixture.data;
  pending.checksum.clear();
  ASSERT_EQ(repository.stage_begin(pending), 0);
  ASSERT_EQ(repository.stage_chunk(uid, 0, bytes.substr(0, 1000)), services::ChunkResult::kOk);
  EXPECT_EQ(repository.stage_begin(pending), 1000);  // a pending resume
  ASSERT_EQ(repository.stage_chunk(uid, 1000, bytes.substr(1000, 1000)),
            services::ChunkResult::kOk);

  // A chunk in flight across the seal still lands: the seal retires nothing.
  services::StageSlot in_flight;
  ASSERT_EQ(repository.stage_reserve(uid, 2000, 1000, in_flight), services::ChunkResult::kOk);
  EXPECT_EQ(repository.stage_begin(fixture.data), 2000);
  repository.stage_write(in_flight, bytes.substr(2000));
  EXPECT_TRUE(in_flight.written);
  ASSERT_EQ(repository.stage_advance(in_flight), services::ChunkResult::kOk);
  repository.stage_hash(in_flight, bytes.substr(2000));
  ASSERT_EQ(repository.stage_commit(uid, "tcp"), services::CommitResult::kOk);
  EXPECT_EQ(repository.read_bytes(uid, 0, 3000), bytes);
}

TEST(Repository, EveryOtherStartOnAPendingOrSealedStageResetsIt) {
  const std::string bytes(2000, 'z');
  FileBackedRepository fixture(bytes);
  services::DataRepository& repository = fixture.repository;
  const util::Auid uid = fixture.data.uid;
  Data pending = fixture.data;
  pending.checksum.clear();
  Data resized = fixture.data;
  resized.size = 1000;

  ASSERT_EQ(repository.stage_begin(pending), 0);
  ASSERT_EQ(repository.stage_chunk(uid, 0, bytes.substr(0, 1000)), services::ChunkResult::kOk);
  EXPECT_EQ(repository.stage_begin(resized), 0);  // a seal of another size
  EXPECT_EQ(repository.stage_received(uid), 0);

  ASSERT_EQ(repository.stage_begin(fixture.data), 0);
  ASSERT_EQ(repository.stage_chunk(uid, 0, bytes.substr(0, 1000)), services::ChunkResult::kOk);
  EXPECT_EQ(repository.stage_begin(pending), 0);  // a pending start on a sealed stage
  EXPECT_EQ(repository.stage_received(uid), 0);
  EXPECT_EQ(repository.stage_commit(uid, "tcp"), services::CommitResult::kIncomplete);
}

TEST(Repository, SecondChunkAtAClaimedOffsetIsRefused) {
  const std::string bytes(2000, 'y');
  FileBackedRepository fixture(bytes);
  services::DataRepository& repository = fixture.repository;
  const util::Auid uid = fixture.data.uid;
  ASSERT_EQ(repository.stage_begin(fixture.data), 0);
  services::StageSlot first;
  services::StageSlot second;
  ASSERT_EQ(repository.stage_reserve(uid, 0, 1000, first), services::ChunkResult::kOk);
  EXPECT_EQ(repository.stage_reserve(uid, 0, 1000, second), services::ChunkResult::kBadOffset);
  repository.stage_write(first, bytes.substr(0, 1000));
  ASSERT_EQ(repository.stage_advance(first), services::ChunkResult::kOk);
  repository.stage_hash(first, bytes.substr(0, 1000));
  ASSERT_EQ(repository.stage_chunk(uid, 1000, bytes.substr(1000)), services::ChunkResult::kOk);
  EXPECT_EQ(repository.stage_commit(uid, "tcp"), services::CommitResult::kOk);
}

TEST(Repository, WalWithChunkTableAndChunksColumnResumesAndCommits) {
  // A WAL written while in-memory repositories still kept chunk rows holds
  // a dr_chunk table, and its stage rows carry a `chunks` column. It must
  // replay, resume at the .part prefix and commit MD5-verified.
  std::string bytes(3000, '\0');
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<char>(i * 53 + 7);
  const auto dir = std::filesystem::temp_directory_path() /
                   ("bitdew-oldwal-" + std::to_string(::getpid()) + "-" + util::next_auid().str());
  std::filesystem::create_directories(dir / "bitdewd.wal.content");
  const std::string wal = (dir / "bitdewd.wal").string();
  Data data = make_data("resumed", static_cast<std::int64_t>(bytes.size()));
  data.checksum = util::Md5::of(bytes).hex();
  {
    db::Database written(wal);
    for (const char* table : {"dr_object", "dr_content", "dr_stage"}) {
      written.create_table(db::TableSchema{table, "uid", {}});
    }
    written.create_table(db::TableSchema{"dr_chunk", "key", {}});
    db::Row stage;
    stage["uid"] = data.uid.str();
    stage["received"] = std::int64_t{1000};
    stage["chunks"] = std::int64_t{1};
    stage["size"] = data.size;
    stage["checksum"] = data.checksum;
    ASSERT_TRUE(written.insert("dr_stage", std::move(stage)).has_value());
  }
  std::ofstream(wal + ".content/" + data.uid.str() + ".part", std::ios::binary)
      << bytes.substr(0, 1000);

  util::ManualClock clock;
  {
    services::ServiceContainer container("server", clock, wal);
    services::DataRepository& repository = container.dr();
    ASSERT_EQ(repository.stage_begin(data), 1000);
    ASSERT_EQ(repository.stage_chunk(data.uid, 1000, bytes.substr(1000)),
              services::ChunkResult::kOk);
    ASSERT_EQ(repository.stage_commit(data.uid, "tcp"), services::CommitResult::kOk);
    EXPECT_EQ(repository.read_bytes(data.uid, 0, 3000), bytes);
  }
  std::filesystem::remove_all(dir);
}

// --- Data Transfer ---------------------------------------------------------------

class TransferServiceTest : public ::testing::Test {
 protected:
  db::Database database_;
  util::ManualClock clock_;
  services::DataTransfer dt_{database_, clock_};
};

TEST_F(TransferServiceTest, LifecycleCompletes) {
  const Data data = make_data("payload", 1000);
  const auto ticket = dt_.register_transfer(data, "server", "worker1", "ftp");
  EXPECT_EQ(dt_.active_count(), 1u);

  clock_.advance(0.5);
  dt_.monitor(ticket, 400);
  const auto snapshot = dt_.ticket(ticket);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->done_bytes, 400);
  EXPECT_DOUBLE_EQ(snapshot->last_monitored_at, 0.5);

  EXPECT_TRUE(dt_.complete(ticket, data.checksum, data.checksum));
  EXPECT_EQ(dt_.ticket(ticket)->state, services::TransferState::kDone);
  EXPECT_EQ(dt_.active_count(), 0u);
  EXPECT_EQ(dt_.stats().completed, 1u);
}

TEST_F(TransferServiceTest, ChecksumMismatchKeepsTicketActiveAndResets) {
  const Data data = make_data("payload", 1000);
  const auto ticket = dt_.register_transfer(data, "server", "worker1", "ftp");
  dt_.monitor(ticket, 1000);
  EXPECT_FALSE(dt_.complete(ticket, "badbadbad", data.checksum));
  const auto snapshot = dt_.ticket(ticket);
  EXPECT_EQ(snapshot->state, services::TransferState::kActive);
  EXPECT_EQ(snapshot->done_bytes, 0);  // distrusted payload discarded
  EXPECT_EQ(snapshot->attempts, 2);
  EXPECT_EQ(dt_.stats().checksum_rejects, 1u);
}

TEST_F(TransferServiceTest, FailureWithResumeKeepsOffset) {
  const Data data = make_data("payload", 1000);
  const auto ticket = dt_.register_transfer(data, "server", "worker1", "ftp");
  dt_.report_failure(ticket, 600, /*can_resume=*/true);
  EXPECT_EQ(dt_.ticket(ticket)->done_bytes, 600);
  EXPECT_EQ(dt_.ticket(ticket)->attempts, 2);
  EXPECT_EQ(dt_.stats().resumes, 1u);

  dt_.report_failure(ticket, 0, /*can_resume=*/false);
  EXPECT_EQ(dt_.ticket(ticket)->done_bytes, 0);  // restart from scratch

  dt_.give_up(ticket);
  EXPECT_EQ(dt_.ticket(ticket)->state, services::TransferState::kFailed);
  EXPECT_EQ(dt_.active_count(), 0u);
}

// --- Data Scheduler: Algorithm 1 ----------------------------------------------

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() : ds_(clock_, SchedulerConfig{}) {}

  DataAttributes attr(int replica, bool ft = false) {
    DataAttributes attributes;
    attributes.replica = replica;
    attributes.fault_tolerant = ft;
    return attributes;
  }

  util::ManualClock clock_;
  DataScheduler ds_;
};

TEST_F(SchedulerTest, ReplicaRuleSchedulesUpToTarget) {
  const Data data = make_data("d");
  ds_.schedule(data, attr(2));

  // First two hosts get it, third does not.
  EXPECT_EQ(ds_.sync("h1", {}).download.size(), 1u);
  EXPECT_EQ(ds_.sync("h2", {}).download.size(), 1u);
  EXPECT_TRUE(ds_.sync("h3", {}).download.empty());
  // Ownership is confirmed once the hosts report the datum cached.
  ds_.sync("h1", {data.uid});
  ds_.sync("h2", {data.uid});
  EXPECT_EQ(ds_.owners(data.uid), (std::set<std::string>{"h1", "h2"}));
}

TEST_F(SchedulerTest, UnconfirmedAssignmentExpiresAndIsRescheduled) {
  // A host that accepts an assignment but never confirms (failed download)
  // must not absorb the replica forever: after the 3x-heartbeat TTL the
  // datum is offered to someone else.
  const Data data = make_data("slippery");
  ds_.schedule(data, attr(1));
  ASSERT_EQ(ds_.sync("h1", {}).download.size(), 1u);
  // Within the TTL the assignment holds: nobody else gets it.
  clock_.set(1.0);
  EXPECT_TRUE(ds_.sync("h2", {}).download.empty());
  // h1 keeps syncing but never reports the datum (nor in-flight).
  clock_.set(2.0);
  ds_.sync("h1", {});
  clock_.set(4.0);  // past the 3 s TTL
  EXPECT_EQ(ds_.sync("h2", {}).download.size(), 1u);
}

TEST_F(SchedulerTest, InFlightReportKeepsAssignmentAlive) {
  const Data data = make_data("long-download");
  ds_.schedule(data, attr(1));
  ASSERT_EQ(ds_.sync("h1", {}).download.size(), 1u);
  // h1 reports the download in flight well past the original TTL.
  for (int t = 1; t <= 10; ++t) {
    clock_.set(t);
    ds_.sync("h1", {}, {data.uid});
    EXPECT_TRUE(ds_.sync("h2", {}).download.empty()) << "t=" << t;
  }
}

TEST_F(SchedulerTest, BroadcastReplicaGoesEverywhere) {
  const Data data = make_data("everywhere");
  ds_.schedule(data, attr(core::kReplicaAll));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ds_.sync("host" + std::to_string(i), {}).download.size(), 1u);
  }
}

TEST_F(SchedulerTest, CachedDataIsKeptAndOwnersUpdated) {
  const Data data = make_data("kept");
  ds_.schedule(data, attr(1));
  const SyncReply first = ds_.sync("h1", {});
  ASSERT_EQ(first.download.size(), 1u);

  const SyncReply second = ds_.sync("h1", {data.uid});
  EXPECT_EQ(second.keep, std::vector<util::Auid>{data.uid});
  EXPECT_TRUE(second.download.empty());
  EXPECT_TRUE(second.drop.empty());
  EXPECT_TRUE(ds_.owners(data.uid).contains("h1"));
}

TEST_F(SchedulerTest, UnknownCachedDataIsDropped) {
  const Data stranger = make_data("not-scheduled");
  const SyncReply reply = ds_.sync("h1", {stranger.uid});
  EXPECT_EQ(reply.drop, std::vector<util::Auid>{stranger.uid});
}

TEST_F(SchedulerTest, AbsoluteLifetimeExpires) {
  const Data data = make_data("mortal");
  DataAttributes attributes = attr(1);
  attributes.lifetime = Lifetime::absolute(10.0);
  ds_.schedule(data, attributes);

  ASSERT_EQ(ds_.sync("h1", {}).download.size(), 1u);
  clock_.set(11.0);
  const SyncReply reply = ds_.sync("h1", {data.uid});
  EXPECT_EQ(reply.drop, std::vector<util::Auid>{data.uid});
  EXPECT_EQ(ds_.scheduled_count(), 0u);  // reaped from Θ
}

TEST_F(SchedulerTest, RelativeLifetimeCascades) {
  // The Collector pattern: Genebase and Result die with the Collector.
  const Data collector = make_data("collector");
  const Data genebase = make_data("genebase");
  const Data result = make_data("result");
  ds_.schedule(collector, attr(1));

  DataAttributes genebase_attr = attr(1);
  genebase_attr.lifetime = Lifetime::relative(collector.uid);
  ds_.schedule(genebase, genebase_attr);

  DataAttributes result_attr = attr(1);
  result_attr.lifetime = Lifetime::relative(genebase.uid);  // chain of two
  ds_.schedule(result, result_attr);

  EXPECT_EQ(ds_.sync("h1", {}).download.size(), 3u);
  ds_.unschedule(collector.uid);
  // Both dependents expire transitively.
  EXPECT_EQ(ds_.scheduled_count(), 0u);
  const SyncReply reply = ds_.sync("h1", {collector.uid, genebase.uid, result.uid});
  EXPECT_EQ(reply.drop.size(), 3u);
}

TEST_F(SchedulerTest, AffinityFollowsReference) {
  const Data sequence = make_data("sequence");
  const Data genebase = make_data("genebase");
  ds_.schedule(sequence, attr(1));

  DataAttributes follows = attr(0);
  follows.affinity = sequence.uid;
  ds_.schedule(genebase, follows);

  // h1 receives the sequence on its first sync; genebase only follows once
  // the sequence is actually cached.
  const SyncReply first = ds_.sync("h1", {});
  EXPECT_EQ(uids_of(first.download), std::vector<util::Auid>{sequence.uid});

  const SyncReply second = ds_.sync("h1", {sequence.uid});
  EXPECT_EQ(uids_of(second.download), std::vector<util::Auid>{genebase.uid});

  // A host without the sequence never receives the genebase.
  EXPECT_TRUE(ds_.sync("h2", {}).download.empty() ||
              uids_of(ds_.sync("h2", {}).download) == std::vector<util::Auid>{});
}

TEST_F(SchedulerTest, AffinityIsStrongerThanReplica) {
  // Paper: if A is on rn nodes and B has affinity on A, B lands on all rn
  // nodes regardless of B.replica.
  const Data a = make_data("A");
  ds_.schedule(a, attr(3));
  DataAttributes b_attr = attr(0);
  const Data b = make_data("B");
  b_attr.affinity = a.uid;
  ds_.schedule(b, b_attr);

  for (const std::string host : {"h1", "h2", "h3"}) {
    ASSERT_EQ(ds_.sync(host, {}).download.size(), 1u);
    const SyncReply follow = ds_.sync(host, {a.uid});
    EXPECT_EQ(uids_of(follow.download), std::vector<util::Auid>{b.uid}) << host;
    ds_.sync(host, {a.uid, b.uid});  // confirm ownership
  }
  EXPECT_EQ(ds_.owners(b.uid).size(), 3u);
}

TEST_F(SchedulerTest, MaxDataScheduleCapsDownloads) {
  SchedulerConfig config;
  config.max_data_schedule = 3;
  DataScheduler capped(clock_, config);
  for (int i = 0; i < 10; ++i) capped.schedule(make_data("d" + std::to_string(i)), attr(1));
  EXPECT_EQ(capped.sync("h1", {}).download.size(), 3u);
  EXPECT_EQ(capped.sync("h1", {}).download.size(), 3u);  // next batch follows
}

TEST_F(SchedulerTest, FaultTolerantDataIsRescheduledAfterTimeout) {
  const Data data = make_data("precious");
  ds_.schedule(data, attr(1, /*ft=*/true));
  ASSERT_EQ(ds_.sync("h1", {}).download.size(), 1u);
  ds_.sync("h1", {data.uid});
  EXPECT_EQ(ds_.owners(data.uid), (std::set<std::string>{"h1"}));

  // h1 goes silent; h2 keeps syncing.
  clock_.set(10.0);  // > 3x heartbeat of 1s
  const auto dead = ds_.detect_failures();
  EXPECT_EQ(dead, std::vector<std::string>{"h1"});
  EXPECT_FALSE(ds_.host_alive("h1"));

  const SyncReply reply = ds_.sync("h2", {});
  EXPECT_EQ(uids_of(reply.download), std::vector<util::Auid>{data.uid});
}

TEST_F(SchedulerTest, NonFaultTolerantDataIsNotRescheduled) {
  const Data data = make_data("fragile");
  ds_.schedule(data, attr(1, /*ft=*/false));
  ds_.sync("h1", {});
  ds_.sync("h1", {data.uid});

  clock_.set(10.0);
  ds_.detect_failures();
  // Owner list unchanged -> nothing to reschedule.
  EXPECT_TRUE(ds_.sync("h2", {}).download.empty());
  EXPECT_TRUE(ds_.owners(data.uid).contains("h1"));
}

TEST_F(SchedulerTest, FailureDetectionUsesThreeHeartbeats) {
  const Data data = make_data("d");
  ds_.schedule(data, attr(1, true));
  ds_.sync("h1", {data.uid});
  clock_.set(2.9);  // below 3x1s timeout
  EXPECT_TRUE(ds_.detect_failures().empty());
  clock_.set(3.1);
  EXPECT_EQ(ds_.detect_failures().size(), 1u);
}

TEST_F(SchedulerTest, PinnedDataSurvivesFailureDetection) {
  const Data data = make_data("pinned");
  ds_.schedule(data, attr(1, true));
  ds_.pin(data.uid, "master");
  EXPECT_TRUE(ds_.owners(data.uid).contains("master"));

  clock_.set(100.0);
  ds_.sync("worker", {});  // triggers reap/failure bookkeeping paths
  ds_.detect_failures();
  EXPECT_TRUE(ds_.owners(data.uid).contains("master"));
}

TEST_F(SchedulerTest, RecoveredHostCountsAgain) {
  const Data data = make_data("d");
  ds_.schedule(data, attr(1, true));
  ds_.sync("h1", {data.uid});
  clock_.set(10.0);
  ds_.detect_failures();
  EXPECT_FALSE(ds_.host_alive("h1"));
  // Host resumes syncing: alive again, replica satisfied by its cache.
  const SyncReply reply = ds_.sync("h1", {data.uid});
  EXPECT_EQ(reply.keep.size(), 1u);
  EXPECT_TRUE(ds_.host_alive("h1"));
  EXPECT_TRUE(ds_.sync("h2", {}).download.empty());
}

TEST_F(SchedulerTest, RejoinAfterReplacementDoesNotResurrectAssignments) {
  // A host that times out, is declared dead, and later syncs again (e.g. a
  // restarted worker with an empty cache) must be readmitted — but the
  // assignment it lost, already re-placed on a survivor, must NOT be
  // resurrected: neither its stale in_flight claim nor its reappearance may
  // pull the replica back or double-assign it.
  const Data data = make_data("precious");
  ds_.schedule(data, attr(1, /*ft=*/true));
  ASSERT_EQ(ds_.sync("h1", {}).download.size(), 1u);  // assigned to h1
  ds_.sync("h1", {data.uid});                         // h1 confirms ownership
  ASSERT_EQ(ds_.owners(data.uid), (std::set<std::string>{"h1"}));

  // h1 goes silent past the 3x-heartbeat timeout and is declared dead.
  clock_.set(10.0);
  ds_.sync("h2", {});  // h2 is alive and empty
  ASSERT_EQ(ds_.detect_failures(), std::vector<std::string>{"h1"});

  // The replica is re-placed on h2 and confirmed there.
  ASSERT_EQ(ds_.sync("h2", {}).download.size(), 1u);
  ds_.sync("h2", {data.uid});
  ASSERT_EQ(ds_.owners(data.uid), (std::set<std::string>{"h2"}));

  // h1 rejoins, restarted with an empty cache but a stale in_flight claim.
  const SyncReply rejoin = ds_.sync("h1", {}, {data.uid});
  EXPECT_TRUE(ds_.host_alive("h1"));        // readmitted
  EXPECT_TRUE(rejoin.download.empty());     // replica satisfied by h2
  EXPECT_TRUE(rejoin.drop.empty());
  // The stale claim must not have re-entered the credible-owner count, nor
  // displaced h2.
  EXPECT_EQ(ds_.owners(data.uid), (std::set<std::string>{"h2"}));

  // And future placement decisions see exactly one credible owner: a third
  // host is not assigned the datum either.
  EXPECT_TRUE(ds_.sync("h3", {}).download.empty());
}

TEST_F(SchedulerTest, RejoinWithSurvivingCacheIsReconfirmedNotReassigned) {
  // Variant: the partitioned host kept its replica on disk. On rejoin the
  // cache report re-confirms ownership (the host demonstrably holds the
  // bytes) without issuing any new download order.
  const Data data = make_data("kept");
  ds_.schedule(data, attr(1, /*ft=*/true));
  ds_.sync("h1", {});
  ds_.sync("h1", {data.uid});

  clock_.set(10.0);
  ds_.detect_failures();
  ASSERT_FALSE(ds_.host_alive("h1"));

  const SyncReply rejoin = ds_.sync("h1", {data.uid});
  EXPECT_TRUE(ds_.host_alive("h1"));
  EXPECT_EQ(rejoin.keep, std::vector<util::Auid>{data.uid});
  EXPECT_TRUE(rejoin.download.empty());
  EXPECT_TRUE(ds_.owners(data.uid).contains("h1"));
}

TEST_F(SchedulerTest, EmptyCacheReportRevokesOwnershipAndResends) {
  // A worker that restarts with a lost/corrupt replica reports Δk without
  // the datum. Its sync report is authoritative: ownership is revoked and
  // the replica rule re-sends the data — in the same sync.
  const Data data = make_data("lost");
  ds_.schedule(data, attr(1, /*ft=*/true));
  ds_.sync("h1", {});
  ds_.sync("h1", {data.uid});
  ASSERT_EQ(ds_.owners(data.uid), (std::set<std::string>{"h1"}));

  const SyncReply resent = ds_.sync("h1", {});
  EXPECT_EQ(uids_of(resent.download), std::vector<util::Auid>{data.uid});
  EXPECT_FALSE(ds_.owners(data.uid).contains("h1"));

  // An in-flight claim is not an ownership claim, but it does keep the
  // provisional assignment alive instead of re-revoking it.
  const SyncReply downloading = ds_.sync("h1", {}, {data.uid});
  EXPECT_TRUE(downloading.download.empty());

  // Pinned owners are permanent: an empty report never unpins the master.
  const Data pinned = make_data("pinned");
  ds_.schedule(pinned, attr(1, /*ft=*/true));
  ds_.pin(pinned.uid, "master");
  ds_.sync("master", {});
  EXPECT_TRUE(ds_.owners(pinned.uid).contains("master"));
}

TEST_F(SchedulerTest, HostTableReportsLivenessAndCacheSizes) {
  const Data data = make_data("d");
  ds_.schedule(data, attr(1, /*ft=*/true));
  ds_.sync("h1", {});
  ds_.sync("h1", {data.uid});
  clock_.set(2.0);
  ds_.sync("h2", {});
  clock_.set(4.0);  // h1 last synced at 0 -> dead; h2 at 2.0 -> alive
  ds_.detect_failures();

  const std::vector<services::HostInfo> table = ds_.host_table();
  ASSERT_EQ(table.size(), 2u);  // sorted by name
  EXPECT_EQ(table[0].name, "h1");
  EXPECT_FALSE(table[0].alive);
  EXPECT_DOUBLE_EQ(table[0].last_sync_age_s, 4.0);
  EXPECT_EQ(table[0].cached, 1u);
  EXPECT_EQ(table[1].name, "h2");
  EXPECT_TRUE(table[1].alive);
  EXPECT_DOUBLE_EQ(table[1].last_sync_age_s, 2.0);
  EXPECT_EQ(table[1].cached, 0u);
}

TEST_F(SchedulerTest, UnscheduleStopsFutureAssignment) {
  const Data data = make_data("gone");
  ds_.schedule(data, attr(5));
  ds_.sync("h1", {});
  EXPECT_TRUE(ds_.unschedule(data.uid));
  EXPECT_FALSE(ds_.unschedule(data.uid));
  EXPECT_TRUE(ds_.sync("h2", {}).download.empty());
  const SyncReply reply = ds_.sync("h1", {data.uid});
  EXPECT_EQ(reply.drop, std::vector<util::Auid>{data.uid});
}

TEST_F(SchedulerTest, ReplicaIncreaseTriggersNewAssignments) {
  // The paper's dynamic strategy: bump replication when hosts outnumber
  // remaining tasks.
  const Data data = make_data("task");
  ds_.schedule(data, attr(1));
  ds_.sync("h1", {});
  EXPECT_TRUE(ds_.sync("h2", {}).download.empty());

  auto updated = attr(2);
  ds_.schedule(data, updated);
  EXPECT_EQ(ds_.sync("h2", {}).download.size(), 1u);
}

TEST_F(SchedulerTest, StatsAccumulate) {
  const Data data = make_data("counted");
  ds_.schedule(data, attr(1));
  ds_.sync("h1", {});
  ds_.sync("h1", {data.uid});
  EXPECT_EQ(ds_.stats().syncs, 2u);
  EXPECT_EQ(ds_.stats().orders, 1u);
}

// --- peer data plane: locators in the sync reply -------------------------------

TEST_F(SchedulerTest, DownloadOrdersCarryPeerLocatorsOfLiveHolders) {
  const Data data = make_data("swarmed");
  auto attributes = attr(2);
  attributes.protocol = "p2p";
  ASSERT_TRUE(ds_.schedule(data, attributes));

  // h1 is the seed: no owners yet, so no sources ride with its order.
  const SyncReply seed = ds_.sync("h1", {}, {}, "10.0.0.1:7001");
  ASSERT_EQ(seed.download.size(), 1u);
  ASSERT_EQ(seed.sources.size(), 1u);
  EXPECT_TRUE(seed.sources[0].empty());
  ds_.sync("h1", {data.uid}, {}, "10.0.0.1:7001");  // verified: h1 ∈ Ω

  // h2's order now names h1's chunk server.
  const SyncReply second = ds_.sync("h2", {}, {}, "10.0.0.2:7002");
  ASSERT_EQ(second.download.size(), 1u);
  ASSERT_EQ(second.sources.size(), 1u);
  ASSERT_EQ(second.sources[0].size(), 1u);
  EXPECT_EQ(second.sources[0][0].protocol, services::kPeerLocatorProtocol);
  EXPECT_EQ(second.sources[0][0].host, "10.0.0.1:7001");
  EXPECT_EQ(second.sources[0][0].path, "h1");
  EXPECT_EQ(second.sources[0][0].data_uid, data.uid);

  // The endpoint is visible in the host table too.
  const auto table = ds_.host_table();
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(table[0].endpoint, "10.0.0.1:7001");
}

TEST_F(SchedulerTest, DeadAndEndpointlessHoldersAreFilteredFromSources) {
  const Data data = make_data("careful");
  auto attributes = attr(4);  // one more copy than the three holders below
  attributes.protocol = "p2p";
  attributes.fault_tolerant = false;  // dead owners stay in Ω — the filter
                                      // below must still exclude them
  ASSERT_TRUE(ds_.schedule(data, attributes));
  // Gate admits one download per generation: h1 seeds, then h2 and h3.
  ds_.sync("h1", {}, {}, "10.0.0.1:7001");
  ds_.sync("h1", {data.uid}, {}, "10.0.0.1:7001");
  ds_.sync("h2", {}, {}, "");  // h2 does not serve peers
  ds_.sync("h2", {data.uid}, {}, "");
  ds_.sync("h3", {}, {}, "10.0.0.3:7003");
  ds_.sync("h3", {data.uid}, {}, "10.0.0.3:7003");

  // h1 crashes: after the 3x-heartbeat timeout it is declared dead and its
  // locator must vanish from new orders even though it still owns a replica.
  clock_.set(10.0);
  ds_.sync("h2", {data.uid}, {}, "");
  ds_.sync("h3", {data.uid}, {}, "10.0.0.3:7003");
  ASSERT_FALSE(ds_.detect_failures().empty());
  ASSERT_TRUE(ds_.owners(data.uid).contains("h1"));  // not ft: Ω keeps h1

  const SyncReply order = ds_.sync("h4", {}, {}, "10.0.0.4:7004");
  ASSERT_EQ(order.download.size(), 1u);
  ASSERT_EQ(order.sources.size(), 1u);
  ASSERT_EQ(order.sources[0].size(), 1u);  // h1 dead, h2 endpoint-less
  EXPECT_EQ(order.sources[0][0].path, "h3");
}

TEST_F(SchedulerTest, SwarmGateDoublesP2pFanOutPerGeneration) {
  // Collective distribution: a replica=-1 p2p datum must not stampede the
  // repository — one seed first, then swarm_factor * |owners| in flight.
  const Data data = make_data("broadcast");
  DataAttributes attributes;
  attributes.replica = core::kReplicaAll;
  attributes.protocol = "p2p";
  ASSERT_TRUE(ds_.schedule(data, attributes));

  int ordered = 0;
  for (int h = 0; h < 6; ++h) {
    const std::string host = "h" + std::to_string(h);
    ordered += static_cast<int>(ds_.sync(host, {}, {}, host + ":7000").download.size());
  }
  EXPECT_EQ(ordered, 1);  // generation 0: the seed only

  ds_.sync("h0", {data.uid}, {}, "h0:7000");  // the seed verified
  ordered = 0;
  for (int h = 1; h < 6; ++h) {
    const std::string host = "h" + std::to_string(h);
    ordered += static_cast<int>(ds_.sync(host, {}, {}, host + ":7000").download.size());
  }
  EXPECT_EQ(ordered, 2);  // generation 1: 2 * |Ω| = 2

  // An oob=tcp broadcast is NOT gated: everyone downloads at once.
  const Data flat = make_data("flat");
  DataAttributes tcp_attributes;
  tcp_attributes.replica = core::kReplicaAll;
  tcp_attributes.protocol = "tcp";
  ASSERT_TRUE(ds_.schedule(flat, tcp_attributes));
  ordered = 0;
  for (int h = 0; h < 6; ++h) {
    const std::string host = "h" + std::to_string(h);
    for (const auto& item : ds_.sync(host, {}, {}, host + ":7000").download) {
      if (item.data.uid == flat.uid) ++ordered;
    }
  }
  EXPECT_EQ(ordered, 6);
}

// --- satellite bugfixes: abstime anchoring + protocol admission ---------------

TEST_F(SchedulerTest, DurationLifetimeIsAnchoredAtReceiptTime) {
  clock_.set(100.0);
  const Data data = make_data("ephemeral");
  auto attributes = attr(1);
  attributes.lifetime = Lifetime::duration(50.0);  // the DSL's abstime=50
  ASSERT_TRUE(ds_.schedule(data, attributes));

  // The stored entry is absolute on the scheduler's OWN clock.
  const auto stored = ds_.scheduled(data.uid);
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stored->attributes.lifetime.kind, Lifetime::Kind::kAbsolute);
  EXPECT_DOUBLE_EQ(stored->attributes.lifetime.expires_at, 150.0);

  clock_.set(149.0);
  EXPECT_EQ(ds_.sync("h1", {}).download.size(), 1u);  // still alive
  clock_.set(151.0);
  const SyncReply reply = ds_.sync("h1", {data.uid});
  EXPECT_EQ(reply.drop, std::vector<util::Auid>{data.uid});  // reaped on time
  EXPECT_EQ(ds_.scheduled_count(), 0u);
}

TEST_F(SchedulerTest, UnknownOobProtocolIsRejectedAtScheduleTime) {
  const Data data = make_data("exotic");
  auto attributes = attr(1);
  attributes.protocol = "gridftp";  // nothing registered under this name
  EXPECT_FALSE(ds_.schedule(data, attributes));
  EXPECT_EQ(ds_.scheduled_count(), 0u);

  // An empty known_protocols set opts out (simulation experiments register
  // arbitrary protocols).
  SchedulerConfig permissive;
  permissive.known_protocols.clear();
  DataScheduler open_ds(clock_, permissive);
  EXPECT_TRUE(open_ds.schedule(data, attributes));
}

// --- Data Scheduler: pin-push + compute-to-data placement ---------------------

/// A pin is a placement rule of its own: a replica=0 datum (no replica rule,
/// no affinity) still reaches exactly its pinned host — this is how a job's
/// collector token lands on the collector node.
TEST_F(SchedulerTest, PinPushesReplicaZeroDatumToPinnedHostOnly) {
  const Data token = make_data("collector-token", 0);
  ASSERT_TRUE(ds_.schedule(token, attr(0)));
  ASSERT_TRUE(ds_.pin(token.uid, "coll"));

  EXPECT_TRUE(ds_.sync("other", {}).download.empty());
  const SyncReply reply = ds_.sync("coll", {});
  ASSERT_EQ(reply.download.size(), 1u);
  EXPECT_EQ(reply.download[0].data.uid, token.uid);

  // Confirmed, it is kept — pinned data is never dropped from its host.
  const SyncReply again = ds_.sync("coll", {token.uid});
  EXPECT_EQ(again.keep, std::vector<util::Auid>{token.uid});
  EXPECT_TRUE(again.drop.empty());
  EXPECT_TRUE(ds_.sync("other", {}).download.empty());
}

/// The job subsystem's result flow as pure Algorithm 1: a result scheduled
/// {replica=0, affinity=collector} reaches the collector's host and nobody
/// else — the affinity chain Result → Collector.
TEST_F(SchedulerTest, AffinityChainRoutesResultToCollectorHolder) {
  const Data token = make_data("collector-token", 0);
  ASSERT_TRUE(ds_.schedule(token, attr(0)));
  ASSERT_TRUE(ds_.pin(token.uid, "coll"));
  ds_.sync("coll", {});
  ds_.sync("coll", {token.uid});  // the collector holds its token

  const Data result = make_data("result");
  DataAttributes follows = attr(0);
  follows.affinity = token.uid;
  ASSERT_TRUE(ds_.schedule(result, follows));

  EXPECT_TRUE(ds_.sync("w1", {}).download.empty());  // no token → no result
  const SyncReply reply = ds_.sync("coll", {token.uid});
  EXPECT_EQ(uids_of(reply.download), std::vector<util::Auid>{result.uid});
}

/// An affinity-placed task goes to a host whose CONFIRMED Δk holds the
/// input, never to an empty host — replica-affinity task placement prefers
/// the replica holder.
TEST_F(SchedulerTest, AffinityPrefersConfirmedHolderOverEmptyHost) {
  const Data input = make_data("input");
  ASSERT_TRUE(ds_.schedule(input, attr(1, /*ft=*/true)));
  ds_.sync("w1", {});          // w1 is assigned the input...
  ds_.sync("w1", {input.uid});  // ...and confirms it
  ds_.sync("w2", {});          // w2 is alive and empty

  const Data task = make_data("task", 0);
  DataAttributes placement = attr(0);
  placement.affinity = input.uid;
  ASSERT_TRUE(ds_.schedule(task, placement));

  EXPECT_TRUE(ds_.sync("w2", {}).download.empty());
  const SyncReply reply = ds_.sync("w1", {input.uid});
  EXPECT_EQ(uids_of(reply.download), std::vector<util::Auid>{task.uid});
  EXPECT_TRUE(ds_.sync("w2", {}).download.empty());
}

/// Affinity to a datum with ZERO live holders places the task nowhere until
/// the replica rule re-homes the input and the new holder confirms it —
/// then the task follows. (The JobService's fallback timer covers the case
/// where that never happens.)
TEST_F(SchedulerTest, AffinityToDatumWithNoLiveHolderWaitsForRehoming) {
  const Data input = make_data("input");
  ASSERT_TRUE(ds_.schedule(input, attr(1, /*ft=*/true)));
  ds_.sync("w1", {});
  ds_.sync("w1", {input.uid});

  const Data task = make_data("task", 0);
  DataAttributes placement = attr(0);
  placement.affinity = input.uid;
  ASSERT_TRUE(ds_.schedule(task, placement));

  // The only holder dies before claiming the task.
  clock_.advance(10.0);
  ds_.detect_failures();
  EXPECT_TRUE(ds_.owners(input.uid).empty());

  // A fresh empty host gets the INPUT (replica rule re-homes it), not the
  // task — affinity needs a confirmed holder.
  const SyncReply first = ds_.sync("w2", {});
  EXPECT_EQ(uids_of(first.download), std::vector<util::Auid>{input.uid});

  // Once w2 confirms the input, the task follows it there.
  const SyncReply second = ds_.sync("w2", {input.uid});
  EXPECT_EQ(uids_of(second.download), std::vector<util::Auid>{task.uid});
}

// --- Data Scheduler: host-table GC -------------------------------------------

TEST_F(SchedulerTest, DeadHostIsForgottenAfterConfiguredSweeps) {
  SchedulerConfig config;
  config.host_gc_sweeps = 2;
  DataScheduler ds(clock_, config);
  ds.sync("churned", {});

  clock_.advance(10.0);  // > 3 heartbeats
  EXPECT_EQ(ds.detect_failures(), std::vector<services::HostName>{"churned"});
  ASSERT_EQ(ds.host_table().size(), 1u);   // dead 1 sweep: still listed...
  EXPECT_FALSE(ds.host_table()[0].alive);
  ds.detect_failures();
  EXPECT_EQ(ds.host_table().size(), 1u);   // ...dead 2 sweeps: still listed...
  ds.detect_failures();
  EXPECT_TRUE(ds.host_table().empty());    // ...3rd sweep past the limit: forgotten
  EXPECT_EQ(ds.stats().hosts_gcd, 1u);
}

TEST_F(SchedulerTest, DefaultConfigNeverForgetsDeadHosts) {
  ds_.sync("churned", {});
  clock_.advance(10.0);
  for (int sweep = 0; sweep < 5; ++sweep) ds_.detect_failures();
  ASSERT_EQ(ds_.host_table().size(), 1u);  // host_gc_sweeps=0: listed forever
  EXPECT_FALSE(ds_.host_table()[0].alive);
  EXPECT_EQ(ds_.stats().hosts_gcd, 0u);
}

TEST_F(SchedulerTest, ReturningHostRestartsItsGcCountdown) {
  SchedulerConfig config;
  config.host_gc_sweeps = 2;
  DataScheduler ds(clock_, config);
  ds.sync("flaky", {});
  clock_.advance(10.0);
  ds.detect_failures();
  ds.detect_failures();  // dead 2 sweeps — one more would forget it

  ds.sync("flaky", {});  // the host returns: countdown resets
  clock_.advance(10.0);
  ds.detect_failures();
  ds.detect_failures();
  EXPECT_EQ(ds.host_table().size(), 1u);  // 2 sweeps again, NOT 4
  ds.detect_failures();
  EXPECT_TRUE(ds.host_table().empty());
  EXPECT_EQ(ds.stats().hosts_gcd, 1u);
}

// --- Job service: compute-to-data --------------------------------------------

class JobServiceTest : public ::testing::Test {
 protected:
  JobServiceTest() : container_("server", clock_) {}

  /// A DC-registered input scheduled into Θ and confirmed on `host`.
  Data confirmed_input(const std::string& name, const std::string& host) {
    const Data data = make_data(name);
    EXPECT_TRUE(container_.dc().register_data(data));
    DataAttributes attributes;
    attributes.replica = 1;
    attributes.fault_tolerant = true;
    EXPECT_TRUE(container_.schedule_data(data, attributes));
    container_.ds().sync(host, {});
    container_.ds().sync(host, {data.uid});
    return data;
  }

  /// A registered collector token, scheduled {replica=0}, pinned + held on
  /// `host` — the demo/CLI collector pattern.
  Data collector_on(const std::string& host) {
    const Data token = make_data("collector", 0);
    EXPECT_TRUE(container_.dc().register_data(token));
    DataAttributes attributes;
    attributes.replica = 0;
    EXPECT_TRUE(container_.schedule_data(token, attributes));
    EXPECT_TRUE(container_.ds().pin(token.uid, host));
    container_.ds().sync(host, {});
    container_.ds().sync(host, {token.uid});
    return token;
  }

  jobs::JobSpec make_spec(const std::vector<util::Auid>& inputs,
                          const util::Auid& collector) {
    jobs::JobSpec spec;
    spec.uid = util::next_auid();
    spec.name = "grep";
    spec.argv = {"/bin/sh", "-c", "true"};
    spec.inputs = inputs;
    spec.collector = collector;
    return spec;
  }

  /// The task datum the job placed for `input`, as seen from `host`'s sync
  /// (nil uid when none arrived).
  util::Auid task_delivered_to(const std::string& host, const util::Auid& input) {
    const SyncReply reply = container_.ds().sync(host, {input});
    for (const ScheduledData& item : reply.download) {
      if (item.attributes.name == jobs::kTaskAttributeName) return item.data.uid;
    }
    return {};
  }

  util::ManualClock clock_;
  services::ServiceContainer container_;
};

TEST_F(JobServiceTest, SubmitValidatesTheSpec) {
  const Data input = confirmed_input("chunk", "w1");
  const Data token = collector_on("coll");
  jobs::JobSpec good = make_spec({input.uid}, token.uid);

  jobs::JobSpec spec = good;
  spec.uid = {};
  EXPECT_EQ(container_.jobs().submit(spec).code(), api::Errc::kInvalidArgument);

  spec = good;
  spec.argv.clear();
  EXPECT_EQ(container_.jobs().submit(spec).code(), api::Errc::kInvalidArgument);

  spec = good;
  spec.inputs.clear();
  EXPECT_EQ(container_.jobs().submit(spec).code(), api::Errc::kInvalidArgument);

  spec = good;
  spec.timeout_s = -1;
  EXPECT_EQ(container_.jobs().submit(spec).code(), api::Errc::kInvalidArgument);

  spec = good;
  spec.inputs = {util::next_auid()};  // never registered
  EXPECT_EQ(container_.jobs().submit(spec).code(), api::Errc::kNotFound);

  spec = good;
  spec.collector = util::next_auid();
  EXPECT_EQ(container_.jobs().submit(spec).code(), api::Errc::kNotFound);

  // A registered but UNSCHEDULED collector is rejected: results scheduled
  // with affinity to it would never reach anyone.
  const Data homeless = make_data("homeless", 0);
  ASSERT_TRUE(container_.dc().register_data(homeless));
  spec = good;
  spec.collector = homeless.uid;
  EXPECT_EQ(container_.jobs().submit(spec).code(), api::Errc::kRejected);

  ASSERT_TRUE(container_.jobs().submit(good).ok());
  EXPECT_EQ(container_.jobs().submit(good).code(), api::Errc::kDuplicate);
}

TEST_F(JobServiceTest, TasksArePlacedOnTheInputHolder) {
  const Data input = confirmed_input("chunk", "w1");
  const Data token = collector_on("coll");
  ASSERT_TRUE(container_.jobs().submit(make_spec({input.uid}, token.uid)).ok());

  // The task datum rides Algorithm 1: zero-size, affinity to the input,
  // delivered exactly to the holder.
  const SyncReply reply = container_.ds().sync("w1", {input.uid});
  ASSERT_EQ(reply.download.size(), 1u);
  EXPECT_EQ(reply.download[0].data.size, 0);
  EXPECT_EQ(reply.download[0].attributes.name, jobs::kTaskAttributeName);
  EXPECT_EQ(reply.download[0].attributes.affinity, input.uid);
  EXPECT_EQ(reply.download[0].attributes.replica, 0);
  EXPECT_TRUE(container_.ds().sync("w2", {}).download.empty());
}

TEST_F(JobServiceTest, FirstClaimWinsLaterClaimsAreRejected) {
  const Data input = confirmed_input("chunk", "w1");
  const Data token = collector_on("coll");
  const auto job = container_.jobs().submit(make_spec({input.uid}, token.uid));
  ASSERT_TRUE(job.ok());
  const util::Auid task = task_delivered_to("w1", input.uid);
  ASSERT_FALSE(task.is_nil());

  const auto order = container_.jobs().claim(task, "w1");
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order->job, *job);
  EXPECT_EQ(order->input.uid, input.uid);
  EXPECT_EQ(order->argv, (std::vector<std::string>{"/bin/sh", "-c", "true"}));

  // The claim race: a second claimant stands down on kRejected.
  EXPECT_EQ(container_.jobs().claim(task, "w2").code(), api::Errc::kRejected);
  EXPECT_EQ(container_.jobs().claim(util::next_auid(), "w2").code(),
            api::Errc::kNotFound);

  const auto status = container_.jobs().status(*job);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->running, 1);
  EXPECT_EQ(status->tasks[0].runner, "w1");
}

TEST_F(JobServiceTest, SuccessfulReportSchedulesResultOntoTheCollector) {
  const Data input = confirmed_input("chunk", "w1");
  const Data token = collector_on("coll");
  const auto job = container_.jobs().submit(make_spec({input.uid}, token.uid));
  ASSERT_TRUE(job.ok());
  const util::Auid task = task_delivered_to("w1", input.uid);
  ASSERT_TRUE(container_.jobs().claim(task, "w1").ok());

  jobs::TaskReport report;
  report.task = task;
  report.runner = "w1";
  report.ok = true;
  report.data_local = true;
  report.result = make_data("grep-result-0");
  ASSERT_TRUE(container_.jobs().report(report).ok());

  const auto status = container_.jobs().status(*job);
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(status->complete());
  EXPECT_EQ(status->data_local, 1);
  EXPECT_EQ(status->tasks[0].result, report.result.uid);

  // The result datum entered Θ with the affinity chain back to the
  // collector and a lifetime that dies with it; the spent task datum left Θ.
  const auto scheduled = container_.ds().scheduled(report.result.uid);
  ASSERT_TRUE(scheduled.has_value());
  EXPECT_EQ(scheduled->attributes.replica, 0);
  EXPECT_EQ(scheduled->attributes.affinity, token.uid);
  EXPECT_EQ(scheduled->attributes.lifetime.kind, core::Lifetime::Kind::kRelative);
  EXPECT_EQ(scheduled->attributes.lifetime.reference, token.uid);
  EXPECT_FALSE(container_.ds().scheduled(task).has_value());

  // And it flows to the collector's node via pure Algorithm 1.
  const SyncReply at_collector = container_.ds().sync("coll", {token.uid});
  EXPECT_EQ(uids_of(at_collector.download),
            std::vector<util::Auid>{report.result.uid});
}

TEST_F(JobServiceTest, FailedReportRequeuesUnderAFreshTaskDatum) {
  const Data input = confirmed_input("chunk", "w1");
  const Data token = collector_on("coll");
  const auto job = container_.jobs().submit(make_spec({input.uid}, token.uid));
  ASSERT_TRUE(job.ok());
  const util::Auid task = task_delivered_to("w1", input.uid);
  ASSERT_TRUE(container_.jobs().claim(task, "w1").ok());

  jobs::TaskReport report;
  report.task = task;
  report.runner = "w1";
  report.ok = false;
  report.exit_code = 2;
  ASSERT_TRUE(container_.jobs().report(report).ok());

  const auto status = container_.jobs().status(*job);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->waiting, 1);
  EXPECT_EQ(status->replaced, 1);
  EXPECT_EQ(status->tasks[0].attempts, 2);

  // A FRESH uid re-fires on_data_copy on every holder of the input; the old
  // datum is retired so nobody claims a stale placement.
  EXPECT_FALSE(container_.ds().scheduled(task).has_value());
  const util::Auid fresh = task_delivered_to("w1", input.uid);
  ASSERT_FALSE(fresh.is_nil());
  EXPECT_NE(fresh, task);
  EXPECT_EQ(container_.jobs().claim(task, "w1").code(), api::Errc::kNotFound);
  EXPECT_TRUE(container_.jobs().claim(fresh, "w1").ok());
}

TEST_F(JobServiceTest, SweepRequeuesTasksWhoseRunnerDied) {
  const Data input = confirmed_input("chunk", "w1");
  const Data token = collector_on("coll");
  const auto job = container_.jobs().submit(make_spec({input.uid}, token.uid));
  ASSERT_TRUE(job.ok());
  const util::Auid task = task_delivered_to("w1", input.uid);
  ASSERT_TRUE(container_.jobs().claim(task, "w1").ok());

  // Keep everyone else beating so only w1 times out.
  clock_.advance(10.0);
  container_.ds().sync("coll", {token.uid});
  container_.ds().detect_failures();
  EXPECT_FALSE(container_.ds().host_alive("w1"));

  EXPECT_EQ(container_.jobs().sweep(), 1u);
  const auto status = container_.jobs().status(*job);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->running, 0);
  EXPECT_EQ(status->waiting, 1);
  EXPECT_EQ(status->replaced, 1);
  EXPECT_EQ(container_.jobs().sweep(), 0u);  // idempotent until something changes
}

TEST_F(JobServiceTest, UnclaimedTaskFallsBackToAnyHostAfterTimeout) {
  const Data input = confirmed_input("chunk", "w1");
  const Data token = collector_on("coll");
  ASSERT_TRUE(container_.jobs().submit(make_spec({input.uid}, token.uid)).ok());

  // Nobody claims; past fallback_after_s the sweep re-places the task with
  // the affinity cleared so ANY live host can take it.
  clock_.advance(container_.jobs().config().fallback_after_s + 1.0);
  container_.ds().sync("w2", {});  // an empty host, alive
  EXPECT_EQ(container_.jobs().sweep(), 1u);

  const SyncReply reply = container_.ds().sync("w2", {});
  bool task_arrived = false;
  for (const ScheduledData& item : reply.download) {
    if (item.attributes.name != jobs::kTaskAttributeName) continue;
    task_arrived = true;
    EXPECT_EQ(item.attributes.replica, 1);
    EXPECT_TRUE(item.attributes.affinity.is_nil());
  }
  EXPECT_TRUE(task_arrived);
}

TEST_F(JobServiceTest, TaskIsAbandonedAfterMaxAttempts) {
  const Data input = confirmed_input("chunk", "w1");
  const Data token = collector_on("coll");
  jobs::JobServiceConfig config;
  config.max_attempts = 1;
  container_.jobs().set_config(config);
  const auto job = container_.jobs().submit(make_spec({input.uid}, token.uid));
  ASSERT_TRUE(job.ok());
  const util::Auid task = task_delivered_to("w1", input.uid);
  ASSERT_TRUE(container_.jobs().claim(task, "w1").ok());

  jobs::TaskReport report;
  report.task = task;
  report.runner = "w1";
  report.ok = false;
  ASSERT_TRUE(container_.jobs().report(report).ok());

  const auto status = container_.jobs().status(*job);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->failed, 1);
  EXPECT_FALSE(status->complete());
  EXPECT_TRUE(task_delivered_to("w1", input.uid).is_nil());  // not re-placed
}

/// Jobs ride the container WAL: a restarted daemon still knows its jobs,
/// their claimed tasks, and keeps serving claims against them.
TEST_F(JobServiceTest, JobsSurviveContainerRestart) {
  const auto wal = std::filesystem::temp_directory_path() /
                   ("bitdew-jobs-wal-" + std::to_string(::getpid()));
  std::filesystem::remove(wal);
  util::ManualClock clock;
  util::Auid job_uid;
  util::Auid claimed;
  util::Auid waiting;
  {
    services::ServiceContainer container("server", clock, wal.string());
    const Data a = make_data("chunk-a");
    const Data b = make_data("chunk-b");
    const Data token = make_data("collector", 0);
    for (const Data& d : {a, b, token}) ASSERT_TRUE(container.dc().register_data(d));
    DataAttributes replicated;
    replicated.replica = 1;
    replicated.fault_tolerant = true;
    ASSERT_TRUE(container.schedule_data(a, replicated));
    ASSERT_TRUE(container.schedule_data(b, replicated));
    DataAttributes pinned;
    pinned.replica = 0;
    ASSERT_TRUE(container.schedule_data(token, pinned));
    ASSERT_TRUE(container.ds().pin(token.uid, "coll"));
    container.ds().sync("w1", {});
    container.ds().sync("w1", {a.uid, b.uid});

    jobs::JobSpec spec;
    spec.uid = util::next_auid();
    spec.name = "grep";
    spec.argv = {"/bin/sh", "-c", "true"};
    spec.inputs = {a.uid, b.uid};
    spec.collector = token.uid;
    const auto submitted = container.jobs().submit(spec);
    ASSERT_TRUE(submitted.ok());
    job_uid = *submitted;

    const SyncReply reply = container.ds().sync("w1", {a.uid, b.uid});
    for (const ScheduledData& item : reply.download) {
      if (item.attributes.affinity == a.uid) claimed = item.data.uid;
      if (item.attributes.affinity == b.uid) waiting = item.data.uid;
    }
    ASSERT_FALSE(claimed.is_nil());
    ASSERT_FALSE(waiting.is_nil());
    ASSERT_TRUE(container.jobs().claim(claimed, "w1").ok());
  }  // crash

  services::ServiceContainer reopened("server", clock, wal.string());
  EXPECT_EQ(reopened.jobs().job_count(), 1u);
  const auto status = reopened.jobs().status(job_uid);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->running, 1);
  EXPECT_EQ(status->waiting, 1);
  EXPECT_EQ(status->tasks[0].runner, "w1");
  // The restored index still serves the claim race.
  EXPECT_EQ(reopened.jobs().claim(claimed, "w2").code(), api::Errc::kRejected);
  EXPECT_TRUE(reopened.jobs().claim(waiting, "w2").ok());
  std::filesystem::remove(wal);
  std::filesystem::remove_all(wal.string() + ".content");
}

// --- container --------------------------------------------------------------------

TEST(ServiceContainer, WiresAllServices) {
  util::ManualClock clock;
  services::ServiceContainer container("server", clock);
  const Data data = make_data("x");
  EXPECT_TRUE(container.dc().register_data(data));
  container.dr().put(data, core::synthetic_content(1, data.size), "ftp");
  EXPECT_TRUE(container.dr().exists(data.uid));
  container.ds().schedule(data, DataAttributes{});
  EXPECT_EQ(container.ds().scheduled_count(), 1u);
  const auto ticket = container.dt().register_transfer(data, "server", "w", "ftp");
  EXPECT_TRUE(container.dt().ticket(ticket).has_value());
  EXPECT_EQ(container.host_name(), "server");
}

/// Crash recovery: a WAL-backed container reopened from its log restores
/// both the catalog (DewDB tables) and the scheduler's Θ (the ds_theta
/// mirror), so a restarted bitdewd keeps realizing the same attributes.
TEST(ServiceContainer, CatalogAndSchedulerSurviveRestart) {
  const auto wal = std::filesystem::temp_directory_path() /
                   ("bitdew-container-wal-" + std::to_string(::getpid()));
  std::filesystem::remove(wal);
  util::ManualClock clock;
  const Data genome = make_data("genome");
  const Data index = make_data("index");
  const Data transient = make_data("transient");
  const auto attr = [](int replica) {
    DataAttributes attributes;
    attributes.replica = replica;
    return attributes;
  };

  {
    services::ServiceContainer container("server", clock, wal.string());
    ASSERT_TRUE(container.dc().register_data(genome));
    ASSERT_TRUE(container.dc().register_data(index));

    DataAttributes replicated = attr(3);
    replicated.fault_tolerant = true;
    ASSERT_TRUE(container.schedule_data(genome, replicated));
    ASSERT_TRUE(container.schedule_data(index, attr(1)));
    ASSERT_TRUE(container.schedule_data(transient, attr(1)));
    ASSERT_TRUE(container.unschedule_data(transient.uid));  // erased from Θ
    ASSERT_EQ(container.ds().scheduled_count(), 2u);
  }  // "crash": the container dies; only the WAL remains

  services::ServiceContainer reopened("server", clock, wal.string());
  // Catalog state came back...
  EXPECT_TRUE(reopened.dc().get(genome.uid).has_value());
  EXPECT_TRUE(reopened.dc().get(index.uid).has_value());
  // ...and so did Θ, attributes included, minus the unscheduled datum.
  EXPECT_EQ(reopened.ds().scheduled_count(), 2u);
  const auto restored = reopened.ds().scheduled(genome.uid);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->attributes.replica, 3);
  EXPECT_TRUE(restored->attributes.fault_tolerant);
  EXPECT_FALSE(reopened.ds().scheduled(transient.uid).has_value());

  // The restored scheduler still runs Algorithm 1: a fresh reservoir host
  // gets the surviving data on its first synchronization.
  const SyncReply reply = reopened.ds().sync("worker-1", {});
  EXPECT_EQ(reply.download.size(), 2u);
  std::filesystem::remove(wal);
  std::filesystem::remove_all(wal.string() + ".content");
}

/// A duration lifetime is anchored ONCE, at first receipt: the WAL stores
/// the anchored absolute deadline, so a daemon restart must not re-anchor
/// and extend it. (Deployment-side requirement: bitdewd reads a
/// restart-stable clock — util::WallClock — so persisted readings keep
/// meaning across processes; ManualClock plays that stable clock here.)
TEST(ServiceContainer, RestartDoesNotExtendAnchoredLifetimes) {
  const auto wal = std::filesystem::temp_directory_path() /
                   ("bitdew-container-life-" + std::to_string(::getpid()));
  std::filesystem::remove(wal);
  util::ManualClock clock;
  clock.set(100.0);
  const Data ephemeral = make_data("ephemeral");

  {
    services::ServiceContainer container("server", clock, wal.string());
    DataAttributes attributes;
    attributes.replica = 1;
    attributes.lifetime = Lifetime::duration(50.0);  // abstime=50 at t=100
    ASSERT_TRUE(container.schedule_data(ephemeral, attributes));
  }

  clock.set(120.0);  // restart 20 s later: 30 s of life must remain
  {
    services::ServiceContainer reopened("server", clock, wal.string());
    const auto entry = reopened.ds().scheduled(ephemeral.uid);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->attributes.lifetime.kind, Lifetime::Kind::kAbsolute);
    EXPECT_DOUBLE_EQ(entry->attributes.lifetime.expires_at, 150.0);  // NOT 170
    clock.set(151.0);
    reopened.ds().sync("h1", {});
    EXPECT_EQ(reopened.ds().scheduled_count(), 0u);  // reaped on the original deadline
  }
  std::filesystem::remove(wal);
  std::filesystem::remove_all(wal.string() + ".content");
}

// --- Incremental sync (protocol v2) ------------------------------------------
// Delta beats {epoch, added, removed} must leave the scheduler in exactly
// the state an equivalent stream of full reports would, and every path that
// invalidates the scheduler's mirror (epoch skew, scheduler restart, a
// declared-dead host reviving) must force a full resync.

services::SyncRequest full_request(const std::string& host,
                                   std::vector<util::Auid> cache,
                                   std::vector<util::Auid> in_flight = {}) {
  services::SyncRequest request;
  request.host = host;
  request.full = true;
  request.added = std::move(cache);
  request.in_flight = std::move(in_flight);
  return request;
}

services::SyncRequest delta_request(const std::string& host, std::uint64_t epoch,
                                    std::vector<util::Auid> added = {},
                                    std::vector<util::Auid> removed = {},
                                    std::vector<util::Auid> in_flight = {}) {
  services::SyncRequest request;
  request.host = host;
  request.epoch = epoch;
  request.full = false;
  request.added = std::move(added);
  request.removed = std::move(removed);
  request.in_flight = std::move(in_flight);
  return request;
}

std::optional<services::HostInfo> host_row(const DataScheduler& ds,
                                           const std::string& name) {
  for (const services::HostInfo& row : ds.host_table()) {
    if (row.name == name) return row;
  }
  return std::nullopt;
}

TEST_F(SchedulerTest, DeltaStreamEquivalentToFullSyncStream) {
  // Two schedulers see the same schedule/unschedule sequence; worker "w"
  // reports to one with full syncs every beat and to the other with v2
  // deltas. Their Omega sets and host mirrors must never diverge.
  DataScheduler full_ds(clock_, SchedulerConfig{});
  const Data d1 = make_data("d1");
  const Data d2 = make_data("d2");
  ds_.schedule(d1, attr(1));
  full_ds.schedule(d1, attr(1));

  // Beat 1: first contact (full on both), d1 assigned.
  SyncReply delta_side = ds_.sync(full_request("w", {}));
  SyncReply full_side = full_ds.sync(full_request("w", {}));
  ASSERT_EQ(delta_side.download.size(), 1u);
  ASSERT_EQ(full_side.download.size(), 1u);
  ASSERT_GT(delta_side.epoch, 0u);

  // Beat 2: d1 arrived. Delta side announces only the addition.
  delta_side = ds_.sync(delta_request("w", delta_side.epoch, {d1.uid}));
  full_side = full_ds.sync(full_request("w", {d1.uid}));
  EXPECT_FALSE(delta_side.resync);
  EXPECT_EQ(delta_side.keep, std::vector<util::Auid>{d1.uid});
  EXPECT_EQ(full_side.keep, std::vector<util::Auid>{d1.uid});
  EXPECT_EQ(ds_.owners(d1.uid), full_ds.owners(d1.uid));

  // A second datum appears; both assign it on the next beat.
  ds_.schedule(d2, attr(1));
  full_ds.schedule(d2, attr(1));
  delta_side = ds_.sync(delta_request("w", delta_side.epoch));
  full_side = full_ds.sync(full_request("w", {d1.uid}));
  ASSERT_EQ(delta_side.download.size(), 1u);
  EXPECT_EQ(delta_side.download[0].data.uid, d2.uid);
  ASSERT_EQ(full_side.download.size(), 1u);
  // An empty delta's keep is empty (nothing newly confirmed); the full
  // report re-confirms the whole intersection every beat.
  EXPECT_TRUE(delta_side.keep.empty());
  EXPECT_EQ(full_side.keep, std::vector<util::Auid>{d1.uid});

  delta_side = ds_.sync(delta_request("w", delta_side.epoch, {d2.uid}));
  full_side = full_ds.sync(full_request("w", {d1.uid, d2.uid}));
  EXPECT_EQ(ds_.owners(d2.uid), full_ds.owners(d2.uid));

  // Unschedule d1: both sides emit the drop; the delta side acks it with a
  // `removed` entry, the full side by omitting d1 from its report.
  ds_.unschedule(d1.uid);
  full_ds.unschedule(d1.uid);
  delta_side = ds_.sync(delta_request("w", delta_side.epoch));
  full_side = full_ds.sync(full_request("w", {d1.uid, d2.uid}));
  EXPECT_EQ(delta_side.drop, std::vector<util::Auid>{d1.uid});
  EXPECT_EQ(full_side.drop, std::vector<util::Auid>{d1.uid});

  delta_side = ds_.sync(delta_request("w", delta_side.epoch, {}, {d1.uid}));
  full_side = full_ds.sync(full_request("w", {d2.uid}));
  EXPECT_TRUE(delta_side.drop.empty());
  EXPECT_TRUE(full_side.drop.empty());

  // Mirrors agree, beat for beat.
  const auto delta_row = host_row(ds_, "w");
  const auto full_row = host_row(full_ds, "w");
  ASSERT_TRUE(delta_row.has_value());
  ASSERT_TRUE(full_row.has_value());
  EXPECT_EQ(delta_row->cached, full_row->cached);
  EXPECT_EQ(delta_row->cached, 1u);
  EXPECT_GT(delta_row->delta_syncs, 0u);
  EXPECT_EQ(full_row->delta_syncs, 0u);
}

TEST_F(SchedulerTest, EpochMismatchForcesResync) {
  const Data data = make_data("d");
  ds_.schedule(data, attr(1));
  const SyncReply first = ds_.sync(full_request("w", {}));
  ASSERT_GT(first.epoch, 0u);

  // A delta with a foreign epoch is refused outright: no state changes, no
  // assignments — just the resync order.
  const std::uint64_t resyncs_before = ds_.stats().resyncs;
  const SyncReply refused = ds_.sync(delta_request("w", first.epoch + 7, {data.uid}));
  EXPECT_TRUE(refused.resync);
  EXPECT_TRUE(refused.download.empty());
  EXPECT_TRUE(refused.keep.empty());
  EXPECT_EQ(ds_.stats().resyncs, resyncs_before + 1);
  EXPECT_FALSE(ds_.owners(data.uid).contains("w"));

  // The follow-up full report is accepted and re-mints the epoch.
  const SyncReply recovered = ds_.sync(full_request("w", {data.uid}));
  EXPECT_FALSE(recovered.resync);
  EXPECT_GT(recovered.epoch, first.epoch);
  EXPECT_TRUE(ds_.owners(data.uid).contains("w"));
}

TEST_F(SchedulerTest, DeltaFromUnknownHostForcesResync) {
  const SyncReply reply = ds_.sync(delta_request("ghost", 3));
  EXPECT_TRUE(reply.resync);
  EXPECT_EQ(ds_.stats().resyncs, 1u);
}

TEST_F(SchedulerTest, SchedulerRestartForcesResyncAndRegrantsOwnership) {
  const Data data = make_data("d");
  std::uint64_t old_epoch = 0;
  {
    DataScheduler before(clock_, SchedulerConfig{});
    before.schedule(data, attr(1));
    before.sync(full_request("w", {}));
    old_epoch = before.sync(full_request("w", {data.uid})).epoch;
    ASSERT_GT(old_epoch, 0u);
  }
  // The replacement scheduler (same schedule state, fresh epochs — the
  // bitdewd restart path) has never seen "w": the stale-epoch delta is
  // refused, and the forced full report rebuilds mirror and Omega.
  DataScheduler after(clock_, SchedulerConfig{});
  after.schedule(data, attr(1));
  const SyncReply refused = after.sync(delta_request("w", old_epoch));
  EXPECT_TRUE(refused.resync);
  const SyncReply recovered = after.sync(full_request("w", {data.uid}));
  EXPECT_FALSE(recovered.resync);
  EXPECT_EQ(recovered.keep, std::vector<util::Auid>{data.uid});
  EXPECT_TRUE(after.owners(data.uid).contains("w"));
}

TEST_F(SchedulerTest, DeadHostRevivalResyncsAndRevocationStillFires) {
  // PR-4 semantics on the v2 path: data unscheduled while a host was
  // declared dead must still be revoked when the host rejoins — and the
  // rejoin must go through the resync handshake, because death zeroed the
  // host's epoch.
  const Data keep = make_data("keep");
  const Data revoked = make_data("revoked");
  ds_.schedule(keep, attr(1, true));
  ds_.schedule(revoked, attr(1, true));
  ds_.sync(full_request("w", {}));
  SyncReply reply = ds_.sync(full_request("w", {keep.uid, revoked.uid}));
  const std::uint64_t live_epoch = reply.epoch;
  ASSERT_TRUE(ds_.owners(revoked.uid).contains("w"));

  clock_.set(10.0);  // > 3x heartbeat: declared dead, epoch zeroed
  ds_.detect_failures();
  ASSERT_FALSE(host_row(ds_, "w")->alive);
  ds_.unschedule(revoked.uid);  // authoritative revocation while dead

  // The surviving cache rides back: stale-epoch delta -> resync order.
  const SyncReply refused = ds_.sync(delta_request("w", live_epoch));
  EXPECT_TRUE(refused.resync);
  // The full report re-grants `keep` and drops `revoked` (gone from Theta).
  const SyncReply rejoined = ds_.sync(full_request("w", {keep.uid, revoked.uid}));
  EXPECT_FALSE(rejoined.resync);
  EXPECT_EQ(rejoined.keep, std::vector<util::Auid>{keep.uid});
  EXPECT_EQ(rejoined.drop, std::vector<util::Auid>{revoked.uid});
  EXPECT_TRUE(ds_.owners(keep.uid).contains("w"));
  EXPECT_TRUE(host_row(ds_, "w")->alive);
}

TEST_F(SchedulerTest, DropOrderReemittedUntilAckedByRemovedDelta) {
  const Data data = make_data("d");
  ds_.schedule(data, attr(1));
  ds_.sync(full_request("w", {}));
  SyncReply reply = ds_.sync(full_request("w", {data.uid}));
  const std::uint64_t epoch = reply.epoch;

  ds_.unschedule(data.uid);
  // The drop order rides every beat until the worker reports the removal —
  // a lost reply must not orphan the replica on the worker.
  reply = ds_.sync(delta_request("w", epoch));
  EXPECT_EQ(reply.drop, std::vector<util::Auid>{data.uid});
  reply = ds_.sync(delta_request("w", epoch));
  EXPECT_EQ(reply.drop, std::vector<util::Auid>{data.uid});
  // The `removed` entry acks it; subsequent beats are clean.
  reply = ds_.sync(delta_request("w", epoch, {}, {data.uid}));
  EXPECT_TRUE(reply.drop.empty());
  reply = ds_.sync(delta_request("w", epoch));
  EXPECT_TRUE(reply.drop.empty());
}

TEST_F(SchedulerTest, DeltaAddedConfirmsPendingAssignment) {
  const Data data = make_data("d");
  ds_.schedule(data, attr(2));
  SyncReply reply = ds_.sync(full_request("w1", {}));
  ASSERT_EQ(reply.download.size(), 1u);

  // The arrival delta confirms the provisional assignment: keep lists
  // exactly the newly confirmed datum, the pending slot clears, and the
  // replica rule sees one live owner.
  reply = ds_.sync(delta_request("w1", reply.epoch, {data.uid}));
  EXPECT_EQ(reply.keep, std::vector<util::Auid>{data.uid});
  EXPECT_TRUE(ds_.owners(data.uid).contains("w1"));
  // Second replica still goes to the next host.
  EXPECT_EQ(ds_.sync(full_request("w2", {})).download.size(), 1u);
}

TEST_F(SchedulerTest, DeltaRemovalRevokesOwnershipAndReschedules) {
  const Data data = make_data("d");
  ds_.schedule(data, attr(1, true));
  ds_.sync(full_request("w1", {}));
  SyncReply reply = ds_.sync(full_request("w1", {data.uid}));
  ASSERT_TRUE(ds_.owners(data.uid).contains("w1"));

  // The worker lost its replica (disk scrub): the `removed` delta revokes
  // ownership, and the replica rule heals in the same beat by re-assigning
  // the datum — exactly what a full report missing the datum would do.
  reply = ds_.sync(delta_request("w1", reply.epoch, {}, {data.uid}));
  EXPECT_FALSE(ds_.owners(data.uid).contains("w1"));
  ASSERT_EQ(reply.download.size(), 1u);
  EXPECT_EQ(reply.download[0].data.uid, data.uid);
}

TEST_F(SchedulerTest, HostTableReportsProtocolCounters) {
  const Data data = make_data("d");
  ds_.schedule(data, attr(1));
  SyncReply reply = ds_.sync(full_request("w", {}));
  ds_.sync(delta_request("w", reply.epoch, {data.uid}));
  ds_.sync(delta_request("w", reply.epoch));

  const auto row = host_row(ds_, "w");
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->full_syncs, 1u);
  EXPECT_EQ(row->delta_syncs, 2u);
  EXPECT_EQ(row->last_delta_items, 0u);  // the last beat was an empty delta
  EXPECT_EQ(ds_.stats().full_syncs, 1u);
  EXPECT_EQ(ds_.stats().delta_syncs, 2u);
}

}  // namespace
}  // namespace bitdew
