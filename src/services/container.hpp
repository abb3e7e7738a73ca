// Service Container (paper Fig. 1): hosts the four D* services on one
// stable node, sharing a DewDB database for persistence. Both runtimes
// build one of these per service host; the "distributed setup" of the paper
// (several service nodes, each running a subset) is expressed by
// constructing several containers and wiring clients to different ones.
//
// The services expose native bulk operations (DataCatalog::register_batch /
// locators_batch, DataScheduler::schedule_batch) so a ServiceBus batch
// endpoint resolves in one container call — the back-end of the v2 bus's
// amortized dc_register_batch / dc_locators_batch / ds_schedule_batch.
//
// WAL-backed containers also persist the scheduler's data set Θ (the
// catalog and repository already live in DewDB tables): schedule_data /
// unschedule_data mirror every accepted entry into the "ds_theta" table,
// and construction replays it, so a restarted bitdewd resumes scheduling
// the same data. Owner sets and host liveness are deliberately NOT
// persisted — they are soft state the reservoir hosts rebuild through
// their periodic synchronizations (Algorithm 1).
#pragma once

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "db/database.hpp"
#include "jobs/job_service.hpp"
#include "rpc/wire.hpp"
#include "services/data_catalog.hpp"
#include "services/data_repository.hpp"
#include "services/data_scheduler.hpp"
#include "services/data_transfer.hpp"

namespace bitdew::services {

class ServiceContainer {
 public:
  /// In-memory persistence (simulations, tests). Uploaded content still
  /// goes to files: the repository makes a private dir under the temp
  /// directory at its first upload and removes it with the container.
  ServiceContainer(std::string host_name, const util::Clock& clock,
                   SchedulerConfig scheduler_config = {})
      : database_(std::make_unique<db::Database>()),
        catalog_(*database_),
        repository_(*database_, host_name),
        transfer_(*database_, clock),
        scheduler_(clock, scheduler_config),
        jobs_(catalog_, scheduler_, clock),
        host_name_(std::move(host_name)) {
    wire_jobs();
  }

  /// WAL-backed persistence (the LocalRuntime, bitdewd). Replays the WAL
  /// and restores the scheduler's Θ from the previous run. Content lives
  /// beside the WAL (`<wal_path>.content/`), where it survives restarts:
  /// uploads stream to disk instead of through the database, and chunk
  /// reads serve fd slices for the zero-copy data plane.
  ServiceContainer(std::string host_name, const util::Clock& clock, const std::string& wal_path,
                   SchedulerConfig scheduler_config = {})
      : database_(std::make_unique<db::Database>(wal_path)),
        catalog_(*database_),
        repository_(*database_, host_name, wal_path + ".content"),
        transfer_(*database_, clock),
        scheduler_(clock, scheduler_config),
        jobs_(catalog_, scheduler_, clock),
        host_name_(std::move(host_name)) {
    wire_jobs();
    restore_scheduled_state();
    restore_jobs();
  }

  ServiceContainer(const ServiceContainer&) = delete;
  ServiceContainer& operator=(const ServiceContainer&) = delete;

  // --- durable scheduler mutations ------------------------------------------
  // The ServiceBus ops route DS mutations through these instead of ds()
  // directly, so a WAL-backed container keeps Θ across restarts. With an
  // in-memory database they are plain pass-throughs.

  bool schedule_data(const core::Data& data, const core::DataAttributes& attributes) {
    if (!scheduler_.schedule(data, attributes)) return false;
    persist_accepted(data);
    return true;
  }

  std::vector<bool> schedule_data_batch(const std::vector<ScheduledData>& items) {
    std::vector<bool> accepted = scheduler_.schedule_batch(items);
    if (database_->durable()) {
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (accepted[i]) persist_accepted(items[i].data);
      }
    }
    return accepted;
  }

  bool unschedule_data(const util::Auid& uid) {
    if (!scheduler_.unschedule(uid)) return false;
    if (database_->durable()) {
      if (db::Table* table = database_->table(kThetaTable)) {
        if (const auto row = table->by_primary(db::Value(uid.str()))) {
          database_->erase(kThetaTable, *row);
        }
      }
    }
    return true;
  }

  // --- durable ring state ---------------------------------------------------
  // The live DHT ring (services/ring_router.hpp) mirrors its key index —
  // which dc_*/ddc_* keys this member holds — and the ddc (key, value)
  // pairs (the LocalDht is memory-only) into the WAL, so a restarted
  // durable member rejoins the ring re-announcing its range instead of
  // starting empty. No-ops on an in-memory database.

  void persist_ring_key(const std::string& key) {
    if (!database_->durable()) return;
    db::Table& table = database_->create_table({kRingKeysTable, "key", {}});
    if (table.by_primary(db::Value(key))) return;
    db::Row row;
    row["key"] = key;
    database_->insert(kRingKeysTable, std::move(row));
  }

  void forget_ring_key(const std::string& key) {
    if (!database_->durable()) return;
    if (db::Table* table = database_->table(kRingKeysTable)) {
      if (const auto row = table->by_primary(db::Value(key))) {
        database_->erase(kRingKeysTable, *row);
      }
    }
  }

  template <typename Fn>  // Fn(const std::string& key)
  void for_each_ring_key(Fn fn) const {
    const db::Table* table = database_->table(kRingKeysTable);
    if (table == nullptr) return;
    table->scan([&](db::RowId, const db::Row& row) {
      const auto key = row.find("key");
      if (key != row.end() && std::holds_alternative<std::string>(key->second)) {
        fn(std::get<std::string>(key->second));
      }
      return true;
    });
  }

  void persist_ddc_pair(const std::string& key, const std::string& value) {
    if (!database_->durable()) return;
    rpc::Writer w;
    w.str(key);
    w.str(value);
    std::string blob = w.take();
    db::Table& table = database_->create_table({kDdcPairsTable, "pair", {}});
    if (table.by_primary(db::Value(blob))) return;
    db::Row row;
    row["pair"] = std::move(blob);
    database_->insert(kDdcPairsTable, std::move(row));
  }

  template <typename Fn>  // Fn(const std::string& key, const std::string& value)
  void for_each_ddc_pair(Fn fn) const {
    const db::Table* table = database_->table(kDdcPairsTable);
    if (table == nullptr) return;
    table->scan([&](db::RowId, const db::Row& row) {
      const auto blob = row.find("pair");
      if (blob == row.end() || !std::holds_alternative<std::string>(blob->second)) return true;
      try {
        rpc::Reader r(std::get<std::string>(blob->second));
        const std::string key = r.str();
        const std::string value = r.str();
        fn(key, value);
      } catch (const rpc::CodecError&) {
        // A corrupt pair loses that entry, nothing else.
      }
      return true;
    });
  }

  DataCatalog& dc() { return catalog_; }
  DataRepository& dr() { return repository_; }
  DataTransfer& dt() { return transfer_; }
  DataScheduler& ds() { return scheduler_; }
  jobs::JobService& jobs() { return jobs_; }
  db::Database& database() { return *database_; }
  const std::string& host_name() const { return host_name_; }

 private:
  static constexpr const char* kThetaTable = "ds_theta";
  static constexpr const char* kRingKeysTable = "ring_keys";
  static constexpr const char* kDdcPairsTable = "ddc_pairs";
  static constexpr const char* kJobsTable = "jobs";

  /// Mirrors an accepted entry into the WAL as the scheduler NORMALIZED it
  /// (a duration lifetime is anchored at receipt): replaying the raw request
  /// on restart would re-anchor the lifetime and silently extend it.
  void persist_accepted(const core::Data& data) {
    if (!database_->durable()) return;
    if (const auto entry = scheduler_.scheduled(data.uid)) {
      persist_schedule(entry->data, entry->attributes);
    }
  }

  void persist_schedule(const core::Data& data, const core::DataAttributes& attributes) {
    if (!database_->durable()) return;
    db::Table& table = database_->create_table({kThetaTable, "uid", {}});
    rpc::Writer w;
    rpc::wire::write_data(w, data);
    rpc::wire::write_attributes(w, attributes);
    db::Row row;
    row["uid"] = data.uid.str();
    row["blob"] = w.take();
    if (const auto existing = table.by_primary(db::Value(data.uid.str()))) {
      database_->update(kThetaTable, *existing, std::move(row));
    } else {
      database_->insert(kThetaTable, std::move(row));
    }
  }

  /// The JobService reaches the scheduler only through the container's
  /// durable mutation paths, so task and result placements land in the
  /// ds_theta table like every other Θ entry; its own state is mirrored
  /// into the "jobs" table (one re-encoded row per job per mutation).
  void wire_jobs() {
    jobs_.wire(
        [this](const core::Data& data, const core::DataAttributes& attributes) {
          return schedule_data(data, attributes);
        },
        [this](const util::Auid& uid) { return unschedule_data(uid); },
        [this](const util::Auid& job, const std::string& blob) {
          if (!database_->durable()) return;
          db::Table& table = database_->create_table({kJobsTable, "uid", {}});
          db::Row row;
          row["uid"] = job.str();
          row["blob"] = blob;
          if (const auto existing = table.by_primary(db::Value(job.str()))) {
            database_->update(kJobsTable, *existing, std::move(row));
          } else {
            database_->insert(kJobsTable, std::move(row));
          }
        });
  }

  void restore_jobs() {
    const db::Table* table = database_->table(kJobsTable);
    if (table == nullptr) return;
    table->scan([this](db::RowId, const db::Row& row) {
      const auto blob = row.find("blob");
      if (blob != row.end() && std::holds_alternative<std::string>(blob->second)) {
        jobs_.restore(std::get<std::string>(blob->second));
      }
      return true;
    });
  }

  void restore_scheduled_state() {
    const db::Table* table = database_->table(kThetaTable);
    if (table == nullptr) return;
    table->scan([this](db::RowId, const db::Row& row) {
      const auto blob = row.find("blob");
      if (blob == row.end() || !std::holds_alternative<std::string>(blob->second)) return true;
      try {
        rpc::Reader r(std::get<std::string>(blob->second));
        const core::Data data = rpc::wire::read_data(r);
        const core::DataAttributes attributes = rpc::wire::read_attributes(r);
        scheduler_.schedule(data, attributes);
      } catch (const rpc::CodecError&) {
        // A corrupt Θ entry loses that datum's scheduling, nothing else.
      }
      return true;
    });
  }

  std::unique_ptr<db::Database> database_;
  DataCatalog catalog_;
  DataRepository repository_;
  DataTransfer transfer_;
  DataScheduler scheduler_;
  jobs::JobService jobs_;
  std::string host_name_;
};

}  // namespace bitdew::services
