// ServiceBus v2: the asynchronous client view of the four D* services plus
// the Distributed Data Catalog. The API classes (BitDew / ActiveData /
// TransferManager / Session) are written against this interface only, so
// the same user code runs over the discrete-event runtime (SimServiceBus:
// every call is a request/response flow on the simulated network) and the
// synchronous DirectServiceBus (a function call into the container) — the
// paper's claim that the service back-ends are swappable, made concrete.
//
// The three implementations (those two plus RemoteServiceBus over TCP)
// inherit these methods from api::BusBase (bus_base.hpp), which forwards
// each to the bus's generic call<Op> for its entry in the bus endpoint list
// (service_ops.hpp).
//
// v2 changes over the seed bus:
//  * every reply is an Expected<T> (value or Error{code, service, message})
//    instead of a bare bool — callers learn *why* an operation failed;
//  * bulk endpoints (dc_register_batch, dc_locators_batch,
//    ds_schedule_batch, ddc_publish_batch) amortize one request/response
//    flow and one service-queue event over N items. Partial failure is
//    per-item: one bad datum does not poison the batch.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "api/expected.hpp"
#include "core/attributes.hpp"
#include "core/data.hpp"
#include "core/locator.hpp"
#include "jobs/job_types.hpp"
#include "services/data_repository.hpp"
#include "services/data_scheduler.hpp"
#include "services/data_transfer.hpp"

namespace bitdew::api {

template <typename T>
using Reply = std::function<void(T)>;

/// A generic DHT pair for ddc_publish_batch.
struct KeyValue {
  std::string key;
  std::string value;

  friend bool operator==(const KeyValue&, const KeyValue&) = default;
};

/// Per-item outcomes of a batched call, index-aligned with the request.
using BatchStatus = std::vector<Status>;
using BatchLocators = std::vector<Expected<std::vector<core::Locator>>>;

class ServiceBus {
 public:
  virtual ~ServiceBus() = default;

  // --- Data Catalog ---------------------------------------------------------
  virtual void dc_register(const core::Data& data, Reply<Status> done) = 0;
  virtual void dc_get(const util::Auid& uid, Reply<Expected<core::Data>> done) = 0;
  virtual void dc_search(const std::string& name,
                         Reply<Expected<std::vector<core::Data>>> done) = 0;
  virtual void dc_remove(const util::Auid& uid, Reply<Status> done) = 0;
  virtual void dc_add_locator(const core::Locator& locator, Reply<Status> done) = 0;
  virtual void dc_locators(const util::Auid& uid,
                           Reply<Expected<std::vector<core::Locator>>> done) = 0;

  // --- Data Repository --------------------------------------------------------
  virtual void dr_put(const core::Data& data, const core::Content& content,
                      const std::string& protocol, Reply<Expected<core::Locator>> done) = 0;
  virtual void dr_get(const util::Auid& uid, Reply<Expected<core::Content>> done) = 0;
  virtual void dr_remove(const util::Auid& uid, Reply<Status> done) = 0;

  // --- Data Repository: chunked out-of-band data plane -------------------------
  // The real-byte path (PR 3): a sender streams content to the repository in
  // fixed-size chunks, resumable at the offset dr_put_start returns; the
  // repository verifies the assembled MD5 against the datum's registered
  // checksum at commit (Errc::kChecksumMismatch on divergence) and only then
  // serves it through dr_get_chunk. transfer::TcpTransfer is the client
  // engine driving these; Session::put_file/get_file is the blocking facade.

  /// Opens (or resumes) a chunked upload; the reply is the byte offset the
  /// sender must continue from (0 for a fresh upload).
  virtual void dr_put_start(const core::Data& data, Reply<Expected<std::int64_t>> done) = 0;
  /// Appends one chunk at `offset` (must equal the bytes received so far;
  /// Errc::kRejected on a mismatch — re-sync via dr_put_start).
  virtual void dr_put_chunk(const util::Auid& uid, std::int64_t offset,
                            const std::string& bytes, Reply<Status> done) = 0;
  /// Verifies and publishes the staged bytes; replies with the minted
  /// locator, or Errc::kChecksumMismatch (the stage is discarded).
  virtual void dr_put_commit(const util::Auid& uid, const std::string& protocol,
                             Reply<Expected<core::Locator>> done) = 0;
  /// Reads up to `max_bytes` of published content at `offset`; an empty
  /// reply means end of content.
  virtual void dr_get_chunk(const util::Auid& uid, std::int64_t offset, std::int64_t max_bytes,
                            Reply<Expected<std::string>> done) = 0;
  /// Repository serving counters (object count, stored bytes, chunk reads
  /// served). Benches and CI use the chunk-read counters to assert the peer
  /// data plane really bounded repository egress.
  virtual void dr_stats(Reply<Expected<services::RepoStats>> done) = 0;

  // --- Data Transfer ------------------------------------------------------------
  virtual void dt_register(const core::Data& data, const std::string& source,
                           const std::string& destination, const std::string& protocol,
                           Reply<Expected<services::TicketId>> done) = 0;
  virtual void dt_monitor(services::TicketId ticket, std::int64_t done_bytes,
                          Reply<Status> done) = 0;
  /// Fails with Errc::kChecksumMismatch when the received checksum differs
  /// from the expected one (the ticket stays active for a retry).
  virtual void dt_complete(services::TicketId ticket, const std::string& received_checksum,
                           const std::string& expected_checksum, Reply<Status> done) = 0;
  virtual void dt_failure(services::TicketId ticket, std::int64_t bytes_held, bool can_resume,
                          Reply<Status> done) = 0;
  virtual void dt_give_up(services::TicketId ticket, Reply<Status> done) = 0;

  // --- Data Scheduler -------------------------------------------------------------
  /// Fails with Errc::kRejected when the scheduler refuses the attributes
  /// (invalid replica count, self-referential affinity or lifetime).
  virtual void ds_schedule(const core::Data& data, const core::DataAttributes& attributes,
                           Reply<Status> done) = 0;
  virtual void ds_pin(const util::Auid& uid, const std::string& host, Reply<Status> done) = 0;
  virtual void ds_unschedule(const util::Auid& uid, Reply<Status> done) = 0;
  /// One reservoir synchronization (sync protocol v2): the request carries
  /// either the complete Δk or an {epoch, added, removed} delta since the
  /// last acked beat, plus the in-flight download list and the host's peer
  /// chunk-server endpoint ("host:port", empty when the node does not
  /// serve — the scheduler records it and mints it into the peer locators
  /// that ride back in other hosts' SyncReply.sources). A refused delta
  /// comes back with `resync` set and the caller repeats the sync in full.
  /// The SyncRequest is the ONLY entry point (the legacy positional
  /// full-report overload is retired): a full beat is SyncRequest{.full =
  /// true, .added = cache}. Old v1 wire frames are still rejected typed
  /// (Errc::kRejected) rather than dropped.
  virtual void ds_sync(const services::SyncRequest& request,
                       Reply<Expected<services::SyncReply>> done) = 0;
  /// The scheduler's host table (name, seconds since last sync, alive/dead,
  /// cached count) — the failure detector made observable, so operators and
  /// CI watch liveness instead of inferring it from replica movement.
  virtual void ds_hosts(Reply<Expected<std::vector<services::HostInfo>>> done) = 0;

  // --- Job service (compute-to-data) ------------------------------------------------
  /// Decomposes the spec into one task per input and places the tasks with
  /// replica affinity (tasks preferentially go where the input's Δk lives).
  virtual void job_submit(const jobs::JobSpec& spec, Reply<Expected<util::Auid>> done) = 0;
  virtual void job_status(const util::Auid& job,
                          Reply<Expected<jobs::JobStatusInfo>> done) = 0;
  /// First claim wins; later claimants get kRejected and stand down.
  virtual void job_claim(const util::Auid& task, const std::string& runner,
                         Reply<Expected<jobs::TaskOrder>> done) = 0;
  virtual void job_task_report(const jobs::TaskReport& report, Reply<Status> done) = 0;

  // --- Distributed Data Catalog (DHT) -----------------------------------------------
  /// Publishes a generic key/value pair (paper §3.3: the DHT is exposed for
  /// generic use; replica locations use key = data uid, value = host).
  virtual void ddc_publish(const std::string& key, const std::string& value,
                           Reply<Status> done) = 0;
  virtual void ddc_search(const std::string& key,
                          Reply<Expected<std::vector<std::string>>> done) = 0;

  // --- Bulk endpoints ---------------------------------------------------------------
  // One request/response flow and one service event amortized over N items;
  // the reply is index-aligned with the request and reports per-item
  // outcomes. An empty batch is a no-op: the reply fires with an empty
  // vector and no traffic is generated.
  virtual void dc_register_batch(const std::vector<core::Data>& items,
                                 Reply<BatchStatus> done) = 0;
  virtual void dc_locators_batch(const std::vector<util::Auid>& uids,
                                 Reply<BatchLocators> done) = 0;
  virtual void ds_schedule_batch(const std::vector<services::ScheduledData>& items,
                                 Reply<BatchStatus> done) = 0;
  /// The default fans out to ddc_publish, one call per pair: SimServiceBus
  /// takes it over an attached DHT ring, which routes per key.
  virtual void ddc_publish_batch(const std::vector<KeyValue>& pairs, Reply<BatchStatus> done);

  // --- Pipelining -----------------------------------------------------------------
  // How many scalar calls may be in flight before a callback must fire. The
  // defaults describe a bus that never holds a reply back: DirectServiceBus
  // answers before the call returns, and SimServiceBus answers when its
  // caller steps the simulator. RemoteServiceBus overrides all three. Only
  // idempotent reads may run above depth 1 (TcpTransfer's chunk window):
  // the host runs the frames of one connection concurrently.

  virtual int pipeline_depth() const { return 1; }
  /// Shrinking below the calls in flight completes the excess at once.
  virtual void set_pipeline_depth(int /*depth*/) {}
  /// Completes the oldest call in flight and fires its callback; false
  /// when none is outstanding (always, for Direct and Sim).
  virtual bool pump() { return false; }
};

}  // namespace bitdew::api
