// Data Repository (DR): the interface to persistent storage with remote
// access (paper §3.4.2) — a wrapper around a legacy store: DewDB holds the
// object descriptors, and the content bytes live beside it as files.
//
// Two planes feed it:
//  * the metadata path: put() registers a content *descriptor* for a data
//    slot and mints the Locator that the transfer protocols consume (the
//    simulated runtime stops here — no bytes move);
//  * the data path (PR 3): chunked out-of-band uploads. stage_begin /
//    stage_chunk / stage_commit accept a file in fixed-size chunks, keep a
//    partial upload across a daemon restart (it resumes at the returned
//    offset), verify the staged bytes' MD5 against the checksum the stage
//    holds at commit, and only then publish the content for
//    read_chunk_ref() to serve. A stage may open *pending*, with the size
//    known and the checksum empty, so the sender can hash while it sends;
//    a later stage_begin with the same size and the digest seals it, and
//    commit refuses a stage that was never sealed.
//
// Every chunk is written to `<content_dir>/<uid>.part`; the database holds
// only the upload's stage row (its received-bytes watermark). A WAL-backed
// container keeps its content dir beside the WAL, and an in-memory one a
// private dir under the temp directory. A chunk is staged in four steps:
// reserve and advance touch the stage row under the lock that serializes
// the repository (ServiceHost's container lock); write and hash take only
// the upload's own locks. A ServiceHost replies once the row has advanced
// and runs the MD5 after the reply, outside the container lock; commit
// waits for those hashes, then renames the .part into place.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/data.hpp"
#include "core/locator.hpp"
#include "db/database.hpp"
#include "rpc/chunk_ref.hpp"

namespace bitdew::services {

/// Repository data-plane counters, served over the bus as dr_stats so
/// benches and CI measure repository EGRESS (how many bytes the central
/// store actually shipped) without poking daemon internals. The collective
/// distribution claim (paper Fig. 3a/5) is exactly "egress stays O(1 file
/// copy) while N workers fill their caches".
struct RepoStats {
  std::uint64_t objects = 0;          ///< stored content descriptors
  std::int64_t stored_bytes = 0;      ///< sum of descriptor sizes
  std::uint64_t chunk_reads = 0;      ///< chunk reads that served payload
  std::int64_t chunk_read_bytes = 0;  ///< total content bytes served
  // Zero-copy accounting (the acceptance check for the epoll data plane):
  // every chunk read either materialized the payload in a std::string
  // (blob_copies: read_bytes, the Direct/Sim dr_get_chunk path) or handed
  // out an fd slice for sendfile (slice_reads). A repository serving
  // dr_get_chunk over the wire must show slice_reads > 0 and
  // blob_copies == 0.
  std::uint64_t blob_copies = 0;  ///< reads copied into a std::string
  std::uint64_t slice_reads = 0;  ///< reads answered as a content-file slice

  friend bool operator==(const RepoStats&, const RepoStats&) = default;
};

/// Largest chunk the repository accepts in one stage_chunk/read_bytes call.
/// Kept well under rpc::kMaxFrameBytes so a chunk frame always fits.
inline constexpr std::int64_t kMaxChunkBytes = 8ll << 20;

/// Outcome of stage_chunk() and of its staging steps.
enum class ChunkResult {
  kOk = 0,
  kNoStage,    ///< no staged upload for this uid (stage_begin first)
  kBadOffset,  ///< offset != bytes received so far, another chunk holds that
               ///< offset, or the upload was restarted (resync via stage_begin)
  kOversize,   ///< chunk exceeds kMaxChunkBytes or overruns the declared size
  kEmpty,      ///< a chunk carries no bytes
  kWriteFailed,  ///< the .part refused the bytes (ENOSPC, EIO, or it vanished)
};

/// Outcome of stage_commit().
enum class CommitResult {
  kOk = 0,
  kNoStage,           ///< nothing staged for this uid
  kIncomplete,        ///< fewer bytes staged than the declared size
  kUnsealed,          ///< the stage is pending: no checksum to verify against
  kChecksumMismatch,  ///< assembled MD5 differs from the registered checksum
};

/// The per-upload state of a stage (data_repository.cpp).
class StagedUpload;

/// One chunk admitted by DataRepository::stage_reserve(): where it lands
/// and the upload it belongs to. The caller carries it through the other
/// three staging steps.
struct StageSlot {
  std::string uid_key;
  std::int64_t offset = 0;
  std::int64_t length = 0;
  std::shared_ptr<StagedUpload> upload;
  bool written = false;  ///< stage_write() landed the bytes
};

class DataRepository {
 public:
  /// `host_name` is the service host this repository is reachable at.
  /// Content lives in `content_dir`: staged uploads stream straight into
  /// `<content_dir>/<uid>.part` (chunk bytes never pass through the
  /// database), the incremental MD5 runs as chunks arrive, and commit is a
  /// rename — publishing stores only the content path, so reads are served
  /// as fd slices (read_chunk_ref) with zero intermediate copies. Throws
  /// std::runtime_error naming the path when `content_dir` cannot be
  /// created, as db::Database does for a WAL it cannot open. Empty means a
  /// private dir under the temp directory ($TMPDIR), made by the first
  /// stage_begin and removed with the repository; a process killed with
  /// SIGKILL leaves it behind.
  DataRepository(db::Database& database, std::string host_name,
                 std::string content_dir = "");
  ~DataRepository();
  DataRepository(const DataRepository&) = delete;
  DataRepository& operator=(const DataRepository&) = delete;

  /// Stores a content descriptor for a data slot; returns the locator
  /// clients should use with `protocol` to fetch it. Re-putting overwrites.
  core::Locator put(const core::Data& data, const core::Content& content,
                    const std::string& protocol);

  /// Content descriptor for a slot, if stored here.
  std::optional<core::Content> get(const util::Auid& uid) const;

  bool exists(const util::Auid& uid) const;
  /// Removes descriptor, published bytes and any staged upload.
  bool remove(const util::Auid& uid);

  // --- chunked out-of-band uploads -------------------------------------------
  /// Opens (or resumes) a staged upload for `data` and returns the number of
  /// bytes already durably held — the offset the sender must continue from.
  /// An empty data.checksum opens (or resumes) a pending stage. A pending
  /// stage of the same size adopts a non-empty checksum (the seal) and
  /// keeps its upload's running MD5; any other stage whose declared
  /// size/checksum no longer match `data` is reset. Throws
  /// std::system_error naming the path when a private content dir cannot
  /// be made.
  std::int64_t stage_begin(const core::Data& data);

  /// Appends one chunk at `offset` (must equal the bytes received so far):
  /// the four staging steps below, in order.
  ChunkResult stage_chunk(const util::Auid& uid, std::int64_t offset, std::string_view bytes);

  // The staging steps. reserve and advance read and write the stage row:
  // call them under the lock that serializes this repository. write and
  // hash take only the upload's own locks (never the caller's), so they
  // may run outside it. Only a slot whose advance returned kOk is hashed.
  //
  // stage_begin (except a seal), stage_discard, remove and commit retire an
  // upload's state: a slot reserved before that lands nothing and cannot
  // advance.

  /// Step 1: admits `length` bytes at `offset` and claims the offset until
  /// the slot's advance, so a second chunk at the same offset is refused.
  ChunkResult stage_reserve(const util::Auid& uid, std::int64_t offset, std::int64_t length,
                            StageSlot& slot);
  /// Step 2: writes the bytes to the upload's .part file under the
  /// upload's write lock.
  void stage_write(StageSlot& slot, std::string_view bytes);
  /// Step 3: releases the claim and moves the stage row past the chunk.
  /// kOk means the bytes are staged; the chunk's MD5 may still be pending.
  ChunkResult stage_advance(StageSlot& slot);
  /// Step 4: folds the chunk into the upload's MD5, in offset order: waits
  /// for the chunks before it, holding neither the caller's lock nor the
  /// write lock.
  void stage_hash(const StageSlot& slot, std::string_view bytes);

  /// Verifies the staged bytes' MD5 against the checksum declared at
  /// stage_begin (waiting for any pending stage_hash first) and, on
  /// success, publishes them (descriptor + content, locator minted with
  /// `protocol`). The stage is consumed either way: a mismatch discards the
  /// staged bytes so the next put starts clean. An unsealed stage is
  /// refused (kUnsealed) and kept.
  CommitResult stage_commit(const util::Auid& uid, const std::string& protocol,
                            core::Locator* locator_out = nullptr);

  /// Drops a staged upload (if any) without publishing.
  void stage_discard(const util::Auid& uid);

  /// Bytes received so far for a staged upload (0 when none).
  std::int64_t stage_received(const util::Auid& uid) const;

  /// The file a staged upload of `uid` writes to.
  std::string stage_path(const util::Auid& uid) const { return part_path(uid.str()); }

  // --- chunked reads ----------------------------------------------------------
  /// Up to `max_bytes` of published content starting at `offset`; an empty
  /// string at/after end of content; nullopt when no bytes are stored here
  /// (metadata-only datum or unknown uid).
  std::optional<std::string> read_bytes(const util::Auid& uid, std::int64_t offset,
                                        std::int64_t max_bytes) const;

  /// The zero-copy read: like read_bytes, but the content is returned as
  /// an owned fd + [offset, length) slice instead of a std::string, so the
  /// transport can sendfile it straight into the socket. nullopt when no
  /// bytes are stored here.
  std::optional<rpc::ChunkRef> read_chunk_ref(const util::Auid& uid, std::int64_t offset,
                                              std::int64_t max_bytes) const;

  /// Whether real content bytes (not just a descriptor) are stored.
  bool has_bytes(const util::Auid& uid) const;

  /// Total bytes of stored content (descriptor sizes).
  std::int64_t stored_bytes() const;
  std::size_t object_count() const;
  /// Serving counters + store size (the dr_stats endpoint's back-end).
  RepoStats stats() const;
  const std::string& host_name() const { return host_; }

 private:
  std::string content_path(const std::string& uid_key) const;
  std::string part_path(const std::string& uid_key) const;
  /// The live upload of `uid_key`; a new one when there is none, whose
  /// .part file already holds `received` staged bytes.
  std::shared_ptr<StagedUpload> live_upload(const std::string& uid_key, std::int64_t received);
  /// Retires the live upload of `uid_key`, if any: waits out its write and
  /// hash in progress, and later ones land nothing.
  void retire_upload(const std::string& uid_key);

  db::Database& database_;
  std::string host_;
  /// Empty until stage_begin makes the private dir. Touched only under the
  /// lock that serializes the repository.
  std::string content_dir_;
  bool private_dir_ = false;  ///< content_dir_ is ours to remove
  /// Live uploads by uid. Soft state: an upload's MD5 is
  /// rebuilt from its .part file after a restart. Touched only by the
  /// row-side calls, under the lock that serializes the repository.
  std::unordered_map<std::string, std::shared_ptr<StagedUpload>> uploads_;
  // Counted in const read paths from concurrent ServiceHost workers.
  mutable std::atomic<std::uint64_t> chunk_reads_{0};
  mutable std::atomic<std::int64_t> chunk_read_bytes_{0};
  mutable std::atomic<std::uint64_t> blob_copies_{0};
  mutable std::atomic<std::uint64_t> slice_reads_{0};
};

}  // namespace bitdew::services
