#include "services/data_repository.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <system_error>

#include "util/md5.hpp"
#include "util/thread_annotations.hpp"

namespace bitdew::services {

using rpc::Fd;

namespace {

// A WAL written before content was always a file may also hold a
// "dr_chunk" table; it replays empty and nothing reads it.
constexpr const char* kObjectTable = "dr_object";    // published descriptors
constexpr const char* kContentTable = "dr_content";  // published content paths
constexpr const char* kStageTable = "dr_stage";      // in-flight upload state

/// Makes a private content dir under the temp directory. Throws
/// std::system_error naming the path when it cannot.
std::string make_private_dir() {
  // temp_directory_path() throws a filesystem_error naming $TMPDIR when it
  // is not a directory.
  std::string path = (std::filesystem::temp_directory_path() / "bitdew-content-XXXXXX").string();
  if (::mkdtemp(path.data()) == nullptr) {
    throw std::system_error(errno, std::generic_category(), "cannot create content dir " + path);
  }
  return path;
}

/// pread the exact range [offset, offset+length) into a string; shorter on
/// EOF, empty optional on a read error.
std::optional<std::string> pread_range(int fd, std::int64_t offset, std::int64_t length) {
  std::string out;
  out.resize(static_cast<std::size_t>(length));
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = ::pread(fd, out.data() + got, out.size() - got,
                              static_cast<off_t>(offset + static_cast<std::int64_t>(got)));
    if (n < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    if (n == 0) break;  // EOF
    got += static_cast<std::size_t>(n);
  }
  out.resize(got);
  return out;
}

bool pwrite_all(int fd, std::string_view bytes, std::int64_t offset) {
  std::size_t put = 0;
  while (put < bytes.size()) {
    const ssize_t n = ::pwrite(fd, bytes.data() + put, bytes.size() - put,
                               static_cast<off_t>(offset + static_cast<std::int64_t>(put)));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    put += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

/// A live upload: its .part file and the MD5 over the file's
/// bytes in offset order. `claimed` marks a reserved chunk that has not
/// advanced yet; like the uploads_ map it is touched only by the row-side
/// calls. A retired upload stays allocated while slots still hold it.
class StagedUpload {
 public:
  StagedUpload(std::string path, std::int64_t received)
      : part(std::move(path)), on_disk(received) {}

  /// Writes a chunk into the .part file, which stage_begin created: one
  /// that vanished mid-upload fails the write instead of being recreated
  /// with a hole. A retired upload writes nothing.
  bool write(std::int64_t offset, std::string_view bytes) EXCLUDES(write_mutex) {
    const util::LockGuard lock(write_mutex);
    if (!writable) return false;
    const Fd fd{::open(part.c_str(), O_WRONLY | O_CLOEXEC)};
    return fd.valid() && pwrite_all(fd.get(), bytes, offset);
  }

  /// Folds the chunk at `offset` into the MD5 once every chunk before it
  /// is in: the one before may still be hashing on another thread. The
  /// wait releases hash_mutex. A retired upload hashes nothing.
  void hash(std::int64_t offset, std::string_view bytes) EXCLUDES(hash_mutex) {
    util::UniqueLock lock(hash_mutex);
    if (live) catch_up();
    while (live && hashed != offset) hashed_cv.wait(lock);
    if (!live) return;
    hasher.update(bytes);
    hashed += static_cast<std::int64_t>(bytes.size());
    hashed_cv.notify_all();
  }

  /// The MD5 of the first `size` bytes, once every chunk below is hashed.
  std::string digest(std::int64_t size) EXCLUDES(hash_mutex) {
    util::UniqueLock lock(hash_mutex);
    catch_up();
    while (live && hashed < size) hashed_cv.wait(lock);
    return hasher.finish().hex();
  }

  /// Stops the upload: waits out a write and a hash in progress, and makes
  /// every later one a no-op.
  void retire() EXCLUDES(write_mutex, hash_mutex) {
    const util::LockGuard writes(write_mutex);
    const util::LockGuard hashes(hash_mutex);
    writable = false;
    live = false;
    hashed_cv.notify_all();
  }

  const std::string part;
  bool claimed = false;

 private:
  /// Replays the bytes staged before this upload existed (a restart or a
  /// resumed stage) into the hasher, once. A short read leaves the hasher
  /// short, which surfaces at commit as a checksum mismatch.
  void catch_up() REQUIRES(hash_mutex) {
    if (hashed >= on_disk) return;
    const Fd fd{::open(part.c_str(), O_RDONLY | O_CLOEXEC)};
    while (fd.valid() && hashed < on_disk) {
      const std::int64_t want = std::min<std::int64_t>(on_disk - hashed, 1 << 20);
      auto bytes = pread_range(fd.get(), hashed, want);
      if (!bytes.has_value() || bytes->empty()) break;
      hasher.update(*bytes);
      hashed += static_cast<std::int64_t>(bytes->size());
    }
    hashed = on_disk;
  }

  util::Mutex write_mutex;
  bool writable GUARDED_BY(write_mutex) = true;

  util::Mutex hash_mutex ACQUIRED_AFTER(write_mutex);
  util::CondVar hashed_cv;  ///< signalled when `hashed` grows or the upload retires
  util::Md5 hasher GUARDED_BY(hash_mutex);
  std::int64_t hashed GUARDED_BY(hash_mutex) = 0;  ///< bytes the hasher covers
  const std::int64_t on_disk;  ///< bytes staged before this upload, replayed by catch_up
  bool live GUARDED_BY(hash_mutex) = true;
};

DataRepository::DataRepository(db::Database& database, std::string host_name,
                               std::string content_dir)
    : database_(database), host_(std::move(host_name)), content_dir_(std::move(content_dir)) {
  database_.create_table(db::TableSchema{kObjectTable, "uid", {}});
  database_.create_table(db::TableSchema{kContentTable, "uid", {}});
  database_.create_table(db::TableSchema{kStageTable, "uid", {}});
  if (!content_dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(content_dir_, ec);
    if (!ec && !std::filesystem::is_directory(content_dir_, ec)) {
      ec = std::make_error_code(std::errc::not_a_directory);
    }
    if (ec) {
      throw std::runtime_error("cannot create content dir " + content_dir_ + ": " + ec.message());
    }
  }
}

DataRepository::~DataRepository() {
  if (!private_dir_) return;
  std::error_code ec;
  std::filesystem::remove_all(content_dir_, ec);
}

std::string DataRepository::content_path(const std::string& uid_key) const {
  return content_dir_ + "/" + uid_key;
}

std::string DataRepository::part_path(const std::string& uid_key) const {
  return content_dir_ + "/" + uid_key + ".part";
}

core::Locator DataRepository::put(const core::Data& data, const core::Content& content,
                                  const std::string& protocol) {
  db::Row row;
  row["uid"] = data.uid.str();
  row["size"] = content.size;
  row["checksum"] = content.checksum;
  row["path"] = "store/" + data.uid.str();

  db::Table* table = database_.table(kObjectTable);
  const auto existing = table->by_primary(db::Value{data.uid.str()});
  if (existing.has_value()) {
    database_.update(kObjectTable, *existing, row);
  } else {
    database_.insert(kObjectTable, std::move(row));
  }

  core::Locator locator;
  locator.data_uid = data.uid;
  locator.protocol = protocol;
  locator.host = host_;
  locator.path = "store/" + data.uid.str();
  return locator;
}

std::optional<core::Content> DataRepository::get(const util::Auid& uid) const {
  const db::Table* table = database_.table(kObjectTable);
  const auto id = table->by_primary(db::Value{uid.str()});
  if (!id.has_value()) return std::nullopt;
  const db::Row& row = *table->get(*id);
  core::Content content;
  content.size = db::get_int(row, "size");
  content.checksum = db::get_text(row, "checksum");
  return content;
}

bool DataRepository::exists(const util::Auid& uid) const {
  return database_.table(kObjectTable)->by_primary(db::Value{uid.str()}).has_value();
}

bool DataRepository::remove(const util::Auid& uid) {
  stage_discard(uid);
  const std::string uid_key = uid.str();
  const db::Table* content = database_.table(kContentTable);
  if (const auto id = content->by_primary(db::Value{uid_key})) {
    std::error_code ec;
    std::filesystem::remove(db::get_text(*content->get(*id), "path"), ec);
    database_.erase(kContentTable, *id);
  }
  db::Table* table = database_.table(kObjectTable);
  const auto id = table->by_primary(db::Value{uid_key});
  if (!id.has_value()) return false;
  return database_.erase(kObjectTable, *id);
}

// --- chunked out-of-band uploads ---------------------------------------------

std::shared_ptr<StagedUpload> DataRepository::live_upload(const std::string& uid_key,
                                                          std::int64_t received) {
  std::shared_ptr<StagedUpload>& upload = uploads_[uid_key];
  if (upload == nullptr) upload = std::make_shared<StagedUpload>(part_path(uid_key), received);
  return upload;
}

void DataRepository::retire_upload(const std::string& uid_key) {
  const auto it = uploads_.find(uid_key);
  if (it == uploads_.end()) return;
  it->second->retire();
  uploads_.erase(it);
}

std::int64_t DataRepository::stage_begin(const core::Data& data) {
  if (content_dir_.empty()) {
    content_dir_ = make_private_dir();
    private_dir_ = true;
  }
  db::Table* table = database_.table(kStageTable);
  const std::string uid_key = data.uid.str();
  const auto id = table->by_primary(db::Value{uid_key});
  if (id.has_value()) {
    db::Row row = *table->get(*id);
    if (db::get_text(row, "checksum").empty() && !data.checksum.empty() &&
        db::get_int(row, "size") == data.size) {
      // The seal of a pending stage. Its live upload stays: retiring it
      // would make commit re-hash the whole .part from disk, under the lock.
      const std::int64_t received = db::get_int(row, "received");
      row["checksum"] = data.checksum;
      database_.update(kStageTable, *id, std::move(row));
      return received;
    }
  }
  // Resume or restart alike: chunks reserved before this call land nothing.
  retire_upload(uid_key);
  if (id.has_value()) {
    const db::Row& row = *table->get(*id);
    if (db::get_int(row, "size") == data.size &&
        db::get_text(row, "checksum") == data.checksum) {
      // A crash can leave the .part file longer than the durable `received`
      // watermark (bytes landed, row update didn't). Truncate back so the
      // resumed sender's offsets line up with the file.
      const std::int64_t received = db::get_int(row, "received");
      std::error_code ec;
      std::filesystem::resize_file(part_path(uid_key), static_cast<std::uintmax_t>(received),
                                   ec);
      if (!ec) return received;  // resume
    }
    // The datum's content changed under the stage, or its .part vanished:
    // restart from scratch.
    database_.erase(kStageTable, *id);
  }
  // An empty .part for the chunks to land in (and for an empty datum to
  // commit by renaming).
  const Fd fd{::open(part_path(uid_key).c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644)};
  db::Row row;
  row["uid"] = uid_key;
  row["received"] = std::int64_t{0};
  row["size"] = data.size;
  row["checksum"] = data.checksum;
  database_.insert(kStageTable, std::move(row));
  return 0;
}

ChunkResult DataRepository::stage_chunk(const util::Auid& uid, std::int64_t offset,
                                        std::string_view bytes) {
  StageSlot slot;
  ChunkResult result =
      stage_reserve(uid, offset, static_cast<std::int64_t>(bytes.size()), slot);
  if (result != ChunkResult::kOk) return result;
  stage_write(slot, bytes);
  result = stage_advance(slot);
  if (result == ChunkResult::kOk) stage_hash(slot, bytes);
  return result;
}

ChunkResult DataRepository::stage_reserve(const util::Auid& uid, std::int64_t offset,
                                          std::int64_t length, StageSlot& slot) {
  if (length == 0) return ChunkResult::kEmpty;
  if (length > kMaxChunkBytes) return ChunkResult::kOversize;
  const db::Table* table = database_.table(kStageTable);
  const std::string uid_key = uid.str();
  const auto id = table->by_primary(db::Value{uid_key});
  if (!id.has_value()) return ChunkResult::kNoStage;
  const db::Row& stage = *table->get(*id);
  const std::int64_t received = db::get_int(stage, "received");
  if (offset != received) return ChunkResult::kBadOffset;
  if (received + length > db::get_int(stage, "size")) return ChunkResult::kOversize;
  std::shared_ptr<StagedUpload> upload = live_upload(uid_key, received);
  if (upload->claimed) return ChunkResult::kBadOffset;  // a racing chunk holds it
  upload->claimed = true;
  slot.upload = std::move(upload);
  slot.uid_key = uid_key;
  slot.offset = offset;
  slot.length = length;
  return ChunkResult::kOk;
}

void DataRepository::stage_write(StageSlot& slot, std::string_view bytes) {
  slot.written = slot.upload->write(slot.offset, bytes);  // the bytes never enter the database
}

ChunkResult DataRepository::stage_advance(StageSlot& slot) {
  const auto live = uploads_.find(slot.uid_key);
  const bool current = live != uploads_.end() && live->second == slot.upload;
  if (current) slot.upload->claimed = false;
  db::Table* table = database_.table(kStageTable);
  const auto id = table->by_primary(db::Value{slot.uid_key});
  if (!id.has_value()) return ChunkResult::kNoStage;
  if (!current) return ChunkResult::kBadOffset;  // retired since the reserve
  if (!slot.written) return ChunkResult::kWriteFailed;
  db::Row stage = *table->get(*id);
  const std::int64_t received = db::get_int(stage, "received");
  if (received != slot.offset) return ChunkResult::kBadOffset;
  stage["received"] = received + slot.length;
  database_.update(kStageTable, *id, std::move(stage));
  return ChunkResult::kOk;
}

void DataRepository::stage_hash(const StageSlot& slot, std::string_view bytes) {
  slot.upload->hash(slot.offset, bytes);
}

CommitResult DataRepository::stage_commit(const util::Auid& uid, const std::string& protocol,
                                          core::Locator* locator_out) {
  db::Table* table = database_.table(kStageTable);
  const std::string uid_key = uid.str();
  const auto id = table->by_primary(db::Value{uid_key});
  if (!id.has_value()) return CommitResult::kNoStage;
  const db::Row stage = *table->get(*id);
  const std::int64_t size = db::get_int(stage, "size");
  if (db::get_int(stage, "received") < size) return CommitResult::kIncomplete;
  if (db::get_text(stage, "checksum").empty()) return CommitResult::kUnsealed;

  // The MD5 accumulated chunk by chunk (or replays the .part file once
  // after a restart): commit waits for the chunks still hashing and never
  // materializes the content.
  const std::string digest = live_upload(uid_key, size)->digest(size);
  retire_upload(uid_key);

  // The stage is consumed either way: a mismatch must not leave poisoned
  // bytes behind for the next attempt to resume onto.
  database_.erase(kStageTable, *id);

  std::error_code ec;
  if (digest != db::get_text(stage, "checksum")) {
    std::filesystem::remove(part_path(uid_key), ec);
    return CommitResult::kChecksumMismatch;
  }

  // Bytes first, descriptor after: a failed rename publishes nothing.
  const std::string published = content_path(uid_key);
  std::filesystem::rename(part_path(uid_key), published, ec);
  if (ec) return CommitResult::kNoStage;  // staged bytes vanished underneath
  db::Row content;
  content["uid"] = uid_key;
  content["path"] = published;

  core::Data data;
  data.uid = uid;
  data.size = size;
  data.checksum = db::get_text(stage, "checksum");
  const core::Locator locator = put(data, core::Content{data.size, data.checksum}, protocol);
  if (locator_out != nullptr) *locator_out = locator;

  db::Table* content_table = database_.table(kContentTable);
  if (const auto existing = content_table->by_primary(db::Value{uid_key})) {
    database_.update(kContentTable, *existing, std::move(content));
  } else {
    database_.insert(kContentTable, std::move(content));
  }
  return CommitResult::kOk;
}

void DataRepository::stage_discard(const util::Auid& uid) {
  db::Table* table = database_.table(kStageTable);
  const std::string uid_key = uid.str();
  retire_upload(uid_key);
  if (!content_dir_.empty()) {  // empty: nothing was ever staged here
    std::error_code ec;
    std::filesystem::remove(part_path(uid_key), ec);
  }
  const auto id = table->by_primary(db::Value{uid_key});
  if (id.has_value()) database_.erase(kStageTable, *id);
}

std::int64_t DataRepository::stage_received(const util::Auid& uid) const {
  const db::Table* table = database_.table(kStageTable);
  const auto id = table->by_primary(db::Value{uid.str()});
  return id.has_value() ? db::get_int(*table->get(*id), "received") : 0;
}

// --- chunked reads ------------------------------------------------------------

std::optional<std::string> DataRepository::read_bytes(const util::Auid& uid,
                                                      std::int64_t offset,
                                                      std::int64_t max_bytes) const {
  auto chunk = read_chunk_ref(uid, offset, max_bytes);
  if (!chunk.has_value()) return std::nullopt;
  if (!chunk->file_backed()) return std::move(chunk->bytes);  // end of content
  // A string is what the caller asked for: materialize the slice (and
  // account for the copy — this is the path the zero-copy plane bypasses).
  auto bytes = pread_range(chunk->file.get(), chunk->offset, chunk->length);
  if (!bytes.has_value()) return std::nullopt;
  blob_copies_.fetch_add(1, std::memory_order_relaxed);
  slice_reads_.fetch_sub(1, std::memory_order_relaxed);
  return std::move(*bytes);
}

std::optional<rpc::ChunkRef> DataRepository::read_chunk_ref(const util::Auid& uid,
                                                            std::int64_t offset,
                                                            std::int64_t max_bytes) const {
  const db::Table* table = database_.table(kContentTable);
  const auto id = table->by_primary(db::Value{uid.str()});
  if (!id.has_value()) return std::nullopt;
  Fd fd{::open(db::get_text(*table->get(*id), "path").c_str(), O_RDONLY | O_CLOEXEC)};
  if (!fd.valid()) return std::nullopt;
  struct stat st{};
  if (::fstat(fd.get(), &st) != 0) return std::nullopt;
  const auto size = static_cast<std::int64_t>(st.st_size);
  if (offset < 0 || offset >= size) return rpc::ChunkRef(std::string{});
  const std::int64_t take = std::min<std::int64_t>(max_bytes, size - offset);
  chunk_reads_.fetch_add(1, std::memory_order_relaxed);
  chunk_read_bytes_.fetch_add(take, std::memory_order_relaxed);
  slice_reads_.fetch_add(1, std::memory_order_relaxed);
  return rpc::ChunkRef(std::move(fd), offset, take);
}

bool DataRepository::has_bytes(const util::Auid& uid) const {
  return database_.table(kContentTable)->by_primary(db::Value{uid.str()}).has_value();
}

std::int64_t DataRepository::stored_bytes() const {
  std::int64_t total = 0;
  database_.table(kObjectTable)->scan([&total](db::RowId, const db::Row& row) {
    total += db::get_int(row, "size");
    return true;
  });
  return total;
}

std::size_t DataRepository::object_count() const {
  return database_.table(kObjectTable)->size();
}

RepoStats DataRepository::stats() const {
  RepoStats out;
  out.objects = object_count();
  out.stored_bytes = stored_bytes();
  out.chunk_reads = chunk_reads_.load(std::memory_order_relaxed);
  out.chunk_read_bytes = chunk_read_bytes_.load(std::memory_order_relaxed);
  out.blob_copies = blob_copies_.load(std::memory_order_relaxed);
  out.slice_reads = slice_reads_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace bitdew::services
