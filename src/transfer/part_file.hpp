// PartFile: the `.part` sink both get engines (TcpTransfer, PeerTransfer)
// download through. It owns the resume, write and verify steps of a get:
//
//  * open() resumes the prefix a previous round left in `<path>.part`, or
//    starts over when that file is longer than the datum or unreadable;
//  * append() writes each chunk at the end of the file on the caller's
//    thread, then moves it (no copy) to a HashThread, which feeds MD5 in
//    offset order on a helper thread. The helper first re-hashes the kept
//    prefix from disk, so the final digest covers every byte of the file,
//    and the caller can fetch the next chunks meanwhile;
//  * finish() joins the helper and compares the digest with the datum's
//    checksum: a match renames `.part` into place, a mismatch removes it
//    (a poisoned partial must not resume) and fails kChecksumMismatch.
//
// Dropping a PartFile without finish() (an early return, a retry round)
// stops the helper and keeps the `.part` for the next round to resume.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>

#include "api/expected.hpp"
#include "rpc/fd.hpp"
#include "util/md5.hpp"
#include "util/thread_annotations.hpp"

namespace bitdew::transfer {

/// An MD5 fed in offset order on a helper thread: first the first `prefix`
/// bytes of `fd`, re-read from disk, then every chunk push()ed. The
/// caller's thread only queues, so it can move the next chunks meanwhile.
/// `fd` must stay open until finish() or destruction.
class HashThread {
 public:
  /// Chunks pushed but not yet hashed before push() blocks.
  static constexpr std::size_t kQueueChunks = 4;

  HashThread(int fd, std::int64_t prefix);
  /// Stops the helper, dropping what is still queued.
  ~HashThread();
  HashThread(const HashThread&) = delete;
  HashThread& operator=(const HashThread&) = delete;

  /// Queues `chunk` (moved, not copied); blocks while kQueueChunks wait.
  void push(std::string&& chunk) EXCLUDES(mutex_);

  /// Hashes what is queued, joins the helper and returns the hex digest. A
  /// prefix that could not be read in full leaves the digest short.
  std::string finish() EXCLUDES(mutex_);

 private:
  void run() EXCLUDES(mutex_);
  /// Closes the queue (dropping unhashed chunks when `discard`) and joins.
  void stop(bool discard) EXCLUDES(mutex_);

  const int fd_;
  const std::int64_t prefix_;
  util::Mutex mutex_;
  util::CondVar queued_;   ///< a chunk arrived or the queue closed
  util::CondVar drained_;  ///< the helper took a chunk
  std::deque<std::string> queue_ GUARDED_BY(mutex_);
  bool closed_ GUARDED_BY(mutex_) = false;
  util::Md5 hasher_;  ///< the helper's alone until stop() joins it
  std::thread helper_;
};

class PartFile {
 public:
  /// Opens `path`.part for a datum of `size` bytes. `service` labels the
  /// errors ("tcp", "p2p"). Fails kInvalidArgument when the file cannot be
  /// opened for writing.
  static api::Expected<std::unique_ptr<PartFile>> open(const std::string& path,
                                                       std::int64_t size, std::string service);

  PartFile(const PartFile&) = delete;
  PartFile& operator=(const PartFile&) = delete;

  /// Bytes in the file: where the next chunk goes.
  std::int64_t offset() const { return offset_; }
  /// Whether open() kept a non-empty prefix from an earlier round.
  bool resumed() const { return kept_ > 0; }

  /// Writes `chunk` at offset() and queues it for hashing; blocks while
  /// HashThread::kQueueChunks chunks wait. kUnavailable on a short write.
  api::Status append(std::string&& chunk);

  /// Verifies the file against `checksum` and renames it to `path`.
  api::Status finish(const std::string& checksum);

 private:
  PartFile(std::string path, std::string service, rpc::Fd fd, std::int64_t kept);

  const std::string path_;
  const std::string part_;
  const std::string service_;
  rpc::Fd fd_;
  const std::int64_t kept_;
  std::int64_t offset_;  ///< touched by the appending thread only
  HashThread hash_;      ///< after fd_: stopped before the file closes
};

}  // namespace bitdew::transfer
