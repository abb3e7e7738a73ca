#include "transfer/part_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>

namespace bitdew::transfer {

using api::Errc;
using api::Error;
using api::Expected;
using api::ok_status;
using api::Status;

Expected<std::unique_ptr<PartFile>> PartFile::open(const std::string& path, std::int64_t size,
                                                   std::string service) {
  const std::string part = path + ".part";
  // Keep what an earlier round left, unless it is longer than the datum;
  // an oversized or unreadable partial starts over.
  std::int64_t kept = 0;
  struct stat st{};
  if (::stat(part.c_str(), &st) == 0 && S_ISREG(st.st_mode) && st.st_size <= size) {
    kept = static_cast<std::int64_t>(st.st_size);
  }
  const auto open_part = [&part](int flags) {
    return rpc::Fd{::open(part.c_str(), O_RDWR | O_CREAT | O_CLOEXEC | flags, 0644)};
  };
  rpc::Fd fd = open_part(kept > 0 ? 0 : O_TRUNC);
  if (!fd.valid() && kept > 0) {
    std::error_code ec;
    std::filesystem::remove(part, ec);
    kept = 0;
    fd = open_part(O_TRUNC);
  }
  if (!fd.valid()) return Error{Errc::kInvalidArgument, service, "cannot write " + part};
  return std::unique_ptr<PartFile>(new PartFile(path, std::move(service), std::move(fd), kept));
}

PartFile::PartFile(std::string path, std::string service, rpc::Fd fd, std::int64_t kept)
    : path_(std::move(path)),
      part_(path_ + ".part"),
      service_(std::move(service)),
      fd_(std::move(fd)),
      kept_(kept),
      offset_(kept),
      hash_(fd_.get(), kept) {}

Status PartFile::append(std::string&& chunk) {
  const std::size_t size = chunk.size();
  for (std::size_t done = 0; done < size;) {
    const ssize_t wrote = ::pwrite(fd_.get(), chunk.data() + done, size - done,
                                   offset_ + static_cast<std::int64_t>(done));
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote <= 0) {
      // A full disk must not verify a truncated file: the digest covers
      // the bytes received, so the bytes written must match them.
      return Error{Errc::kUnavailable, service_, "short write to " + part_};
    }
    done += static_cast<std::size_t>(wrote);
  }
  offset_ += static_cast<std::int64_t>(size);
  hash_.push(std::move(chunk));
  return ok_status();
}

Status PartFile::finish(const std::string& checksum) {
  const std::string digest = hash_.finish();
  if (::close(fd_.release()) != 0) {
    return Error{Errc::kUnavailable, service_, "flush failed for " + part_};
  }
  std::error_code ec;
  if (digest != checksum) {
    std::filesystem::remove(part_, ec);  // poisoned partials must not resume
    return Error{Errc::kChecksumMismatch, service_,
                 "MD5 of " + part_ + " differs from the registered checksum " + checksum};
  }
  std::filesystem::rename(part_, path_, ec);
  if (ec) return Error{Errc::kUnavailable, service_, "cannot move " + part_ + ": " + ec.message()};
  return ok_status();
}

// --- HashThread ------------------------------------------------------------------

HashThread::HashThread(int fd, std::int64_t prefix)
    : fd_(fd), prefix_(prefix), helper_(&HashThread::run, this) {}

HashThread::~HashThread() { stop(/*discard=*/true); }

void HashThread::push(std::string&& chunk) {
  {
    util::UniqueLock lock(mutex_);
    while (queue_.size() >= kQueueChunks) drained_.wait(lock);
    queue_.push_back(std::move(chunk));
  }
  queued_.notify_one();
}

std::string HashThread::finish() {
  stop(/*discard=*/false);
  return hasher_.finish().hex();
}

void HashThread::run() {
  // The prefix first. Pushed chunks lie after it, so it is stable on disk;
  // a short read leaves the digest short, which the caller's check reports.
  if (prefix_ > 0) {
    std::string buffer(static_cast<std::size_t>(std::min<std::int64_t>(prefix_, 1 << 20)), '\0');
    for (std::int64_t at = 0; at < prefix_;) {
      const auto want = static_cast<std::size_t>(std::min<std::int64_t>(
          prefix_ - at, static_cast<std::int64_t>(buffer.size())));
      const ssize_t got = ::pread(fd_, buffer.data(), want, at);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;
      hasher_.update(buffer.data(), static_cast<std::size_t>(got));
      at += got;
    }
  }
  for (;;) {
    std::string chunk;
    {
      util::UniqueLock lock(mutex_);
      while (queue_.empty() && !closed_) queued_.wait(lock);
      if (queue_.empty()) return;
      chunk = std::move(queue_.front());
      queue_.pop_front();
    }
    drained_.notify_one();
    hasher_.update(chunk);
  }
}

void HashThread::stop(bool discard) {
  {
    const util::LockGuard lock(mutex_);
    closed_ = true;
    if (discard) queue_.clear();
  }
  queued_.notify_one();
  if (helper_.joinable()) helper_.join();
}

}  // namespace bitdew::transfer
