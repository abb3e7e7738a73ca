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
      offset_(kept) {
  helper_ = std::thread(&PartFile::hash_loop, this);
}

PartFile::~PartFile() { stop(/*discard=*/true); }

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
  {
    util::UniqueLock lock(mutex_);
    while (queue_.size() >= kHashQueueChunks) drained_.wait(lock);
    queue_.push_back(std::move(chunk));
  }
  queued_.notify_one();
  return ok_status();
}

Status PartFile::finish(const std::string& checksum) {
  stop(/*discard=*/false);
  if (::close(fd_.release()) != 0) {
    return Error{Errc::kUnavailable, service_, "flush failed for " + part_};
  }
  std::error_code ec;
  if (hasher_.finish().hex() != checksum) {
    std::filesystem::remove(part_, ec);  // poisoned partials must not resume
    return Error{Errc::kChecksumMismatch, service_,
                 "MD5 of " + part_ + " differs from the registered checksum " + checksum};
  }
  std::filesystem::rename(part_, path_, ec);
  if (ec) return Error{Errc::kUnavailable, service_, "cannot move " + part_ + ": " + ec.message()};
  return ok_status();
}

void PartFile::hash_loop() {
  // The kept prefix first. Appends land after it, so it is stable on disk;
  // a short read leaves the digest short, which finish() reports.
  if (kept_ > 0) {
    std::string buffer(static_cast<std::size_t>(std::min<std::int64_t>(kept_, 1 << 20)), '\0');
    for (std::int64_t at = 0; at < kept_;) {
      const auto want = static_cast<std::size_t>(std::min<std::int64_t>(
          kept_ - at, static_cast<std::int64_t>(buffer.size())));
      const ssize_t got = ::pread(fd_.get(), buffer.data(), want, at);
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

void PartFile::stop(bool discard) {
  {
    const util::LockGuard lock(mutex_);
    closed_ = true;
    if (discard) queue_.clear();
  }
  queued_.notify_one();
  if (helper_.joinable()) helper_.join();
}

}  // namespace bitdew::transfer
