#include "transfer/tcp.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <deque>
#include <memory>
#include <utility>

#include "rpc/fd.hpp"
#include "services/data_repository.hpp"
#include "transfer/chunk_source.hpp"
#include "transfer/part_file.hpp"
#include "transfer/progress.hpp"

namespace bitdew::transfer {
namespace {

using api::Errc;
using api::Error;
using api::Expected;
using api::ok_status;
using api::Status;

bool retryable(const Status& status) {
  // kTransport: the connection died (daemon restart, socket loss) — the
  // next round reconnects and resumes. kRejected on a chunk is an offset
  // desync (e.g. the repository lost un-flushed state); dr_put_start
  // re-synchronizes it.
  return !status.ok() &&
         (status.error().code == Errc::kTransport || status.error().code == Errc::kRejected);
}

/// The bus depth of the chunk loop of an upload.
constexpr int kPutDepth = 3;

/// Fills `buffer` from `fd` at `offset`; false on a read error or when the
/// file ends first.
bool read_exact(int fd, std::string& buffer, std::int64_t offset) {
  for (std::size_t got = 0; got < buffer.size();) {
    const ssize_t n = ::pread(fd, buffer.data() + got, buffer.size() - got,
                              static_cast<off_t>(offset + static_cast<std::int64_t>(got)));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

/// Raises a bus's pipeline depth to at least `depth` for one scope. The
/// caller's depth comes back on every exit, and lowering it completes
/// whatever the scope left in flight.
class DepthScope {
 public:
  DepthScope(api::ServiceBus& bus, int depth) : bus_(bus), saved_(bus.pipeline_depth()) {
    if (saved_ < depth) bus_.set_pipeline_depth(depth);
  }
  ~DepthScope() { bus_.set_pipeline_depth(saved_); }
  DepthScope(const DepthScope&) = delete;
  DepthScope& operator=(const DepthScope&) = delete;

 private:
  api::ServiceBus& bus_;
  const int saved_;
};

}  // namespace

TcpTransfer::TcpTransfer(api::ServiceBus& bus, TcpConfig config, Pump pump)
    : bus_(bus), config_(config), pump_(std::move(pump)) {
  config_.chunk_bytes = std::clamp<std::int64_t>(config_.chunk_bytes, 1, services::kMaxChunkBytes);
  config_.max_attempts = std::max(config_.max_attempts, 1);
}

// --- upload -------------------------------------------------------------------

Status TcpTransfer::put_file(const core::Data& data, const std::string& path) {
  core::Content content;
  try {
    content = core::file_content(path);
  } catch (const std::exception& error) {
    return Error{Errc::kInvalidArgument, "tcp", error.what()};
  }
  if (content.size != data.size || content.checksum != data.checksum) {
    return Error{Errc::kInvalidArgument, "tcp",
                 path + " does not match the datum's registered size/checksum"};
  }
  core::Data checked = data;
  return upload(checked, path);
}

Status TcpTransfer::upload(core::Data& data, const std::string& path,
                           std::optional<std::int64_t> opened) {
  const bool pending = data.checksum.empty();
  ProgressReport progress(
      bus_, config_.track_ticket
                ? open_ticket(bus_, pump_, data, config_.local_name, "dr", kTcpProtocol)
                : 0);
  core::Locator locator;
  Status outcome = ok_status();
  for (int attempt = 0; attempt < config_.max_attempts; ++attempt) {
    if (attempt > 0) ++stats_.retries;
    outcome = put_round(data, path, std::exchange(opened, std::nullopt), progress, &locator);
    if (!retryable(outcome)) break;
  }

  if (outcome.ok() && pending) {
    // Complete the catalog row that was registered pending.
    outcome = await_reply<api::Unit>(bus_, pump_, [&](api::Reply<Status> done) {
      bus_.dc_register(data, std::move(done));
    });
  }
  if (outcome.ok()) {
    // Publish the minted locator so readers can find this replica.
    outcome = await_reply<api::Unit>(bus_, pump_, [&](api::Reply<Status> done) {
      bus_.dc_add_locator(locator, std::move(done));
    });
  }
  progress.close(data.checksum, outcome);
  return outcome;
}

Status TcpTransfer::put_round(core::Data& data, const std::string& path,
                              std::optional<std::int64_t> opened, ProgressReport& progress,
                              core::Locator* locator_out) {
  const Expected<std::int64_t> start =
      opened.has_value()
          ? Expected<std::int64_t>(*opened)
          : await_reply<std::int64_t>(bus_, pump_, [&](api::Reply<Expected<std::int64_t>> done) {
              bus_.dr_put_start(data, std::move(done));
            });
  if (!start.ok()) return Status(start.error());
  std::int64_t offset = *start;
  if (offset > 0) ++stats_.resumes;

  const rpc::Fd in{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
  struct stat before{};
  if (!in.valid() || ::fstat(in.get(), &before) != 0) {
    return Error{Errc::kInvalidArgument, "tcp", "cannot open " + path};
  }
  const auto changed = [&path](const char* how) {
    return Error{Errc::kUnavailable, "tcp", path + " changed while uploading (" + how + ")"};
  };

  // A pending descriptor is hashed as it is sent: a helper thread re-reads
  // the resumed prefix from the file, then takes each chunk once it is in
  // flight, so the hash overlaps the sending.
  const bool pending = data.checksum.empty();
  std::optional<HashThread> hasher;
  if (pending) {
    if (before.st_size != data.size) return changed("size");
    hasher.emplace(in.get(), offset);
  }
  {
    // One chunk in flight, so the repository sees offsets in order, plus a
    // paced dt_monitor and a spare slot for a monitor reply still out.
    const DepthScope depth(bus_, kPutDepth);
    std::string chunk;
    while (offset < data.size) {
      const std::int64_t want = std::min(config_.chunk_bytes, data.size - offset);
      chunk.resize(static_cast<std::size_t>(want));
      if (!read_exact(in.get(), chunk, offset)) return changed("short read");
      const ReplySlot<api::Unit> reply = issue_call<api::Unit>([&](api::Reply<Status> done) {
        bus_.dr_put_chunk(data.uid, offset, chunk, std::move(done));
      });
      if (hasher.has_value()) hasher->push(std::move(chunk));
      const Status sent = wait_reply(bus_, pump_, reply);
      if (!sent.ok()) return sent;
      offset += want;
      stats_.bytes_sent += want;
      ++stats_.chunks_sent;
      progress.update(offset);
    }
  }

  if (pending) {
    // The digest covers the bytes read; they are the file's only if it
    // kept its size and mtime until the last read.
    const std::string digest = hasher->finish();
    struct stat after{};
    if (::fstat(in.get(), &after) != 0 || after.st_size != before.st_size ||
        after.st_mtim.tv_sec != before.st_mtim.tv_sec ||
        after.st_mtim.tv_nsec != before.st_mtim.tv_nsec) {
      return changed("size or mtime");
    }
    // From here on the descriptor is complete: a later round resumes the
    // sealed stage, or seals it, without hashing again.
    data.checksum = digest;
    const Expected<std::int64_t> sealed =
        await_reply<std::int64_t>(bus_, pump_, [&](api::Reply<Expected<std::int64_t>> done) {
          bus_.dr_put_start(data, std::move(done));
        });
    if (!sealed.ok()) return Status(sealed.error());
  }

  const Expected<core::Locator> committed =
      await_reply<core::Locator>(bus_, pump_, [&](api::Reply<Expected<core::Locator>> done) {
        bus_.dr_put_commit(data.uid, kTcpProtocol, std::move(done));
      });
  if (!committed.ok()) return Status(committed.error());
  *locator_out = *committed;
  return ok_status();
}

// --- download -----------------------------------------------------------------

Status TcpTransfer::get_file(const core::Data& data, const std::string& path) {
  if (data.checksum.empty() || data.size < 0) {
    return Error{Errc::kInvalidArgument, "tcp",
                 "datum " + data.uid.str() + " has no content descriptor to verify against"};
  }
  ProgressReport progress(
      bus_, config_.track_ticket
                ? open_ticket(bus_, pump_, data, "dr", config_.local_name, kTcpProtocol)
                : 0);
  Status outcome = ok_status();
  for (int attempt = 0; attempt < config_.max_attempts; ++attempt) {
    if (attempt > 0) ++stats_.retries;
    outcome = get_round(data, path, progress);
    if (!retryable(outcome)) break;
  }
  progress.close(data.checksum, outcome);
  return outcome;
}

Status TcpTransfer::get_round(const core::Data& data, const std::string& path,
                              ProgressReport& progress) {
  Expected<std::unique_ptr<PartFile>> opened = PartFile::open(path, data.size, "tcp");
  if (!opened.ok()) return Status(opened.error());
  PartFile& part = **opened;
  if (part.resumed()) ++stats_.resumes;

  // kGetWindow reads ride the wire while the oldest is written and handed
  // to the sink's hash thread. Reads are idempotent, so they may overlap;
  // uploads stay strictly sequential (the repository's stage offset is
  // stateful). The +1 leaves room for a paced dt_monitor: at depth ==
  // window it would complete the oldest fetch before it is waited on.
  const DepthScope depth(bus_, static_cast<int>(kGetWindow) + 1);
  BusChunkSource source(bus_, pump_);
  std::deque<ChunkFetch> window;
  std::int64_t issued = part.offset();
  while (part.offset() < data.size) {
    for (; window.size() < kGetWindow && issued < data.size; issued += config_.chunk_bytes) {
      window.push_back(
          source.fetch(data.uid, issued, std::min(config_.chunk_bytes, data.size - issued)));
    }
    Expected<std::string> chunk = window.front().wait();
    window.pop_front();
    if (!chunk.ok()) return Status(chunk.error());
    // Later fetches assume full chunks: a short one must never be written
    // where the next chunk belongs.
    const auto got = static_cast<std::int64_t>(chunk->size());
    if (got != std::min(config_.chunk_bytes, data.size - part.offset())) {
      return Error{Errc::kUnavailable, "tcp",
                   "repository holds fewer bytes than the descriptor declares"};
    }
    const Status written = part.append(std::move(*chunk));
    if (!written.ok()) return written;
    stats_.bytes_received += got;
    ++stats_.chunks_received;
    progress.update(part.offset());
  }
  return part.finish(data.checksum);
}

}  // namespace bitdew::transfer
