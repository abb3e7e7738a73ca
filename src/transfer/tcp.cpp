#include "transfer/tcp.hpp"

#include <algorithm>
#include <deque>
#include <fstream>
#include <memory>

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
  return upload(data, path);
}

Status TcpTransfer::upload(const core::Data& data, const std::string& path) {
  ProgressReport progress(
      bus_, config_.track_ticket
                ? open_ticket(bus_, pump_, data, config_.local_name, "dr", kTcpProtocol)
                : 0);
  core::Locator locator;
  Status outcome = ok_status();
  for (int attempt = 0; attempt < config_.max_attempts; ++attempt) {
    if (attempt > 0) ++stats_.retries;
    outcome = put_round(data, path, progress, &locator);
    if (!retryable(outcome)) break;
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

Status TcpTransfer::put_round(const core::Data& data, const std::string& path,
                              ProgressReport& progress, core::Locator* locator_out) {
  const Expected<std::int64_t> start =
      await_reply<std::int64_t>(bus_, pump_, [&](api::Reply<Expected<std::int64_t>> done) {
        bus_.dr_put_start(data, std::move(done));
      });
  if (!start.ok()) return Status(start.error());
  std::int64_t offset = *start;
  if (offset > 0) ++stats_.resumes;

  std::ifstream in(path, std::ios::binary);
  if (!in) return Error{Errc::kInvalidArgument, "tcp", "cannot open " + path};
  in.seekg(offset);

  std::string buffer;
  while (offset < data.size) {
    const std::int64_t want = std::min(config_.chunk_bytes, data.size - offset);
    buffer.resize(static_cast<std::size_t>(want));
    in.read(buffer.data(), want);
    if (in.gcount() != want) {
      return Error{Errc::kUnavailable, "tcp", path + " changed while uploading (short read)"};
    }
    const Status sent = await_reply<api::Unit>(bus_, pump_, [&](api::Reply<Status> done) {
      bus_.dr_put_chunk(data.uid, offset, buffer, std::move(done));
    });
    if (!sent.ok()) return sent;
    offset += want;
    stats_.bytes_sent += want;
    ++stats_.chunks_sent;
    progress.update(offset);
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
