#include "transfer/tcp.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>

#include "services/data_repository.hpp"
#include "transfer/chunk_source.hpp"
#include "transfer/progress.hpp"
#include "util/md5.hpp"

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

}  // namespace

TcpTransfer::TcpTransfer(api::ServiceBus& bus, TcpConfig config, Pump pump)
    : bus_(bus), config_(config), pump_(std::move(pump)) {
  config_.chunk_bytes = std::clamp<std::int64_t>(config_.chunk_bytes, 1, services::kMaxChunkBytes);
  config_.max_attempts = std::max(config_.max_attempts, 1);
}

template <typename T>
Expected<T> TcpTransfer::wait(std::function<void(api::Reply<Expected<T>>)> issue) {
  auto slot = std::make_shared<std::optional<Expected<T>>>();
  issue([slot](Expected<T> value) { *slot = std::move(value); });
  while (!slot->has_value()) {
    if (!pump_ || !pump_()) {
      return Error{Errc::kUnavailable, "tcp", "stalled waiting for a data-plane reply"};
    }
  }
  return std::move(**slot);
}

// --- DT-service bookkeeping ---------------------------------------------------

services::TicketId TcpTransfer::open_ticket(const core::Data& data, bool upload) {
  if (!config_.track_ticket) return 0;
  auto ticket = wait<services::TicketId>([&](api::Reply<Expected<services::TicketId>> done) {
    bus_.dt_register(data, upload ? config_.local_name : "dr",
                     upload ? "dr" : config_.local_name, kTcpProtocol, std::move(done));
  });
  return ticket.ok() ? *ticket : 0;
}

void TcpTransfer::close_ticket(services::TicketId ticket, const core::Data& data,
                               const Status& outcome) {
  if (ticket == 0) return;
  if (outcome.ok()) {
    bus_.dt_complete(ticket, data.checksum, data.checksum, [](Status) {});
  } else if (outcome.error().code == Errc::kChecksumMismatch) {
    // Let the DT service register the integrity reject in its stats.
    bus_.dt_complete(ticket, "(corrupt)", data.checksum, [](Status) {});
  } else {
    bus_.dt_failure(ticket, 0, /*can_resume=*/true, [](Status) {});
  }
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
  const services::TicketId ticket = open_ticket(data, /*upload=*/true);
  ProgressReport progress(bus_, ticket);
  core::Locator locator;
  Status outcome = ok_status();
  for (int attempt = 0; attempt < config_.max_attempts; ++attempt) {
    if (attempt > 0) ++stats_.retries;
    outcome = put_round(data, path, progress, &locator);
    if (!retryable(outcome)) break;
  }

  if (outcome.ok()) {
    // Publish the minted locator so readers can find this replica.
    outcome = wait<api::Unit>([&](api::Reply<Status> done) {
      bus_.dc_add_locator(locator, std::move(done));
    });
  }
  close_ticket(ticket, data, outcome);
  return outcome;
}

Status TcpTransfer::put_round(const core::Data& data, const std::string& path,
                              ProgressReport& progress, core::Locator* locator_out) {
  const Expected<std::int64_t> start = wait<std::int64_t>(
      [&](api::Reply<Expected<std::int64_t>> done) { bus_.dr_put_start(data, std::move(done)); });
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
    const Status sent = wait<api::Unit>([&](api::Reply<Status> done) {
      bus_.dr_put_chunk(data.uid, offset, buffer, std::move(done));
    });
    if (!sent.ok()) return sent;
    offset += want;
    stats_.bytes_sent += want;
    ++stats_.chunks_sent;
    progress.update(offset);
  }

  const Expected<core::Locator> committed =
      wait<core::Locator>([&](api::Reply<Expected<core::Locator>> done) {
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
  const std::string part = path + ".part";
  const services::TicketId ticket = open_ticket(data, /*upload=*/false);
  ProgressReport progress(bus_, ticket);
  Status outcome = ok_status();
  for (int attempt = 0; attempt < config_.max_attempts; ++attempt) {
    if (attempt > 0) ++stats_.retries;
    outcome = get_round(data, part, progress);
    if (!retryable(outcome)) break;
  }
  if (outcome.ok()) {
    std::error_code ec;
    std::filesystem::rename(part, path, ec);
    if (ec) outcome = Error{Errc::kUnavailable, "tcp", "cannot move " + part + ": " + ec.message()};
  }
  close_ticket(ticket, data, outcome);
  return outcome;
}

Status TcpTransfer::get_round(const core::Data& data, const std::string& part,
                              ProgressReport& progress) {
  // Resume from whatever prefix of the .part file survived, re-hashing it
  // so the final MD5 covers every byte on disk, not just this round's.
  std::int64_t offset = 0;
  util::Md5 hasher;
  std::error_code ec;
  if (std::filesystem::exists(part, ec)) {
    const std::int64_t held = static_cast<std::int64_t>(std::filesystem::file_size(part, ec));
    if (!ec && held > 0 && held <= data.size) {
      std::ifstream existing(part, std::ios::binary);
      char buffer[64 * 1024];
      while (existing) {
        existing.read(buffer, sizeof(buffer));
        if (existing.gcount() > 0) hasher.update(buffer, static_cast<std::size_t>(existing.gcount()));
      }
      offset = held;
      ++stats_.resumes;
    } else {
      std::filesystem::remove(part, ec);  // oversized/unreadable partial: restart
    }
  }

  std::ofstream out(part, offset > 0 ? std::ios::binary | std::ios::app : std::ios::binary);
  if (!out) return Error{Errc::kInvalidArgument, "tcp", "cannot write " + part};

  // Chunk N+1 is issued through the shared ChunkSource read API before
  // chunk N is consumed. Over a bus with pipeline depth > 1 (a caller's
  // RemoteServiceBus::set_pipeline_depth; Session leaves it at 1) the next
  // chunk then crosses the wire while this one is hashed and written; at
  // depth 1 the fetch completes before it returns. Reads are idempotent,
  // so in-flight overlap is safe (uploads stay strictly sequential — the
  // repository's stage offset is stateful).
  BusChunkSource source(bus_, pump_);
  ChunkFetch next;
  std::int64_t next_offset = 0;
  const auto issue = [&](std::int64_t at) {
    next = source.fetch(data.uid, at, std::min(config_.chunk_bytes, data.size - at));
    next_offset = at;
  };

  while (offset < data.size) {
    const std::int64_t want = std::min(config_.chunk_bytes, data.size - offset);
    if (!next.valid() || next_offset != offset) issue(offset);
    ChunkFetch current = std::move(next);
    if (offset + want < data.size) issue(offset + want);
    const Expected<std::string> chunk = current.wait();
    if (!chunk.ok()) {
      out.flush();
      return Status(chunk.error());
    }
    if (chunk->empty()) {
      return Error{Errc::kUnavailable, "tcp",
                   "repository holds fewer bytes than the descriptor declares"};
    }
    out.write(chunk->data(), static_cast<std::streamsize>(chunk->size()));
    if (!out.good()) {
      // A full disk must not rename a truncated .part as "verified": the
      // MD5 below covers received bytes, so written bytes must match them.
      return Error{Errc::kUnavailable, "tcp", "short write to " + part};
    }
    hasher.update(*chunk);
    offset += static_cast<std::int64_t>(chunk->size());
    stats_.bytes_received += static_cast<std::int64_t>(chunk->size());
    ++stats_.chunks_received;
    progress.update(offset);
  }
  out.close();
  if (!out.good()) return Error{Errc::kUnavailable, "tcp", "flush failed for " + part};

  if (hasher.finish().hex() != data.checksum) {
    std::filesystem::remove(part, ec);  // poisoned partials must not resume
    return Error{Errc::kChecksumMismatch, "tcp",
                 "downloaded content MD5 differs from the registered checksum of " +
                     data.uid.str()};
  }
  return ok_status();
}

}  // namespace bitdew::transfer
