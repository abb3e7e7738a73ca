#include "transfer/peer.hpp"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>

#include "rpc/transport.hpp"
#include "services/data_repository.hpp"
#include "transfer/chunk_source.hpp"
#include "transfer/part_file.hpp"
#include "transfer/progress.hpp"
#include "util/log.hpp"

namespace bitdew::transfer {
namespace {

using api::Errc;
using api::Error;
using api::Expected;
using api::ok_status;
using api::Status;

const util::Logger& logger() {
  static const util::Logger instance("p2p");
  return instance;
}

bool retryable(const Status& status) {
  // Repository-side failures that another round can survive: kTransport is
  // a dropped daemon connection (reconnect + resume), kRejected an offset
  // desync. Peer failures never surface here — they only rotate the stripe.
  return !status.ok() &&
         (status.error().code == Errc::kTransport || status.error().code == Errc::kRejected);
}

/// Splits a locator's "host:port" endpoint. Nullopt on garbage — a
/// malformed locator is skipped, not fatal.
std::optional<std::pair<std::string, std::uint16_t>> parse_endpoint(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0) return std::nullopt;
  const int port = std::atoi(text.c_str() + colon + 1);
  if (port <= 0 || port > 65535) return std::nullopt;
  return std::make_pair(text.substr(0, colon), static_cast<std::uint16_t>(port));
}

}  // namespace

/// One live peer in the stripe: a lazily-connected channel speaking
/// kDrGetChunk frames at a worker's chunk server, read through the same
/// ChunkSource API as the repository fallback.
struct PeerTransfer::Source {
  std::string label;  ///< serving host's name (locator path), for logs
  std::unique_ptr<rpc::ClientChannel> channel;
  std::unique_ptr<PeerChunkSource> source;  ///< reads over `channel`
  bool dead = false;
};

PeerTransfer::PeerTransfer(api::ServiceBus& bus, PeerConfig config)
    : bus_(bus), config_(config) {
  config_.chunk_bytes = std::clamp<std::int64_t>(config_.chunk_bytes, 1, services::kMaxChunkBytes);
  config_.max_attempts = std::max(config_.max_attempts, 1);
}

Status PeerTransfer::get_file(const core::Data& data, const std::string& path,
                              const std::vector<core::Locator>& sources) {
  if (data.checksum.empty() || data.size < 0) {
    return Error{Errc::kInvalidArgument, "p2p",
                 "datum " + data.uid.str() + " has no content descriptor to verify against"};
  }

  std::vector<Source> peers;
  for (const core::Locator& locator : sources) {
    if (locator.protocol != kPeerProtocol || locator.data_uid != data.uid) continue;
    const auto endpoint = parse_endpoint(locator.host);
    if (!endpoint.has_value()) continue;
    Source source;
    source.label = locator.path.empty() ? locator.host : locator.path;
    source.channel = std::make_unique<rpc::ClientChannel>(
        endpoint->first, endpoint->second, config_.peer_connect_timeout_s,
        config_.peer_call_deadline_s);
    source.source = std::make_unique<PeerChunkSource>(*source.channel, source.label);
    peers.push_back(std::move(source));
  }

  ProgressReport progress(
      bus_, config_.track_ticket ? open_ticket(bus_, nullptr, data, peers.empty() ? "dr" : "peers",
                                               config_.local_name, kPeerProtocol)
                                 : 0);
  Status outcome = ok_status();
  for (int attempt = 0; attempt < config_.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++stats_.retries;
      // A dropped peer may have been a restarting worker: give every source
      // another chance this round (its channel reconnects on the next call).
      for (Source& peer : peers) peer.dead = false;
    }
    outcome = get_round(data, path, peers, progress);
    if (!retryable(outcome)) break;
  }

  progress.close(data.checksum, outcome);
  return outcome;
}

Status PeerTransfer::get_round(const core::Data& data, const std::string& path,
                               std::vector<Source>& peers, ProgressReport& progress) {
  Expected<std::unique_ptr<PartFile>> opened = PartFile::open(path, data.size, "p2p");
  if (!opened.ok()) return Status(opened.error());
  PartFile& part = **opened;
  if (part.resumed()) ++stats_.resumes;

  // The fallback source, waited on through the bus's own pump.
  BusChunkSource repository(bus_);

  // Start the stripe at a name-dependent slot so concurrent downloaders
  // spread across the swarm instead of all hammering the first peer.
  std::size_t stripe = peers.empty()
                           ? 0
                           : std::hash<std::string>{}(config_.local_name) % peers.size();
  std::int64_t chunk_index = part.offset() / config_.chunk_bytes;

  while (part.offset() < data.size) {
    const std::int64_t offset = part.offset();
    const std::int64_t want = std::min(config_.chunk_bytes, data.size - offset);
    std::optional<std::string> chunk;

    // --- the stripe: consecutive chunks rotate across live peers ----------
    // Peers and the repository answer through the same ChunkSource API; a
    // peer failure (refused, deadline, typed error, garbage — the source
    // maps them all to an error or empty bytes) rotates the stripe.
    for (std::size_t tried = 0; tried < peers.size() && !chunk.has_value(); ++tried) {
      Source& peer = peers[(stripe + chunk_index + tried) % peers.size()];
      if (peer.dead) continue;
      Expected<std::string> bytes = peer.source->fetch(data.uid, offset, want).wait();
      // A verified replica can always serve inside [0, size): an empty
      // or failed reply means the peer no longer holds the datum.
      if (bytes.ok() && !bytes->empty()) {
        chunk = std::move(*bytes);
        break;
      }
      peer.dead = true;
      ++stats_.peers_dropped;
      logger().debug("peer %s dropped from the stripe for %s", peer.label.c_str(),
                     data.name.c_str());
    }

    bool from_peer = chunk.has_value();
    if (!from_peer) {
      // --- repository fallback: always a correct source --------------------
      Expected<std::string> bytes = repository.fetch(data.uid, offset, want).wait();
      if (!bytes.ok()) return Status(bytes.error());
      if (bytes->empty()) {
        return Error{Errc::kUnavailable, "p2p",
                     "repository holds fewer bytes than the descriptor declares"};
      }
      chunk = std::move(*bytes);
    }

    const auto got = static_cast<std::int64_t>(chunk->size());
    const Status written = part.append(std::move(*chunk));
    if (!written.ok()) return written;
    ++chunk_index;
    if (from_peer) {
      stats_.bytes_from_peers += got;
      ++stats_.chunks_from_peers;
    } else {
      stats_.bytes_from_repository += got;
      ++stats_.chunks_from_repository;
    }
    progress.update(part.offset());
  }
  return part.finish(data.checksum);
}

}  // namespace bitdew::transfer
