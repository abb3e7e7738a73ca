// PeerTransfer: the multi-source download engine of the peer data plane
// (paper §4.2 / Fig. 3a+5 — collective distribution keeps completion time
// flat while every-node-pulls-from-the-repository scales linearly).
//
// A download order for a "p2p" datum arrives with peer locators: live
// workers whose chunk servers (rpc/chunk_server.hpp) hold an MD5-verified
// replica. This engine fetches the file in fixed-size chunks, striping
// consecutive chunk ranges round-robin across every live peer so the load
// spreads over the swarm:
//
//  * a peer that fails (connection refused, deadline, typed error,
//    malformed reply) is dropped from the stripe and its chunk is refetched
//    from the remaining peers;
//  * when no peer can serve a chunk, the central Data Repository
//    (dr_get_chunk over the ServiceBus) is the fallback — the repository is
//    always a correct source, peers are an optimization;
//  * a dropped repository connection resumes at the `.part` offset exactly
//    like transfer::TcpTransfer, up to config.max_attempts rounds (dropped
//    peers are given another chance each round — they may have restarted);
//  * the final whole-file MD5 verify is unchanged: chunks go through the
//    same PartFile sink as TcpTransfer's, which hashes every byte of
//    `.part` on a helper thread (overlapping the next fetch) and compares
//    the digest against the datum's registered checksum before `.part` is
//    renamed into place, so a corrupt or malicious peer can cost retries
//    but never poison a cache.
//
// Registered in the live protocol registry under "p2p" (kPeerProtocol);
// the scheduler only attaches peer locators to data whose oob attribute
// names it.
#pragma once

#include <string>
#include <vector>

#include "api/service_bus.hpp"
#include "core/data.hpp"
#include "core/locator.hpp"

namespace bitdew::transfer {

class ProgressReport;

/// Protocol-registry name; matches services::kPeerLocatorProtocol.
inline constexpr const char* kPeerProtocol = "p2p";

struct PeerConfig {
  std::int64_t chunk_bytes = 256 * 1024;  ///< clamped to [1, services::kMaxChunkBytes]
  int max_attempts = 3;       ///< resume rounds before giving up
  bool track_ticket = true;   ///< register the transfer with the DT service
  std::string local_name = "local";  ///< endpoint name reported in DT tickets
  double peer_connect_timeout_s = 2.0;  ///< per-peer TCP connect budget
  double peer_call_deadline_s = 10.0;   ///< per-chunk reply budget (slow-peer cutoff)
};

struct PeerStats {
  std::int64_t bytes_from_peers = 0;
  std::int64_t bytes_from_repository = 0;
  int chunks_from_peers = 0;
  int chunks_from_repository = 0;
  int peers_dropped = 0;  ///< peer failures that removed a source from the stripe
  int resumes = 0;        ///< rounds that continued from a non-zero offset
  int retries = 0;        ///< repository-failure rounds that re-attempted
};

class PeerTransfer {
 public:
  /// `bus` reaches the central repository (chunk fallback) and the DT
  /// service; peers are dialed directly from the locators.
  explicit PeerTransfer(api::ServiceBus& bus, PeerConfig config = {});

  /// Downloads the content of `data` into `path` (staged via `path`.part,
  /// renamed only after MD5 verification). `sources` are "p2p" locators
  /// whose host field is a chunk-server "host:port"; other locators are
  /// ignored. With no usable source the whole file comes from the
  /// repository.
  api::Status get_file(const core::Data& data, const std::string& path,
                       const std::vector<core::Locator>& sources);

  const PeerStats& stats() const { return stats_; }
  const PeerConfig& config() const { return config_; }

 private:
  struct Source;

  api::Status get_round(const core::Data& data, const std::string& path,
                        std::vector<Source>& peers, ProgressReport& progress);

  api::ServiceBus& bus_;
  PeerConfig config_;
  PeerStats stats_;
};

}  // namespace bitdew::transfer
