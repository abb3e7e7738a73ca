// TcpTransfer: the real-byte transfer engine (paper §3.4.2's out-of-band
// data path, deployed for real). It moves file content between a local path
// and the Data Repository through the ServiceBus data-plane endpoints
// (dr_put_start / dr_put_chunk / dr_put_commit / dr_get_chunk):
//
//  * uploads and downloads run in fixed-size chunks (config.chunk_bytes);
//    an upload keeps one chunk in flight, a download kGetWindow chunk
//    fetches, and each raises the bus's pipeline depth for its chunk loop
//    (the caller's depth comes back after);
//  * a dropped connection or daemon restart is survived by resuming at the
//    offset the repository reports (put) or at the length of the on-disk
//    `.part` file (get) — up to config.max_attempts rounds;
//  * content integrity is MD5-verified end to end: the repository checks
//    the assembled upload against the datum's checksum at commit
//    (Errc::kChecksumMismatch). An upload of a pending descriptor (empty
//    checksum) hashes each chunk while it is in flight and seals the stage
//    with the digest before the commit. get_file writes through a PartFile
//    (transfer/part_file.hpp), which hashes every byte of the `.part` on a
//    helper thread while the next chunks cross the wire and verifies the
//    digest before renaming `.part` into place;
//  * each transfer is registered with the Data Transfer service (a ticket,
//    progress via dt_monitor at most once per the DT monitoring period,
//    dt_complete/dt_failure at the end), so the control plane observes the
//    out-of-band transfer exactly as the paper's Fig. 1 describes.
//
// Over RemoteServiceBus the chunks travel as frames on a real TCP
// connection; over Direct/SimServiceBus they land in the in-process
// repository — the engine is backend-agnostic, like everything above the
// bus, and works at any pipeline depth the caller left the bus at.
// Registered in the protocol registry under the name "tcp"
// (kTcpProtocol); see transfer/protocol.hpp for the registry itself.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "api/service_bus.hpp"
#include "core/data.hpp"

namespace bitdew::transfer {

class ProgressReport;

/// Protocol-registry name locators minted by this engine carry.
inline constexpr const char* kTcpProtocol = "tcp";

/// dr_get_chunk fetches a download keeps in flight.
inline constexpr std::size_t kGetWindow = 4;

struct TcpConfig {
  std::int64_t chunk_bytes = 256 * 1024;  ///< clamped to [1, services::kMaxChunkBytes]
  int max_attempts = 3;   ///< (re)connect + resume rounds before giving up
  bool track_ticket = true;  ///< register the transfer with the DT service
  /// Endpoint name this engine reports in DT tickets (workers pass their
  /// host name so the control plane attributes transfers to the node).
  std::string local_name = "local";
};

struct TcpStats {
  std::int64_t bytes_sent = 0;
  std::int64_t bytes_received = 0;
  int chunks_sent = 0;
  int chunks_received = 0;
  int resumes = 0;  ///< attempts that continued from a non-zero offset
  int retries = 0;  ///< transport-failure rounds that triggered a re-attempt
};

class TcpTransfer {
 public:
  /// `pump` advances the underlying engine while waiting for a reply (one
  /// simulator step); null means the bus's own pump(), which completes a
  /// pipelined RemoteServiceBus call and has nothing to do on Direct.
  using Pump = std::function<bool()>;

  explicit TcpTransfer(api::ServiceBus& bus, TcpConfig config = {}, Pump pump = nullptr);

  /// Uploads the file at `path` as the content of `data`. The data's
  /// checksum/size must match the file (it is the commit reference):
  /// hashes `path` and fails kInvalidArgument on a mismatch, then upload()s.
  api::Status put_file(const core::Data& data, const std::string& path);

  /// Uploads the file at `path` as the content of `data` without hashing it
  /// first, and publishes the minted locator in the Data Catalog.
  ///  * A checksummed `data` is put_file() after its descriptor check, for a
  ///    caller that has just hashed `path` and matched it itself. The
  ///    repository still verifies the bytes at commit, so a file changed
  ///    since fails kChecksumMismatch (or kUnavailable if it shrank).
  ///  * A pending `data` (empty checksum, registered so in the catalog) is
  ///    hashed while it is sent: the resumed prefix from the file, then
  ///    each chunk while it is in flight. A file whose fstat size or mtime
  ///    moved meanwhile fails kUnavailable unsealed. Otherwise the digest
  ///    seals the stage and, after the commit, completes the catalog row;
  ///    `data.checksum` receives it.
  /// `opened` is the offset a dr_put_start the caller has just issued for
  /// `data` returned: the first round continues there instead of asking.
  api::Status upload(core::Data& data, const std::string& path,
                     std::optional<std::int64_t> opened = std::nullopt);

  /// Downloads the content of `data` into `path` (staged via `path`.part,
  /// renamed only after MD5 verification against data.checksum). A chunk
  /// shorter than requested before the end fails kUnavailable.
  api::Status get_file(const core::Data& data, const std::string& path);

  const TcpStats& stats() const { return stats_; }
  const TcpConfig& config() const { return config_; }

 private:
  api::Status put_round(core::Data& data, const std::string& path,
                        std::optional<std::int64_t> opened, ProgressReport& progress,
                        core::Locator* locator_out);
  api::Status get_round(const core::Data& data, const std::string& path,
                        ProgressReport& progress);

  api::ServiceBus& bus_;
  TcpConfig config_;
  Pump pump_;
  TcpStats stats_;
};

}  // namespace bitdew::transfer
