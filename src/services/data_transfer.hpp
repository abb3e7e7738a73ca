// Data Transfer (DT): launches out-of-band transfers and ensures their
// reliability (paper §3.4.2). Receiver-driven: the receiver registers a
// ticket, reports progress through periodic monitor() polls, and the
// completion is verified against the expected MD5 before the ticket is
// marked Done. Failed transfers carry resume offsets so protocols with
// REST/Range support continue instead of restarting.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/data.hpp"
#include "db/database.hpp"
#include "util/clock.hpp"

namespace bitdew::services {

using TicketId = std::uint64_t;

/// The DT service's monitoring period: a transfer reports its progress
/// (monitor()) at most this often — the 500 ms of the paper's overhead
/// experiment.
inline constexpr double kMonitorPeriodS = 0.5;

enum class TransferState { kActive, kDone, kFailed };

struct Ticket {
  TicketId id = 0;
  util::Auid data_uid;
  std::string source;
  std::string destination;
  std::string protocol;
  std::int64_t total_bytes = 0;
  std::int64_t done_bytes = 0;
  int attempts = 1;
  TransferState state = TransferState::kActive;
  double created_at = 0;
  double last_monitored_at = 0;
};

struct TransferStats {
  std::uint64_t registered = 0;
  std::uint64_t monitor_polls = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t checksum_rejects = 0;
  std::uint64_t resumes = 0;
};

class DataTransfer {
 public:
  DataTransfer(db::Database& database, const util::Clock& clock);

  /// Registers a new transfer; returns its ticket.
  TicketId register_transfer(const core::Data& data, const std::string& source,
                             const std::string& destination, const std::string& protocol);

  /// Receiver-driven progress poll; also refreshes the monitoring timestamp
  /// (one poll per kMonitorPeriodS).
  void monitor(TicketId id, std::int64_t done_bytes);

  /// Receiver reports completion with the checksum of what it received.
  /// Returns true when the checksum matches the expected one; otherwise the
  /// ticket stays active (attempt count bumped) for a retry.
  bool complete(TicketId id, const std::string& received_checksum,
                const std::string& expected_checksum);

  /// Receiver reports a failed attempt; `bytes_held` credits resume offset.
  /// The ticket stays active for a retry until give_up() is called.
  void report_failure(TicketId id, std::int64_t bytes_held, bool can_resume);

  /// Abandons the transfer.
  void give_up(TicketId id);

  std::optional<Ticket> ticket(TicketId id) const;
  std::size_t active_count() const;
  const TransferStats& stats() const { return stats_; }

 private:
  void write_back(const Ticket& ticket);
  std::optional<db::RowId> row_of(TicketId id) const;

  db::Database& database_;
  const util::Clock& clock_;
  TicketId next_id_ = 1;
  TransferStats stats_;
};

}  // namespace bitdew::services
