// ProgressReport: a transfer's dt_monitor reports to the Data Transfer
// service, paced to the DT monitoring period (services::kMonitorPeriodS)
// rather than sent once per chunk, and the ticket's closing report. Over a
// synchronous bus every report is a control round trip; at the paper's
// 500 ms a 64 MiB transfer sends none or one instead of 256.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "api/service_bus.hpp"
#include "services/data_transfer.hpp"

namespace bitdew::transfer {

class ProgressReport {
 public:
  /// Ticket 0 (an untracked transfer) reports nothing. The first report is
  /// due one period after construction, like the DT service's first poll.
  ProgressReport(api::ServiceBus& bus, services::TicketId ticket)
      : bus_(bus), ticket_(ticket), due_(Clock::now() + kPeriod) {}

  /// Sends `done_bytes` if a period has passed since the last report. Fire
  /// and forget: the data path must not depend on control-plane health.
  void update(std::int64_t done_bytes) {
    if (ticket_ == 0) return;
    const Clock::time_point now = Clock::now();
    if (now < due_) return;
    due_ = now + kPeriod;
    bus_.dt_monitor(ticket_, done_bytes, [](api::Status) {});
  }

  /// Closes the ticket with the transfer's outcome: dt_complete on success
  /// and on an integrity reject (which the DT service counts), dt_failure
  /// otherwise. Fire and forget, like update().
  void close(const std::string& checksum, const api::Status& outcome) {
    if (ticket_ == 0) return;
    if (outcome.ok()) {
      bus_.dt_complete(ticket_, checksum, checksum, [](api::Status) {});
    } else if (outcome.error().code == api::Errc::kChecksumMismatch) {
      bus_.dt_complete(ticket_, "(corrupt)", checksum, [](api::Status) {});
    } else {
      bus_.dt_failure(ticket_, 0, /*can_resume=*/true, [](api::Status) {});
    }
  }

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr auto kPeriod = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(services::kMonitorPeriodS));

  api::ServiceBus& bus_;
  services::TicketId ticket_;
  Clock::time_point due_;
};

}  // namespace bitdew::transfer
