// A transfer's ticket with the Data Transfer service: open_ticket()
// registers it, and ProgressReport sends its dt_monitor reports, paced to
// the DT monitoring period (services::kMonitorPeriodS) rather than sent
// once per chunk, and its closing report. Over a synchronous bus every
// report is a control round trip; at the paper's 500 ms a 64 MiB transfer
// sends none or one instead of 256.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "api/service_bus.hpp"
#include "core/data.hpp"
#include "services/data_transfer.hpp"

namespace bitdew::transfer {

/// Advances the engine while a transfer waits for a reply (one simulator
/// step); null means the bus's own pump(), which completes a pipelined
/// RemoteServiceBus call and has nothing to do on Direct.
using Pump = std::function<bool()>;

/// Where the reply of one issued bus call lands.
template <typename T>
using ReplySlot = std::shared_ptr<std::optional<api::Expected<T>>>;

/// The issue half of a bus call: puts it in flight and returns the slot its
/// reply lands in (already filled on a synchronous bus).
template <typename T>
ReplySlot<T> issue_call(const std::function<void(api::Reply<api::Expected<T>>)>& issue) {
  auto slot = std::make_shared<std::optional<api::Expected<T>>>();
  issue([slot](api::Expected<T> value) { *slot = std::move(value); });
  return slot;
}

/// The wait half: pumps until the reply is in the slot; kUnavailable when
/// nothing can make progress.
template <typename T>
api::Expected<T> wait_reply(api::ServiceBus& bus, const Pump& pump, const ReplySlot<T>& slot) {
  while (!slot->has_value()) {
    if (!(pump ? pump() : bus.pump())) {
      return api::Error{api::Errc::kUnavailable, "transfer", "stalled waiting for a reply"};
    }
  }
  return std::move(**slot);
}

/// Issues one bus call and waits for its reply.
template <typename T>
api::Expected<T> await_reply(api::ServiceBus& bus, const Pump& pump,
                             const std::function<void(api::Reply<api::Expected<T>>)>& issue) {
  return wait_reply(bus, pump, issue_call<T>(issue));
}

/// Registers a transfer of `data` from `source` to `destination` with the
/// DT service and returns its ticket. Waits for the reply through `pump`,
/// so a pipelined bus cannot defer the registration past the transfer. 0
/// (untracked) on any failure: the data path must not depend on
/// control-plane health.
inline services::TicketId open_ticket(api::ServiceBus& bus, const Pump& pump,
                                      const core::Data& data, const std::string& source,
                                      const std::string& destination,
                                      const std::string& protocol) {
  const api::Expected<services::TicketId> ticket = await_reply<services::TicketId>(
      bus, pump, [&](api::Reply<api::Expected<services::TicketId>> done) {
        bus.dt_register(data, source, destination, protocol, std::move(done));
      });
  return ticket.ok() ? *ticket : 0;
}

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
