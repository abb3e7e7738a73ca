#include "api/remote_service_bus.hpp"

#include <chrono>
#include <cstdlib>
#include <optional>
#include <thread>
#include <utility>

namespace bitdew::api {

namespace wire = rpc::wire;
using wire::Endpoint;

namespace {

/// Backoff before re-asking the home member after a redirect target died:
/// long enough for its channel teardown, short next to a stabilize period.
constexpr auto kRedirectRetryBackoff = std::chrono::milliseconds(50);

/// Detects the ring redirect in a reply body without knowing the reply
/// type: the error-status encoding is a uniform prefix of every Expected<T>
/// (success bools leave the payload untouched; short bodies just fail the
/// decode and are not redirects).
std::optional<std::string> redirect_target(const std::string& body) {
  try {
    rpc::Reader r(body);
    const Status status = wire::read_status(r);
    if (!status.ok() && status.error().code == Errc::kRedirect) {
      return status.error().message;
    }
  } catch (const rpc::CodecError&) {
  }
  return std::nullopt;
}

}  // namespace

rpc::ClientChannel* RemoteServiceBus::peer_channel(const std::string& endpoint) {
  const auto cached = peers_.find(endpoint);
  if (cached != peers_.end()) return cached->second.get();
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == endpoint.size()) return nullptr;
  const long port = std::strtol(endpoint.c_str() + colon + 1, nullptr, 10);
  if (port <= 0 || port > 65535) return nullptr;
  if (peers_.size() >= 16) peers_.clear();  // tiny rings in practice; keep it bounded
  auto channel = std::make_unique<rpc::ClientChannel>(
      endpoint.substr(0, colon), static_cast<std::uint16_t>(port), config_.connect_timeout_s,
      config_.call_deadline_s);
  return peers_.emplace(endpoint, std::move(channel)).first->second.get();
}

Expected<std::string> RemoteServiceBus::call_routed(Endpoint endpoint, const std::string& body) {
  ++rpcs_;
  Expected<std::string> reply =
      channel_.call(endpoint, [&body](rpc::Writer& frame) { frame.append_raw(body); });
  return chase_redirects(endpoint, body, std::move(reply));
}

Expected<std::string> RemoteServiceBus::chase_redirects(Endpoint endpoint,
                                                        const std::string& body,
                                                        Expected<std::string> reply) {
  const auto resend = [&](rpc::ClientChannel& channel) {
    ++rpcs_;
    return channel.call(endpoint, [&body](rpc::Writer& frame) { frame.append_raw(body); });
  };
  for (int hop = 0; hop < config_.max_redirects; ++hop) {
    if (!reply.ok()) return reply;  // the home member itself is unreachable
    const std::optional<std::string> target = redirect_target(*reply);
    if (!target) return reply;
    ++redirects_followed_;
    rpc::ClientChannel* peer = peer_channel(*target);
    if (peer == nullptr) return reply;  // malformed target: surface the redirect
    Expected<std::string> peer_reply = resend(*peer);
    if (peer_reply.ok()) {
      reply = std::move(peer_reply);
      continue;  // served, or a further (bounded) redirect
    }
    // The owner we were pointed at is gone (e.g. kill -9 before the ring
    // stabilized). The home member's tables reroute once its suspicion
    // kicks in — back off briefly and ask it again.
    std::this_thread::sleep_for(kRedirectRetryBackoff);
    reply = resend(channel_);
  }
  return reply;
}

void RemoteServiceBus::set_pipeline_depth(int depth) {
  config_.pipeline_depth = depth < 1 ? 1 : depth;
  while (static_cast<int>(deferred_.size()) >= config_.pipeline_depth && pump()) {
  }
}

void RemoteServiceBus::defer(Endpoint endpoint, std::string body,
                             std::function<void(const Expected<std::string>&)> complete) {
  ++rpcs_;
  rpc::ClientChannel::PendingReply pending =
      channel_.send(endpoint, [&body](rpc::Writer& frame) { frame.append_raw(body); });
  deferred_.push_back(Deferred{std::move(pending), endpoint, std::move(body), std::move(complete)});
  while (static_cast<int>(deferred_.size()) >= config_.pipeline_depth && pump()) {
  }
}

bool RemoteServiceBus::pump() {
  if (deferred_.empty()) return false;
  Deferred oldest = std::move(deferred_.front());
  deferred_.pop_front();
  // wait() demuxes by request id: replies for NEWER calls that arrive first
  // are parked in their own futures, so completion order here is FIFO even
  // though the host answers out of order.
  oldest.complete(chase_redirects(oldest.endpoint, oldest.body, oldest.reply.wait()));
  return true;
}

void RemoteServiceBus::drain() {
  while (pump()) {
  }
}

Expected<wire::RingStatusInfo> RemoteServiceBus::ring_info() {
  ++rpcs_;
  return decode<Expected<wire::RingStatusInfo>>(
      Endpoint::kRingInfo, channel_.call(Endpoint::kRingInfo, [](rpc::Writer&) {}));
}

Status RemoteServiceBus::ping() {
  ++rpcs_;
  Expected<std::string> reply = channel_.call(Endpoint::kPing, [](rpc::Writer&) {});
  if (!reply.ok()) return reply.error();
  return ok_status();
}

}  // namespace bitdew::api
