// ChunkSource: the one read API every transfer engine fetches content
// through. A source answers "bytes [offset, offset+max_bytes) of datum X"
// — whether those bytes come from the central Data Repository over a
// ServiceBus (dr_get_chunk) or straight from a worker's chunk server over
// a raw ClientChannel (kDrGetChunk frames) is the source's business, not
// the engine's.
//
// The API is async-friendly: fetch() puts the request in flight and
// returns a ChunkFetch future immediately; wait() blocks (pumping the
// underlying engine) only when the bytes are actually needed. That lets an
// engine keep a window of fetches open — TcpTransfer issues kGetWindow
// chunks ahead over a bus it has pipelined — so the next chunks are
// already crossing the wire while the current one is written and hashed.
//
// Failure taxonomy, uniform across sources:
//  * Errc::kTransport  — connection refused/dropped, deadline, malformed
//                        reply (the source's channel is closed for a clean
//                        reconnect on the next call);
//  * Errc::kUnavailable — the engine underneath stalled (no pump could
//                        resolve the wait);
//  * any typed service error travels through unchanged;
//  * ok with EMPTY bytes — the source no longer holds the datum at that
//    offset (engines treat this as "rotate to another source").
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "api/service_bus.hpp"
#include "rpc/transport.hpp"
#include "util/auid.hpp"

namespace bitdew::transfer {

/// One chunk request in flight. wait() consumes the future; a
/// default-constructed fetch is invalid (wait() fails typed). Dropping a
/// ChunkFetch without waiting abandons the reply — safe, the bytes are
/// simply discarded when they arrive.
class ChunkFetch {
 public:
  ChunkFetch() = default;
  explicit ChunkFetch(std::function<api::Expected<std::string>()> wait)
      : wait_(std::move(wait)) {}
  ChunkFetch(ChunkFetch&& other) noexcept : wait_(std::move(other.wait_)) {
    other.wait_ = nullptr;  // a moved-from fetch reads as invalid, not unspecified
  }
  ChunkFetch& operator=(ChunkFetch&& other) noexcept {
    wait_ = std::move(other.wait_);
    other.wait_ = nullptr;
    return *this;
  }

  bool valid() const { return static_cast<bool>(wait_); }

  /// Blocks until the bytes (or the failure) arrive; consumes the future.
  api::Expected<std::string> wait() {
    if (!wait_) {
      return api::Error{api::Errc::kTransport, "chunk", "wait on an empty chunk fetch"};
    }
    auto fn = std::move(wait_);
    wait_ = nullptr;
    return fn();
  }

 private:
  std::function<api::Expected<std::string>()> wait_;
};

/// The single read API TcpTransfer and PeerTransfer share.
class ChunkSource {
 public:
  virtual ~ChunkSource() = default;

  /// Issues the read and returns immediately; the future resolves to the
  /// bytes at [offset, offset + max_bytes) — short only at end of content.
  virtual ChunkFetch fetch(const util::Auid& uid, std::int64_t offset,
                           std::int64_t max_bytes) = 0;

  /// Human-readable name for logs/stats ("dr", a peer's host name).
  virtual std::string label() const = 0;
};

/// The central repository through a ServiceBus (dr_get_chunk). `pump`
/// advances the engine while a fetch waits (a simulator step); null means
/// the bus's own pump(), which completes pipelined calls. A wait that no
/// pump can resolve fails kUnavailable instead of hanging.
class BusChunkSource final : public ChunkSource {
 public:
  using Pump = std::function<bool()>;
  explicit BusChunkSource(api::ServiceBus& bus, Pump pump = nullptr)
      : bus_(bus), pump_(std::move(pump)) {}

  ChunkFetch fetch(const util::Auid& uid, std::int64_t offset,
                   std::int64_t max_bytes) override;
  std::string label() const override { return "dr"; }

 private:
  api::ServiceBus& bus_;
  Pump pump_;
};

/// A worker's chunk server over a raw ClientChannel: kDrGetChunk frames,
/// demuxed by request id, so several fetches can ride the one connection.
/// A malformed reply closes the channel (clean reconnect) and surfaces
/// kTransport. The channel must outlive the source and its fetches.
class PeerChunkSource final : public ChunkSource {
 public:
  PeerChunkSource(rpc::ClientChannel& channel, std::string label)
      : channel_(channel), label_(std::move(label)) {}

  ChunkFetch fetch(const util::Auid& uid, std::int64_t offset,
                   std::int64_t max_bytes) override;
  std::string label() const override { return label_; }

 private:
  rpc::ClientChannel& channel_;
  std::string label_;
};

}  // namespace bitdew::transfer
