// RemoteServiceBus: the third ServiceBus implementation — every call is a
// framed RPC over a real TCP connection to a ServiceHost (bitdewd). At the
// default pipeline depth of 1 every reply resolves synchronously before the
// call returns, like DirectServiceBus, so the Session facade needs no pump.
// With set_pipeline_depth(N > 1) scalar calls become PIPELINED: up to N
// requests ride in flight on the one connection (the epoll ServiceHost
// executes them concurrently and replies out of order; ClientChannel's
// request-id demux reorders), and the `done` callback fires from a later
// pump()/drain()/wait — exactly the deferred-completion contract
// SimServiceBus already trained every caller against. Socket loss,
// connection refusal, a missed deadline or a malformed reply all surface as
// Errc::kTransport — user code fails typed instead of hanging, and the next
// call transparently reconnects. Batch endpoints are native: one frame
// carries the whole batch, and an empty batch generates no traffic at all.
// Against a ring of bitdewd members (ServiceHost::start_ring) the bus also
// speaks the redirect protocol: any member answers a keyed dc_*/ddc_* call
// either by serving it or with Errc::kRedirect naming the owner, and the
// bus transparently chases a bounded number of redirects through cached
// per-member channels — falling back to the home member (whose tables
// re-resolve after stabilization) when a redirect target has died.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "api/bus_base.hpp"
#include "rpc/transport.hpp"
#include "rpc/wire.hpp"

namespace bitdew::api {

struct RemoteBusConfig {
  double connect_timeout_s = 5.0;  ///< TCP connect budget
  double call_deadline_s = 5.0;    ///< per-request reply deadline
  int max_redirects = 4;           ///< ring redirect-chase budget per call
  /// Max scalar calls in flight on the connection. 1 = synchronous
  /// (callbacks fire before the call returns); > 1 pipelines — callbacks
  /// fire from pump()/drain() or when the window is full. Capped by the
  /// host's max_in_flight_per_connection backpressure on the other side.
  int pipeline_depth = 1;
};

class RemoteServiceBus final : public BusBase<RemoteServiceBus> {
 public:
  RemoteServiceBus(std::string host, std::uint16_t port, RemoteBusConfig config = {})
      : config_(config),
        channel_(std::move(host), port, config.connect_timeout_s, config.call_deadline_s) {}

  /// Liveness probe: one kPing round-trip.
  Status ping();

  /// Membership/health snapshot of the connected ring member (kRingInfo).
  /// Errc::kUnavailable when the host is not a ring member.
  Expected<rpc::wire::RingStatusInfo> ring_info();

  // --- pipelining ------------------------------------------------------------

  /// Changes the in-flight window at runtime (TcpTransfer raises it for
  /// its chunk window). Shrinking below the current in-flight count drains
  /// the excess synchronously.
  void set_pipeline_depth(int depth) override;
  int pipeline_depth() const override { return config_.pipeline_depth; }

  /// Completes the OLDEST outstanding pipelined call (blocking for its
  /// reply if needed) and fires its callback. false when nothing is
  /// outstanding. Session's wait() pumps this.
  bool pump() override;

  /// Completes every outstanding pipelined call. Call before tearing down
  /// request-scoped state the callbacks capture.
  void drain();

  /// Pipelined calls whose callbacks have not fired yet.
  std::size_t in_flight() const { return deferred_.size(); }

  std::uint64_t rpc_count() const { return rpcs_; }
  /// Ring redirects chased across all calls so far.
  std::uint64_t redirects_followed() const { return redirects_followed_; }
  bool connected() const { return channel_.connected(); }

 private:
  friend class BusBase<RemoteServiceBus>;

  /// One pipelined call awaiting its reply. `body` is the encoded request,
  /// kept so a ring redirect can re-send it after the caller's arguments
  /// are gone; `complete` decodes the reply and fires the caller's callback.
  struct Deferred {
    rpc::ClientChannel::PendingReply reply;
    rpc::wire::Endpoint endpoint;
    std::string body;
    std::function<void(const Expected<std::string>&)> complete;
  };

  /// One round-trip for endpoint Op. Scalar calls pipeline at depth > 1 and
  /// chase ring redirects; a batch is one frame, never pipelined or
  /// redirected, an empty batch sends nothing, and a transport failure
  /// fails every item.
  template <typename Op, typename... A>
  void call(Reply<typename Op::Reply> done, const A&... args) {
    using R = typename Op::Reply;
    if constexpr (Op::kBatch) {
      const std::size_t items = call_items<Op>(args...);
      if (items == 0) {
        done({});
        return;
      }
      ++rpcs_;
      done(decode<R>(Op::endpoint,
                     channel_.call(Op::endpoint,
                                   [&](rpc::Writer& w) { rpc::wire::write_fields(w, args...); }),
                     items));
    } else {
      rpc::Writer w;
      rpc::wire::write_fields(w, args...);
      std::string body = w.take();
      if (config_.pipeline_depth <= 1) {
        done(decode<R>(Op::endpoint, call_routed(Op::endpoint, body)));
        return;
      }
      defer(Op::endpoint, std::move(body),
            [this, done = std::move(done)](const Expected<std::string>& reply) {
              done(decode<R>(Op::endpoint, reply));
            });
    }
  }

  /// The reply body as R. A transport failure becomes R's kTransport error
  /// (one per item for a batch); a body that fails to decode also closes
  /// the channel and names the endpoint.
  template <typename R>
  R decode(rpc::wire::Endpoint endpoint, const Expected<std::string>& reply,
           std::size_t items = 1) {
    if (!reply.ok()) return failed<R>(reply.error(), items);
    try {
      rpc::Reader r(*reply);
      R value = rpc::wire::Field<R>::read(r);
      if (!r.exhausted()) throw rpc::CodecError("trailing bytes in reply");
      if constexpr (ops::kIsList<R>) {
        if (value.size() != items) throw rpc::CodecError("reply not index-aligned with request");
      }
      return value;
    } catch (const rpc::CodecError& error) {
      channel_.close();
      return failed<R>(Error{Errc::kTransport, "bus",
                             std::string(rpc::wire::endpoint_name(endpoint)) +
                                 " reply decode: " + error.what()},
                       items);
    }
  }

  /// One call with ring-redirect chasing: a reply whose body is the
  /// uniform error encoding with Errc::kRedirect is retried at the member
  /// named in the error message, through a cached peer channel, up to
  /// max_redirects hops. An unreachable redirect target falls back to the
  /// home member after a brief backoff (stabilization reroutes it).
  Expected<std::string> call_routed(rpc::wire::Endpoint endpoint, const std::string& body);
  /// The redirect-chase tail of call_routed, shared with pipelined
  /// completion: takes the home member's reply and follows kRedirect
  /// answers through cached peer channels. `body` is the encoded request.
  Expected<std::string> chase_redirects(rpc::wire::Endpoint endpoint, const std::string& body,
                                        Expected<std::string> reply);
  /// Puts a pipelined request on the wire now; `complete` runs when pump()
  /// reaches its reply (after any redirect chase).
  void defer(rpc::wire::Endpoint endpoint, std::string body,
             std::function<void(const Expected<std::string>&)> complete);
  rpc::ClientChannel* peer_channel(const std::string& endpoint);

  RemoteBusConfig config_;
  rpc::ClientChannel channel_;
  /// Redirect targets, keyed "host:port"; bounded, reset when full.
  std::unordered_map<std::string, std::unique_ptr<rpc::ClientChannel>> peers_;
  /// Outstanding pipelined calls, oldest first (completed FIFO).
  std::deque<Deferred> deferred_;
  std::uint64_t rpcs_ = 0;
  std::uint64_t redirects_followed_ = 0;
};

}  // namespace bitdew::api
