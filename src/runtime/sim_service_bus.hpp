// SimServiceBus: the ServiceBus implementation for the discrete-event
// runtime. Every call is a request flow to the service host, a serialized
// service-processing slot (one server thread, FIFO — so load queues
// honestly), the in-process core call, and a response flow back. Byte
// counts scale with payload sizes so control traffic consumes bandwidth —
// the mechanism behind the paper's Fig. 3b/3c overhead.
//
// v2: replies carry Expected<T> (transport losses surface as
// Errc::kTransport; service-level failures come out of service_ops.hpp with
// the same codes as the DirectServiceBus), and the four bulk endpoints are
// native: one request flow, one FIFO slot charged N * service_time_s, and
// one response flow amortize the RPC envelope over the whole batch. Batch
// requests are sized by actually encoding them through rpc/wire.hpp.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "api/bus_base.hpp"
#include "dht/local_dht.hpp"
#include "dht/ring.hpp"
#include "net/network.hpp"
#include "services/container.hpp"
#include "sim/simulator.hpp"

namespace bitdew::runtime {

/// FIFO single-server queue modelling the service node's processing. A
/// batched submission occupies the server for `items` service times — the
/// per-item processing cost is preserved; only the envelope is amortized.
class ServiceQueue {
 public:
  ServiceQueue(sim::Simulator& sim, double service_time_s)
      : sim_(sim), service_time_(service_time_s) {}

  void submit(std::function<void()> work, std::size_t items = 1) {
    queue_.push_back(Job{std::move(work), items == 0 ? 1 : items});
    if (!busy_) drain();
  }

  /// Service events processed (one per submission, batched or not).
  std::uint64_t served() const { return served_; }
  /// Items processed across all submissions.
  std::uint64_t items_served() const { return items_served_; }
  std::size_t depth() const { return queue_.size(); }

 private:
  struct Job {
    std::function<void()> work;
    std::size_t items;
  };

  void drain() {
    if (queue_.empty()) {
      busy_ = false;
      return;
    }
    busy_ = true;
    Job job = std::move(queue_.front());
    queue_.pop_front();
    sim_.after(service_time_ * static_cast<double>(job.items),
               [this, job = std::move(job)] {
                 job.work();
                 ++served_;
                 items_served_ += job.items;
                 drain();
               });
  }

  sim::Simulator& sim_;
  double service_time_;
  bool busy_ = false;
  std::deque<Job> queue_;
  std::uint64_t served_ = 0;
  std::uint64_t items_served_ = 0;
};

// --- the byte model -----------------------------------------------------------
// Every call sends a fixed envelope each way plus the extra bytes its
// endpoint charges below, and holds the service queue for `slots` service
// times. The figures are the model's, not the encoded frame sizes — except
// for batches, whose requests are charged exactly as encoded.

namespace byte_model {

inline constexpr std::int64_t kRequestBytes = 256;  ///< fixed RPC envelope
inline constexpr std::int64_t kResponseBytes = 256;
inline constexpr std::int64_t kPerItemBytes = 48;   ///< marginal bytes per list element

using E = rpc::wire::Endpoint;
template <E endpoint>
using At = api::ops::OpAt<endpoint>;

inline std::int64_t bytes_of(const std::string& text) {
  return static_cast<std::int64_t>(text.size());
}

struct Charge {
  std::int64_t request = 0;  ///< bytes on top of kRequestBytes
  std::int64_t reply = 0;    ///< bytes on top of kResponseBytes
  std::size_t slots = 1;     ///< service-queue slots
};

/// The default: the bare envelope; a batch is charged its encoded items,
/// kPerItemBytes per reply item, and one slot per item.
template <typename Op, typename... A>
Charge charge(Op, const A&... args) {
  if constexpr (Op::kBatch) {
    rpc::Writer w;
    rpc::wire::write_fields(w, args...);
    const std::size_t items = api::call_items<Op>(args...);
    return {static_cast<std::int64_t>(w.size()), static_cast<std::int64_t>(items) * kPerItemBytes,
            items};
  } else {
    return {};
  }
}

inline Charge charge(At<E::kDcRegister>, const core::Data&) { return {160, 0}; }
inline Charge charge(At<E::kDcGet>, const util::Auid&) { return {16, 160}; }
inline Charge charge(At<E::kDcSearch>, const std::string& name) {
  return {bytes_of(name), kPerItemBytes};
}
inline Charge charge(At<E::kDcRemove>, const util::Auid&) { return {16, 0}; }
inline Charge charge(At<E::kDcAddLocator>, const core::Locator&) { return {128, 0}; }
inline Charge charge(At<E::kDcLocators>, const util::Auid&) { return {16, kPerItemBytes}; }
/// Envelope only: the content itself crosses first, in dr_put's upload flow.
inline Charge charge(At<E::kDrPut>, const core::Data&, const core::Content&, const std::string&) {
  return {96, 128};
}
inline Charge charge(At<E::kDrGet>, const util::Auid&) { return {16, 64}; }
inline Charge charge(At<E::kDrRemove>, const util::Auid&) { return {16, 0}; }
// Data-plane RPCs: chunk payloads are charged at their real size, so
// out-of-band content consumes bandwidth exactly like the paper's Fig. 3b/3c
// accounting expects.
inline Charge charge(At<E::kDrPutStart>, const core::Data&) { return {176, 8}; }
inline Charge charge(At<E::kDrPutChunk>, const util::Auid&, std::int64_t,
                     const std::string& bytes) {
  return {24 + bytes_of(bytes), 0};
}
inline Charge charge(At<E::kDrPutCommit>, const util::Auid&, const std::string& protocol) {
  return {16 + bytes_of(protocol), 128};
}
inline Charge charge(At<E::kDrGetChunk>, const util::Auid&, std::int64_t, std::int64_t max_bytes) {
  return {28, max_bytes};
}
inline Charge charge(At<E::kDrStats>) { return {0, 32}; }
inline Charge charge(At<E::kDtRegister>, const core::Data&, const std::string&, const std::string&,
                     const std::string&) {
  return {192, 16};
}
inline Charge charge(At<E::kDtMonitor>, services::TicketId, std::int64_t) { return {24, 0}; }
inline Charge charge(At<E::kDtComplete>, services::TicketId, const std::string&,
                     const std::string&) {
  return {80, 0};
}
inline Charge charge(At<E::kDtFailure>, services::TicketId, std::int64_t, bool) { return {32, 0}; }
inline Charge charge(At<E::kDtGiveUp>, services::TicketId) { return {16, 0}; }
inline Charge charge(At<E::kDsSchedule>, const core::Data&, const core::DataAttributes&) {
  return {224, 0};
}
inline Charge charge(At<E::kDsPin>, const util::Auid&, const std::string&) { return {48, 0}; }
inline Charge charge(At<E::kDsUnschedule>, const util::Auid&) { return {16, 0}; }
/// A delta beat is charged for the delta it actually ships — the O(Δ)
/// saving of sync protocol v2 shows up in the simulated byte counters.
inline Charge charge(At<E::kDsSync>, const services::SyncRequest& request) {
  const auto items = static_cast<std::int64_t>(request.added.size() + request.removed.size() +
                                               request.in_flight.size());
  return {items * kPerItemBytes + bytes_of(request.endpoint), kPerItemBytes};
}
inline Charge charge(At<E::kDsHosts>) { return {0, kPerItemBytes}; }
/// One queue slot per input, argv and env entry, plus one for the job.
inline Charge charge(At<E::kJobSubmit>, const jobs::JobSpec& spec) {
  const std::size_t items = spec.inputs.size() + spec.argv.size() + spec.env.size() + 1;
  return {kPerItemBytes * static_cast<std::int64_t>(items), 0, items};
}
inline Charge charge(At<E::kJobStatus>, const util::Auid&) { return {0, kPerItemBytes}; }
inline Charge charge(At<E::kJobClaim>, const util::Auid&, const std::string& runner) {
  return {bytes_of(runner), kPerItemBytes};
}
inline Charge charge(At<E::kJobTaskReport>, const jobs::TaskReport&) { return {kPerItemBytes, 0}; }
inline Charge charge(At<E::kDdcPublish>, const std::string& key, const std::string& value) {
  return {bytes_of(key) + bytes_of(value), 0};
}
inline Charge charge(At<E::kDdcSearch>, const std::string& key) {
  return {bytes_of(key), kPerItemBytes};
}

}  // namespace byte_model

class SimServiceBus final : public api::BusBase<SimServiceBus> {
 public:
  /// `fallback_ddc` is the shared catalog-local key/value store used when
  /// no DHT ring is attached (owned by the runtime).
  SimServiceBus(sim::Simulator& sim, net::Network& net, net::HostId self,
                net::HostId service_host, services::ServiceContainer& container,
                ServiceQueue& queue, dht::LocalDht& fallback_ddc)
      : sim_(sim),
        net_(net),
        self_(self),
        service_host_(service_host),
        container_(container),
        queue_(queue),
        fallback_ddc_(fallback_ddc) {}

  /// Optional DDC ring; falls back to a catalog-local store when absent.
  void attach_ring(dht::Ring* ring, dht::NodeIndex self_node) {
    ring_ = ring;
    ring_node_ = self_node;
  }

  std::uint64_t rpc_count() const { return rpcs_; }

 private:
  friend class api::BusBase<SimServiceBus>;

  /// One call: the flows and queue slots its charge() names around the
  /// handler. Explicit paths: ddc_* over an attached ring, and dr_put's
  /// content upload ahead of its RPC.
  template <typename Op, typename... A>
  void call(api::Reply<typename Op::Reply> done, const A&... args) {
    using R = typename Op::Reply;
    if constexpr (Op::kBatch) {
      if (api::call_items<Op>(args...) == 0) {
        done({});
        return;
      }
    }
    if constexpr (std::is_same_v<typename Op::Target, dht::LocalDht>) {
      if (ring_ != nullptr && ring_node_ != dht::kNoNode) {
        on_ring(Op{}, std::move(done), args...);
        return;
      }
    }
    const byte_model::Charge cost = byte_model::charge(Op{}, args...);
    std::function<R()> compute = [this, args...] {
      return Op::run(container_, fallback_ddc_, args...);
    };
    R fallback = api::failed<R>(
        api::Error{api::Errc::kTransport, "bus",
                   Op::kBatch ? "batch flow failed"
                              : std::string(rpc::wire::endpoint_name(Op::endpoint)) +
                                    " flow failed"},
        api::call_items<Op>(args...));
    if constexpr (Op::endpoint == rpc::wire::Endpoint::kDrPut) {
      // The payload itself travels to the repository host before registration.
      const core::Content& content = std::get<1>(std::tie(args...));
      net_.start_flow(self_, service_host_, content.size,
                      [this, cost, compute = std::move(compute), fallback = std::move(fallback),
                       done = std::move(done)](const net::FlowResult& upload) mutable {
                        if (!upload.ok) {
                          done(api::Error{api::Errc::kTransport, "dr", "content upload failed"});
                          return;
                        }
                        flow(cost, std::move(compute), std::move(fallback), std::move(done));
                      });
    } else {
      flow(cost, std::move(compute), std::move(fallback), std::move(done));
    }
  }

  /// Request flow -> service queue (cost.slots service slots) -> compute ->
  /// response flow -> done. On any transport failure, `fallback` is
  /// delivered instead.
  template <typename R>
  void flow(byte_model::Charge cost, std::function<R()> compute, R fallback, api::Reply<R> done) {
    ++rpcs_;
    net_.start_flow(
        self_, service_host_, byte_model::kRequestBytes + cost.request,
        [this, cost, compute = std::move(compute), fallback = std::move(fallback),
         done = std::move(done)](const net::FlowResult& request) mutable {
          if (!request.ok) {
            done(std::move(fallback));
            return;
          }
          queue_.submit(
              [this, cost, compute = std::move(compute), fallback = std::move(fallback),
               done = std::move(done)]() mutable {
                R result = compute();
                net_.start_flow(service_host_, self_, byte_model::kResponseBytes + cost.reply,
                                [result = std::move(result), fallback = std::move(fallback),
                                 done = std::move(done)](const net::FlowResult& response) mutable {
                                  done(response.ok ? std::move(result) : std::move(fallback));
                                });
              },
              cost.slots);
        });
  }

  // ddc_* over an attached ring: the ring routes every key itself.
  void on_ring(api::ops::OpAt<rpc::wire::Endpoint::kDdcPublish>, api::Reply<api::Status> done,
               const std::string& key, const std::string& value);
  void on_ring(api::ops::OpAt<rpc::wire::Endpoint::kDdcSearch>,
               api::Reply<api::Expected<std::vector<std::string>>> done, const std::string& key);
  void on_ring(api::ops::OpAt<rpc::wire::Endpoint::kDdcPublishBatch>,
               api::Reply<api::BatchStatus> done,
               const std::vector<std::pair<std::string, std::string>>& pairs);

  sim::Simulator& sim_;
  net::Network& net_;
  net::HostId self_;
  net::HostId service_host_;
  services::ServiceContainer& container_;
  ServiceQueue& queue_;
  dht::LocalDht& fallback_ddc_;
  dht::Ring* ring_ = nullptr;
  dht::NodeIndex ring_node_ = dht::kNoNode;
  std::uint64_t rpcs_ = 0;
};

}  // namespace bitdew::runtime
