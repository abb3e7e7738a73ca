// DirectServiceBus: the synchronous ServiceBus implementation — every call
// is a plain function call into a ServiceContainer (plus a LocalDht for the
// Distributed Data Catalog), and the reply fires before the call returns.
// This is the bus behind in-process deployments and unit tests: the same
// user code that runs over the simulated network (SimServiceBus) runs here
// with identical Error codes, because every bus runs the handlers of the
// bus endpoint list (service_ops.hpp).
#pragma once

#include "api/bus_base.hpp"
#include "dht/local_dht.hpp"
#include "services/container.hpp"

namespace bitdew::api {

class DirectServiceBus final : public BusBase<DirectServiceBus> {
 public:
  DirectServiceBus(services::ServiceContainer& container, dht::LocalDht& ddc)
      : container_(container), ddc_(ddc) {}

  std::uint64_t call_count() const { return calls_; }

 private:
  friend class BusBase<DirectServiceBus>;

  /// One container call per call; an empty batch makes none.
  template <typename Op, typename... A>
  void call(Reply<typename Op::Reply> done, const A&... args) {
    if constexpr (Op::kBatch) {
      if (call_items<Op>(args...) == 0) {
        done({});
        return;
      }
    }
    ++calls_;
    done(Op::run(container_, ddc_, args...));
  }

  services::ServiceContainer& container_;
  dht::LocalDht& ddc_;
  std::uint64_t calls_ = 0;
};

}  // namespace bitdew::api
