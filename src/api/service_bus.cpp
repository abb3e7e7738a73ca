#include "api/service_bus.hpp"

#include <memory>

namespace bitdew::api {
namespace {

/// Joins N scalar replies into one index-aligned batch reply.
template <typename T>
struct BatchJoin {
  explicit BatchJoin(std::size_t count, Reply<std::vector<T>> done)
      : results(count, T(Error{Errc::kUnavailable, "bus", "no reply"})),
        remaining(count),
        done(std::move(done)) {}

  std::vector<T> results;
  std::size_t remaining;
  Reply<std::vector<T>> done;

  void deliver(std::size_t index, T result) {
    results[index] = std::move(result);
    if (--remaining == 0) done(std::move(results));
  }
};

}  // namespace

void ServiceBus::ddc_publish_batch(const std::vector<KeyValue>& pairs, Reply<BatchStatus> done) {
  if (pairs.empty()) {
    done({});
    return;
  }
  auto join = std::make_shared<BatchJoin<Status>>(pairs.size(), std::move(done));
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ddc_publish(pairs[i].key, pairs[i].value,
                [join, i](Status status) { join->deliver(i, std::move(status)); });
  }
}

}  // namespace bitdew::api
