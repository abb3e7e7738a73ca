#include "runtime/sim_service_bus.hpp"

namespace bitdew::runtime {

using rpc::wire::Endpoint;

void SimServiceBus::on_ring(api::ops::OpAt<Endpoint::kDdcPublish>, api::Reply<api::Status> done,
                            const std::string& key, const std::string& value) {
  ring_->put(ring_node_, key, value, [done = std::move(done)](bool ok) {
    done(ok ? api::ok_status()
            : api::Status(api::Error{api::Errc::kUnavailable, "ddc", "ring put failed"}));
  });
}

void SimServiceBus::on_ring(api::ops::OpAt<Endpoint::kDdcSearch>,
                            api::Reply<api::Expected<std::vector<std::string>>> done,
                            const std::string& key) {
  ring_->get(ring_node_, key, [done = std::move(done)](std::vector<std::string> values) {
    done(std::move(values));
  });
}

void SimServiceBus::on_ring(api::ops::OpAt<Endpoint::kDdcPublishBatch>,
                            api::Reply<api::BatchStatus> done,
                            const std::vector<std::pair<std::string, std::string>>& pairs) {
  // The ring routes per key: fan out to the scalar endpoint.
  std::vector<api::KeyValue> kvs;
  kvs.reserve(pairs.size());
  for (const auto& [key, value] : pairs) kvs.push_back({key, value});
  ServiceBus::ddc_publish_batch(kvs, std::move(done));
}

}  // namespace bitdew::runtime
