#include "services/ring_router.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "util/log.hpp"

namespace bitdew::services {
namespace {

namespace wire = rpc::wire;
using wire::Endpoint;

const util::Logger& logger() {
  static const util::Logger instance("ringrouter");
  return instance;
}

/// Entries re-replicated per repair round; small so a repair burst never
/// monopolizes the sweep thread or the successors' dispatch locks.
constexpr std::size_t kRepairWindow = 24;

/// Redirect-chase budget when forwarding per-item batch reads.
constexpr int kForwardHops = 3;

api::Status decode_status(const std::string& reply) {
  try {
    rpc::Reader r(reply);
    api::Status status = wire::read_status(r);
    if (!r.exhausted()) throw rpc::CodecError("trailing bytes");
    return status;
  } catch (const rpc::CodecError& error) {
    return api::Error{api::Errc::kTransport, "ring", error.what()};
  }
}

std::string encode_status(const api::Status& status) {
  rpc::Writer w;
  wire::write_status(w, status);
  return w.take();
}

}  // namespace

RingRouter::RingRouter(ServiceContainer& container, dht::LocalDht& ddc, Hooks hooks)
    : container_(container), ddc_(ddc), hooks_(std::move(hooks)) {}

void RingRouter::restore_persisted_state() {
  std::vector<std::string> keys;
  hooks_.with_store([&] {
    container_.for_each_ring_key([&](const std::string& key) { keys.push_back(key); });
    container_.for_each_ddc_pair(
        [&](const std::string& key, const std::string& value) { ddc_.put(key, value); });
  });
  {
    const util::LockGuard lock(index_mutex_);
    for (const std::string& key : keys) {
      index_[dht::ring_hash(key)].insert(key);
    }
  }
  if (!keys.empty()) {
    logger().info("restored %zu ring keys from the WAL", keys.size());
  }
}

void RingRouter::index_add(const std::string& key) {
  const util::LockGuard lock(index_mutex_);
  index_[dht::ring_hash(key)].insert(key);
}

void RingRouter::index_remove(const std::string& key) {
  const util::LockGuard lock(index_mutex_);
  const auto it = index_.find(dht::ring_hash(key));
  if (it == index_.end()) return;
  it->second.erase(key);
  if (it->second.empty()) index_.erase(it);
}

void RingRouter::fill_counts(wire::RingStatusInfo& info) const {
  const util::LockGuard lock(index_mutex_);
  for (const auto& [hash, keys] : index_) {
    for (const std::string& key : keys) {
      if (key.compare(0, 3, "dc:") == 0) {
        ++info.dc_keys;
      } else {
        ++info.ddc_keys;
      }
    }
  }
}

std::vector<std::string> RingRouter::keys_in_range(std::uint64_t from_excl,
                                                  std::uint64_t to_incl) const {
  std::vector<std::string> keys;
  const util::LockGuard lock(index_mutex_);
  for (const auto& [hash, bucket] : index_) {
    if (!dht::ring_in_half_open(hash, from_excl, to_incl)) continue;
    keys.insert(keys.end(), bucket.begin(), bucket.end());
  }
  return keys;
}

std::vector<wire::RingOp> RingRouter::assemble_ops(const std::vector<std::string>& keys) {
  std::vector<wire::RingOp> ops;
  hooks_.with_store([&] {
    for (const std::string& key : keys) {
      if (key.compare(0, 3, "dc:") == 0) {
        const util::Auid uid = util::Auid::parse(key.substr(3));
        if (uid.is_nil()) continue;
        // Round-trip the catalog entry through the local dispatch path so
        // the handoff ops replay byte-identically on the receiver.
        rpc::Writer request;
        wire::write_auid(request, uid);
        rpc::Reader get_reader(request.buffer());
        const std::string get_reply = hooks_.apply(Endpoint::kDcGet, get_reader);
        try {
          rpc::Reader r(get_reply);
          const api::Expected<core::Data> data =
              wire::read_expected<core::Data>(r, wire::read_data);
          if (!data.ok()) continue;  // index entry without a stored datum
          rpc::Writer body;
          wire::write_data(body, *data);
          ops.push_back({Endpoint::kDcRegister, body.take()});
        } catch (const rpc::CodecError&) {
          continue;
        }
        rpc::Reader locators_reader(request.buffer());
        const std::string locators_reply = hooks_.apply(Endpoint::kDcLocators, locators_reader);
        try {
          rpc::Reader r(locators_reply);
          const api::Expected<std::vector<core::Locator>> locators =
              wire::read_expected<std::vector<core::Locator>>(r, wire::read_locator_list);
          if (locators.ok()) {
            for (const core::Locator& locator : *locators) {
              rpc::Writer body;
              wire::write_locator(body, locator);
              ops.push_back({Endpoint::kDcAddLocator, body.take()});
            }
          }
        } catch (const rpc::CodecError&) {
        }
      } else if (key.compare(0, 4, "ddc:") == 0) {
        const std::string ddc = key.substr(4);
        for (const std::string& value : ddc_.get(ddc)) {
          rpc::Writer body;
          body.str(ddc);
          body.str(value);
          ops.push_back({Endpoint::kDdcPublish, body.take()});
        }
      }
    }
  });
  return ops;
}

std::vector<wire::RingOp> RingRouter::ops_in_range(std::uint64_t from_excl,
                                                   std::uint64_t to_incl) {
  return assemble_ops(keys_in_range(from_excl, to_incl));
}

void RingRouter::note_write_locked(Endpoint endpoint, const std::string& key,
                                   const std::string& body, const std::string& reply) {
  const api::Status status = decode_status(reply);
  const api::Errc code = status.ok() ? api::Errc::kOk : status.error().code;
  switch (endpoint) {
    case Endpoint::kDcRegister:
      if (code == api::Errc::kOk || code == api::Errc::kDuplicate) {
        index_add(key);
        container_.persist_ring_key(key);
      }
      break;
    case Endpoint::kDcAddLocator:
      if (code == api::Errc::kOk) {
        index_add(key);
        container_.persist_ring_key(key);
      }
      break;
    case Endpoint::kDcRemove:
      if (code == api::Errc::kOk || code == api::Errc::kNotFound) {
        index_remove(key);
        container_.forget_ring_key(key);
      }
      break;
    case Endpoint::kDdcPublish:
      if (code == api::Errc::kOk) {
        index_add(key);
        container_.persist_ring_key(key);
        try {
          rpc::Reader b(body);
          const std::string ddc = b.str();
          const std::string value = b.str();
          container_.persist_ddc_pair(ddc, value);
        } catch (const rpc::CodecError&) {
        }
      }
      break;
    default:
      break;
  }
}

bool RingRouter::should_replicate(const std::string& reply) {
  const api::Status status = decode_status(reply);
  const api::Errc code = status.ok() ? api::Errc::kOk : status.error().code;
  return code == api::Errc::kOk || code == api::Errc::kDuplicate ||
         code == api::Errc::kNotFound;
}

void RingRouter::replicate(const std::vector<wire::RingOp>& ops) {
  if (ops.empty() || ring_ == nullptr) return;
  const wire::RingStoreRequest request{false, ops};
  int copies = ring_->config().replication - 1;
  for (const wire::RingNode& s : ring_->successors()) {
    if (copies <= 0) break;
    if (s.id == ring_->self().id) continue;
    ring_->store_at(s, request);
    --copies;
  }
}

std::vector<api::Status> RingRouter::apply_ops(const std::vector<wire::RingOp>& ops,
                                               bool replicate_ops) {
  std::vector<api::Status> statuses;
  statuses.reserve(ops.size());
  std::vector<wire::RingOp> fan_out;
  hooks_.with_store([&] {
    for (const wire::RingOp& op : ops) {
      if (!wire::ring_op_endpoint_allowed(op.endpoint)) {
        statuses.push_back(api::Error{api::Errc::kInvalidArgument, "ring", "illegal ring op"});
        continue;
      }
      std::string reply;
      try {
        rpc::Reader r(op.body);
        reply = hooks_.apply(op.endpoint, r);
        if (!r.exhausted()) throw rpc::CodecError("trailing bytes in ring op");
      } catch (const rpc::CodecError& error) {
        statuses.push_back(api::Error{api::Errc::kInvalidArgument, "ring", error.what()});
        continue;
      }
      std::string key;
      try {
        rpc::Reader peek(op.body);
        key = op.endpoint == Endpoint::kDdcPublish
                  ? ddc_key(peek.str())
                  : dc_key(wire::read_auid(peek));
      } catch (const rpc::CodecError&) {
      }
      if (!key.empty()) note_write_locked(op.endpoint, key, op.body, reply);
      if (replicate_ops && should_replicate(reply)) fan_out.push_back(op);
      statuses.push_back(decode_status(reply));
    }
  });
  replicate(fan_out);  // outside the store lock: replication is RPC
  return statuses;
}

void RingRouter::repair() {
  if (ring_ == nullptr) return;
  std::vector<std::string> window;
  {
    const util::LockGuard lock(index_mutex_);
    if (index_.empty()) return;
    std::vector<std::string> all;
    for (const auto& [hash, bucket] : index_) {
      all.insert(all.end(), bucket.begin(), bucket.end());
    }
    const std::size_t start = repair_cursor_ % all.size();
    for (std::size_t i = 0; i < std::min(kRepairWindow, all.size()); ++i) {
      window.push_back(all[(start + i) % all.size()]);
    }
    repair_cursor_ = (start + window.size()) % all.size();
  }
  // Only ranges we own get pushed: replicas are the owner's to maintain.
  std::erase_if(window, [&](const std::string& key) {
    return !ring_->owns(dht::ring_hash(key));
  });
  if (window.empty()) return;
  replicate(assemble_ops(window));
}

// --- routing ------------------------------------------------------------------

std::optional<std::string> RingRouter::route(Endpoint endpoint, rpc::Reader& r) {
  if (ring_ == nullptr) return std::nullopt;
  switch (endpoint) {
    case Endpoint::kDcRegister:
    case Endpoint::kDcGet:
    case Endpoint::kDcRemove:
    case Endpoint::kDcLocators: {
      rpc::Reader peek = r;
      return route_keyed(endpoint, r, dc_key(wire::read_auid(peek)));
    }
    case Endpoint::kDcAddLocator: {
      rpc::Reader peek = r;  // a Locator leads with its data_uid
      return route_keyed(endpoint, r, dc_key(wire::read_auid(peek)));
    }
    case Endpoint::kDdcPublish:
    case Endpoint::kDdcSearch: {
      rpc::Reader peek = r;
      return route_keyed(endpoint, r, ddc_key(peek.str()));
    }
    case Endpoint::kDcSearch:
      return search_all(r);
    case Endpoint::kDcRegisterBatch:
      return register_batch(r);
    case Endpoint::kDdcPublishBatch:
      return publish_batch(r);
    case Endpoint::kDcLocatorsBatch:
      return locators_batch(r);
    default:
      return std::nullopt;  // dr_*/dt_*/ds_*/ping stay member-local
  }
}

std::optional<std::string> RingRouter::route_keyed(Endpoint endpoint, rpc::Reader& r,
                                                   const std::string& key) {
  const std::uint64_t hash = dht::ring_hash(key);
  if (!ring_->owns(hash)) {
    const api::Expected<wire::RingNode> owner = ring_->resolve_owner(hash);
    if (!owner.ok()) {
      r.skip(r.remaining());
      return encode_status(api::Status(owner.error()));
    }
    if (owner->id != ring_->self().id) {
      r.skip(r.remaining());
      return encode_status(api::Status(
          api::Error{api::Errc::kRedirect, "ring", owner->endpoint}));
    }
  }
  const bool is_write = wire::ring_op_endpoint_allowed(endpoint);
  const std::string body(r.rest());
  std::string reply;
  hooks_.with_store([&] {
    reply = hooks_.apply(endpoint, r);
    if (is_write) note_write_locked(endpoint, key, body, reply);
  });
  if (is_write && should_replicate(reply)) {
    replicate({wire::RingOp{endpoint, body}});
  }
  return reply;
}

std::string RingRouter::search_all(rpc::Reader& r) {
  const std::string name = [&] {
    rpc::Reader peek = r;
    return peek.str();
  }();
  std::vector<core::Data> merged;
  std::unordered_set<std::string> seen;
  auto merge_reply = [&](const std::string& reply) {
    try {
      rpc::Reader rr(reply);
      const api::Expected<std::vector<core::Data>> items =
          wire::read_expected<std::vector<core::Data>>(rr, wire::read_data_list);
      if (!items.ok()) return;
      for (const core::Data& item : *items) {
        if (seen.insert(item.uid.str()).second) merged.push_back(item);
      }
    } catch (const rpc::CodecError&) {
    }
  };
  std::string local_reply;
  hooks_.with_store([&] { local_reply = hooks_.apply(Endpoint::kDcSearch, r); });
  merge_reply(local_reply);
  // Name search cannot route by hash (the catalog shards by uid): fan out
  // to every member's local shard and merge. Unreachable members are
  // skipped — a partial answer beats none, and repair converges the rest.
  for (const wire::RingNode& member : ring_->collect_members()) {
    if (member.id == ring_->self().id) continue;
    const api::Expected<std::string> reply = ring_->call(
        member.endpoint, Endpoint::kRingSearch, [&](rpc::Writer& w) { w.str(name); });
    if (reply.ok()) merge_reply(*reply);
  }
  std::sort(merged.begin(), merged.end(),
            [](const core::Data& a, const core::Data& b) { return a.uid < b.uid; });
  rpc::Writer w;
  wire::write_expected(w, api::Expected<std::vector<core::Data>>(std::move(merged)),
                       wire::write_data_list);
  return w.take();
}

namespace {

/// Scatter plan for a write batch: item indices grouped by owning member.
struct ScatterPlan {
  std::vector<std::size_t> local;
  std::unordered_map<std::string, std::pair<wire::RingNode, std::vector<std::size_t>>> remote;
};

}  // namespace

std::string RingRouter::register_batch(rpc::Reader& r) {
  const std::vector<core::Data> items = wire::read_register_batch(r);
  std::vector<api::Status> out(items.size(), api::ok_status());
  ScatterPlan plan;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::uint64_t hash = dht::ring_hash(dc_key(items[i].uid));
    if (ring_->owns(hash)) {
      plan.local.push_back(i);
      continue;
    }
    const api::Expected<wire::RingNode> owner = ring_->resolve_owner(hash);
    if (!owner.ok()) {
      out[i] = api::Status(owner.error());
    } else if (owner->id == ring_->self().id) {
      plan.local.push_back(i);
    } else {
      auto& group = plan.remote[owner->endpoint];
      group.first = *owner;
      group.second.push_back(i);
    }
  }

  std::vector<wire::RingOp> local_ops;
  local_ops.reserve(plan.local.size());
  for (const std::size_t i : plan.local) {
    rpc::Writer body;
    wire::write_data(body, items[i]);
    local_ops.push_back({Endpoint::kDcRegister, body.take()});
  }
  const std::vector<api::Status> local_statuses = apply_ops(local_ops, true);
  for (std::size_t j = 0; j < plan.local.size(); ++j) out[plan.local[j]] = local_statuses[j];

  for (const auto& [endpoint, group] : plan.remote) {
    wire::RingStoreRequest request{true, {}};
    for (const std::size_t i : group.second) {
      rpc::Writer body;
      wire::write_data(body, items[i]);
      request.ops.push_back({Endpoint::kDcRegister, body.take()});
    }
    const std::vector<api::Status> statuses = ring_->store_at(group.first, request);
    for (std::size_t j = 0; j < group.second.size(); ++j) {
      out[group.second[j]] =
          j < statuses.size()
              ? statuses[j]
              : api::Status(api::Error{api::Errc::kUnavailable, "ring", "store truncated"});
    }
  }

  rpc::Writer w;
  wire::write_status_batch(w, out);
  return w.take();
}

std::string RingRouter::publish_batch(rpc::Reader& r) {
  const std::vector<std::pair<std::string, std::string>> pairs = wire::read_publish_batch(r);
  std::vector<api::Status> out(pairs.size(), api::ok_status());
  ScatterPlan plan;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const std::uint64_t hash = dht::ring_hash(ddc_key(pairs[i].first));
    if (ring_->owns(hash)) {
      plan.local.push_back(i);
      continue;
    }
    const api::Expected<wire::RingNode> owner = ring_->resolve_owner(hash);
    if (!owner.ok()) {
      out[i] = api::Status(owner.error());
    } else if (owner->id == ring_->self().id) {
      plan.local.push_back(i);
    } else {
      auto& group = plan.remote[owner->endpoint];
      group.first = *owner;
      group.second.push_back(i);
    }
  }

  auto encode_pair = [](const std::pair<std::string, std::string>& pair) {
    rpc::Writer body;
    body.str(pair.first);
    body.str(pair.second);
    return wire::RingOp{Endpoint::kDdcPublish, body.take()};
  };

  std::vector<wire::RingOp> local_ops;
  local_ops.reserve(plan.local.size());
  for (const std::size_t i : plan.local) local_ops.push_back(encode_pair(pairs[i]));
  const std::vector<api::Status> local_statuses = apply_ops(local_ops, true);
  for (std::size_t j = 0; j < plan.local.size(); ++j) out[plan.local[j]] = local_statuses[j];

  for (const auto& [endpoint, group] : plan.remote) {
    wire::RingStoreRequest request{true, {}};
    for (const std::size_t i : group.second) request.ops.push_back(encode_pair(pairs[i]));
    const std::vector<api::Status> statuses = ring_->store_at(group.first, request);
    for (std::size_t j = 0; j < group.second.size(); ++j) {
      out[group.second[j]] =
          j < statuses.size()
              ? statuses[j]
              : api::Status(api::Error{api::Errc::kUnavailable, "ring", "store truncated"});
    }
  }

  rpc::Writer w;
  wire::write_status_batch(w, out);
  return w.take();
}

std::string RingRouter::locators_batch(rpc::Reader& r) {
  const std::vector<util::Auid> uids = wire::read_locators_batch_request(r);
  std::vector<api::Expected<std::vector<core::Locator>>> out;
  out.reserve(uids.size());
  for (const util::Auid& uid : uids) {
    const std::uint64_t hash = dht::ring_hash(dc_key(uid));
    bool serve_local = ring_->owns(hash);
    wire::RingNode owner;
    if (!serve_local) {
      const api::Expected<wire::RingNode> resolved = ring_->resolve_owner(hash);
      if (!resolved.ok()) {
        out.push_back(resolved.error());
        continue;
      }
      if (resolved->id == ring_->self().id) {
        serve_local = true;
      } else {
        owner = *resolved;
      }
    }
    if (serve_local) {
      std::string reply;
      hooks_.with_store([&] {
        rpc::Writer request;
        wire::write_auid(request, uid);
        rpc::Reader rr(request.buffer());
        reply = hooks_.apply(Endpoint::kDcLocators, rr);
      });
      try {
        rpc::Reader rr(reply);
        out.push_back(wire::read_expected<std::vector<core::Locator>>(
            rr, wire::read_locator_list));
      } catch (const rpc::CodecError& error) {
        out.push_back(api::Error{api::Errc::kTransport, "ring", error.what()});
      }
      continue;
    }
    // Forward to the owner, chasing a bounded number of redirects (its own
    // tables may have shifted under churn).
    api::Expected<std::vector<core::Locator>> item =
        api::Error{api::Errc::kUnavailable, "ring", "owner unreachable"};
    std::string target = owner.endpoint;
    for (int hop = 0; hop < kForwardHops && !target.empty(); ++hop) {
      const api::Expected<std::string> reply =
          ring_->call(target, Endpoint::kDcLocators,
                      [&](rpc::Writer& w) { wire::write_auid(w, uid); });
      if (!reply.ok()) {
        item = reply.error();
        break;
      }
      try {
        rpc::Reader rr(*reply);
        item = wire::read_expected<std::vector<core::Locator>>(rr, wire::read_locator_list);
      } catch (const rpc::CodecError& error) {
        item = api::Error{api::Errc::kTransport, "ring", error.what()};
        break;
      }
      if (!item.ok() && item.error().code == api::Errc::kRedirect) {
        target = item.error().message;
        continue;
      }
      break;
    }
    out.push_back(std::move(item));
  }
  rpc::Writer w;
  wire::write_locators_batch_reply(w, out);
  return w.take();
}

}  // namespace bitdew::services
