// The 64-bit ring both DHTs share — the simulated dht::Ring and the live
// dht::LiveRing: the hash that places keys and members on it, the interval
// tests Chord routing is written in, and the DKS k-ary finger targets. One
// copy, so sim and live deployments shard and route alike.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/md5.hpp"

namespace bitdew::dht {

/// Hash of a string key to its ring position.
inline std::uint64_t ring_hash(const std::string& key) {
  return util::Md5::of(key).prefix64();
}

/// x in (a, b] on the 64-bit ring; (a, a] is the full circle.
constexpr bool ring_in_half_open(std::uint64_t x, std::uint64_t a, std::uint64_t b) {
  if (a == b) return true;
  if (a < b) return x > a && x <= b;
  return x > a || x <= b;
}

/// x in (a, b) on the 64-bit ring; (a, a) is everything but a.
constexpr bool ring_in_open(std::uint64_t x, std::uint64_t a, std::uint64_t b) {
  if (a == b) return x != a;
  if (a < b) return x > a && x < b;
  return x > a || x < b;
}

/// DKS-style k-ary finger targets of the member at `id`: at each level the
/// remaining span divides by k, with (k-1) pointers per level, until the
/// span collapses.
inline std::vector<std::uint64_t> finger_targets(std::uint64_t id, int arity) {
  std::vector<std::uint64_t> targets;
  const auto k = static_cast<std::uint64_t>(arity);
  // Start with span = 2^64 / k computed without overflowing.
  std::uint64_t span = (~0ULL / k) + 1;
  while (span > 0) {
    for (std::uint64_t j = 1; j < k; ++j) {
      targets.push_back(id + j * span);  // wraps mod 2^64 by design
    }
    if (span < k) break;
    span /= k;
  }
  return targets;
}

}  // namespace bitdew::dht
