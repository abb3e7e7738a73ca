// The traced run's per-layer probes. A workload hands over the state its
// load left behind (the live daemon, keys that exist, how to rebuild its
// preload in process) and the layer probes time each module's public
// functions on that state: the client API at depth 1, the wire codecs on
// the workload's real values, the service handlers through api::ops on an
// in-process ServiceContainer with the same WAL and preload, the database,
// the transfer engine, MD5, PullCore and a three-member ring.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/data.hpp"
#include "dht/local_dht.hpp"
#include "services/container.hpp"

namespace perfbench {

struct ProbeContext {
  const Config* config = nullptr;
  Daemon* daemon = nullptr;  ///< the workload's daemon
  /// Live datums the depth-1 catalog probes may read (never removed).
  std::vector<bitdew::core::Data> live;
  /// ddc keys that exist.
  std::vector<std::string> ddc_keys;
  /// Rebuilds the workload's preload on the in-process replay container.
  std::function<void(bitdew::services::ServiceContainer&, bitdew::dht::LocalDht&)> preload;
  /// Row shape the workload writes most ("catalog", "stage", "theta").
  std::string row_shape = "catalog";

  // Summary of the traced load.
  double load_wall_s = 0;
  double daemon_cpu_s = 0;
  double gen_cpu_s = 0;
  double work_units = 0;        ///< ops, or MB moved for bulk_transfer
  double late_p99_ms = 0;       ///< open-loop lateness (0 for closed loops)
  /// This run's load median, computed as the untraced run's read_p50_ms.
  double load_read_p50_ms = 0;
  /// Selects the blocking path the closure sums: "bulk", "catalog" or "fleet".
  std::string kind;
};

/// Runs every probe and appends all per-layer metrics to `result`.
void probe_layers(ProbeContext& context, Result& result);

}  // namespace perfbench
