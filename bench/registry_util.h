#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/zoo.h"
#include "core/algorithm.h"
#include "tensor/dense.h"

namespace omr::bench {

/// Flat ideal-switch cluster at `bandwidth_bps` whose derived
/// BaselineConfig matches what the benches have always passed to the
/// direct baseline calls, so dispatching through the registry reproduces
/// the historical numbers exactly. Among the baselines only the sketch
/// reads `seed` (its hash seed); the baseline fabric is lossless.
inline core::ClusterSpec flat_cluster(double bandwidth_bps,
                                      std::uint64_t seed) {
  core::ClusterSpec spec;
  spec.fabric.worker_bandwidth_bps = bandwidth_bps;
  spec.fabric.aggregator_bandwidth_bps = bandwidth_bps;
  spec.fabric.seed = seed;
  return spec;
}

/// Dispatch one collective through the global registry (zoo registered on
/// first use). Reduces `tensors` in place; verification is off — benches
/// measure time, correctness is pinned by the `algos` test label.
inline core::RunStats registry_run(const std::string& algo,
                                   std::vector<tensor::DenseTensor>& tensors,
                                   const core::ClusterSpec& cluster,
                                   const core::Config& cfg = {}) {
  baselines::register_zoo();
  return core::run_collective(algo, tensors, cfg, cluster, /*verify=*/false);
}

}  // namespace omr::bench
