#pragma once

#include <cstdint>
#include <vector>

#include "core/engine.h"
#include "tensor/coo.h"

namespace omr::core {

/// Result of a sparse (key-value) OmniReduce AllReduce (Algorithm 3).
struct SparseRunStats {
  tensor::CooTensor result;       // reduced tensor (as received by worker 0)
  sim::Time completion_time = 0;  // max over workers
  std::uint64_t pair_bytes_sent = 0;  // key+value payload, all workers
  std::uint64_t rounds = 0;
};

/// Run the sparse block-format extension (§3.3, Algorithm 3) over a
/// simulated cluster. Workers stream blocks of `pairs_per_block`
/// (key, value) pairs behind a 64-byte header; each aggregator merges its
/// key range in a keyed map and releases aggregated prefixes as the global
/// minimum outstanding key advances. Lossless fabric — the scope the paper presents (loss recovery
/// for the KV format is future work there).
///
/// `n_aggregators` > 1 shards the key space into contiguous ranges, one
/// dedicated aggregator node per range, and runs Algorithm 3 independently
/// per range — the stream-parallel instantiation the paper's design admits
/// (§3.3 "admits a variety of instantiations"): ranges pipeline in
/// parallel, breaking the single-slot latency bound.
SparseRunStats run_sparse_allreduce(
    const std::vector<tensor::CooTensor>& inputs,
    const FabricConfig& fabric, std::size_t pairs_per_block = 256,
    std::size_t n_aggregators = 1);

}  // namespace omr::core
