#pragma once

#include <cstddef>
#include <vector>

#include "sim/rng.h"
#include "tensor/dense.h"

namespace omr::tensor {

/// How non-zero blocks are positioned across workers (§6.4.2, Fig. 17).
enum class OverlapMode {
  kRandom,  // each worker samples its non-zero block set independently
  kNone,    // disjoint non-zero block sets across workers
  kAll,     // identical non-zero block set at every worker
};

/// Generate a tensor of `n` elements where a fraction `block_sparsity` of
/// the `block_size`-element blocks is all-zero; non-zero blocks are filled
/// with uniform values in [-1, 1] (guaranteed non-zero). This mirrors the
/// microbenchmark inputs of §6.1: the quoted "sparsity s%" operates at
/// block granularity so that the protocol-visible sparsity equals s.
DenseTensor make_block_sparse(std::size_t n, std::size_t block_size,
                              double block_sparsity, sim::Rng& rng);

/// Generate one tensor per worker with a controlled overlap pattern.
/// With kNone, workers get disjoint block sets (requires
/// n_workers * nnz_blocks <= total blocks). With kAll, every worker is
/// non-zero at exactly the same blocks.
std::vector<DenseTensor> make_multi_worker(std::size_t n_workers,
                                           std::size_t n,
                                           std::size_t block_size,
                                           double block_sparsity,
                                           OverlapMode mode, sim::Rng& rng);

/// Multi-worker embedding gradients with a "hot set": each worker activates
/// `active_rows` rows, runs of `row_dim` contiguous non-zero elements at
/// row-aligned offsets inside the first `embedding_elements` elements; the
/// remaining tail (the dense part of the model) is filled with
/// `dense_tail_density` i.i.d. non-zeros. This clustering keeps block
/// sparsity high at packet-sized blocks (Fig. 16). A fraction
/// `hot_fraction` of each worker's rows is drawn from a small shared hot
/// set of `hot_rows` rows (all-worker overlap), the rest drawn uniformly
/// (mostly worker-private). This yields the skewed overlap distributions
/// of Table 2.
std::vector<DenseTensor> make_multi_worker_embedding(
    std::size_t n_workers, std::size_t n, std::size_t embedding_elements,
    std::size_t row_dim, std::size_t active_rows, std::size_t hot_rows,
    double hot_fraction, double dense_tail_density, sim::Rng& rng);

}  // namespace omr::tensor
