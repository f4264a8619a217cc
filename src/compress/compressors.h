#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "tensor/dense.h"

namespace omr::compress {

/// Block-based gradient sparsification (§4). Every method returns a tensor
/// of the input's size in which non-selected blocks are zeroed; combined
/// with OmniReduce, only the selected blocks travel. All methods operate on
/// blocks of `block_size` contiguous elements (the paper's natural unit).

/// Keep `k` uniformly random blocks (Block Random-k).
tensor::DenseTensor block_random_k(const tensor::DenseTensor& g,
                                   std::size_t block_size, std::size_t k,
                                   sim::Rng& rng);

/// Keep the `k` blocks with the largest block gradient norm (l2 of the
/// block's values) — Block Top-k.
tensor::DenseTensor block_top_k(const tensor::DenseTensor& g,
                                std::size_t block_size, std::size_t k);

/// Keep the `k` blocks with the largest block update-ratio norm, where the
/// update ratio of a parameter is gradient / parameter value — Block Top-k
/// Ratio. `params` must be the current parameter vector (same size as g);
/// parameters with magnitude below `eps` are guarded to avoid division
/// blow-up.
tensor::DenseTensor block_top_k_ratio(const tensor::DenseTensor& g,
                                      const tensor::DenseTensor& params,
                                      std::size_t block_size, std::size_t k,
                                      float eps = 1e-8f);

/// Keep blocks whose block gradient norm exceeds `threshold` — Block
/// Threshold.
tensor::DenseTensor block_threshold(const tensor::DenseTensor& g,
                                    std::size_t block_size, double threshold);

/// A compressor as a reusable function object (for error feedback / the
/// trainer): maps gradient -> sparsified gradient.
using Compressor = std::function<tensor::DenseTensor(const tensor::DenseTensor&)>;

/// Error feedback (Karimireddy et al.): compress (gradient + memory), keep
/// the residual in memory. Guarantees convergence for any delta-compressor.
class ErrorFeedback {
 public:
  explicit ErrorFeedback(std::size_t n) : memory_(n) {}

  /// Returns C(g + m) and updates m <- (g + m) - C(g + m).
  tensor::DenseTensor step(const tensor::DenseTensor& g,
                           const Compressor& compressor);

  const tensor::DenseTensor& memory() const { return memory_; }
  /// Norm of the accumulated residual (diagnostic).
  double memory_norm() const { return memory_.l2_norm(); }

 private:
  tensor::DenseTensor memory_;
};

/// Empirical delta estimate for a compressor (Appendix C): measures
/// E||x - C(x)||^2 / ||x||^2 over `trials` random inputs and returns
/// delta = 1 - that ratio. Block Random-k and Block Top-k must satisfy
/// delta >= k / num_blocks.
double estimate_delta(const Compressor& compressor, std::size_t n,
                      std::size_t trials, sim::Rng& rng);

}  // namespace omr::compress
