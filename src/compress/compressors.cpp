#include "compress/compressors.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "tensor/blocks.h"

namespace omr::compress {

namespace {

/// Copy the selected blocks of `g` into a fresh zero tensor.
tensor::DenseTensor apply_block_mask(const tensor::DenseTensor& g,
                                     std::size_t block_size,
                                     const std::vector<std::size_t>& blocks) {
  tensor::DenseTensor out(g.size());
  for (std::size_t b : blocks) {
    const std::size_t lo = b * block_size;
    const std::size_t hi = std::min(lo + block_size, g.size());
    for (std::size_t i = lo; i < hi; ++i) out[i] = g[i];
  }
  return out;
}

/// Squared l2 norm of each block.
std::vector<double> block_sq_norms(const tensor::DenseTensor& g,
                                   std::size_t block_size) {
  const std::size_t nb = tensor::num_blocks(g.size(), block_size);
  std::vector<double> norms(nb, 0.0);
  for (std::size_t b = 0; b < nb; ++b) {
    const std::size_t last = std::min(g.size(), (b + 1) * block_size);
    double sum = 0.0;
    for (std::size_t i = b * block_size; i < last; ++i) {
      sum += static_cast<double>(g[i]) * g[i];
    }
    norms[b] = sum;
  }
  return norms;
}

/// Indices of the k largest entries of `score`.
std::vector<std::size_t> top_k_indices(const std::vector<double>& score,
                                       std::size_t k) {
  std::vector<std::size_t> idx(score.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  k = std::min(k, idx.size());
  std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k),
                    idx.end(), [&score](std::size_t a, std::size_t b) {
                      return score[a] > score[b];
                    });
  idx.resize(k);
  return idx;
}

}  // namespace

tensor::DenseTensor block_random_k(const tensor::DenseTensor& g,
                                   std::size_t block_size, std::size_t k,
                                   sim::Rng& rng) {
  const std::size_t nb = tensor::num_blocks(g.size(), block_size);
  k = std::min(k, nb);
  // Floyd's sampling of k distinct blocks.
  std::vector<std::size_t> chosen;
  chosen.reserve(k);
  std::vector<std::uint8_t> mark(nb, 0);
  for (std::size_t j = nb - k; j < nb; ++j) {
    std::size_t t = rng.next_below(j + 1);
    if (mark[t]) t = j;
    mark[t] = 1;
    chosen.push_back(t);
  }
  return apply_block_mask(g, block_size, chosen);
}

tensor::DenseTensor block_top_k(const tensor::DenseTensor& g,
                                std::size_t block_size, std::size_t k) {
  return apply_block_mask(g, block_size,
                          top_k_indices(block_sq_norms(g, block_size), k));
}

tensor::DenseTensor block_top_k_ratio(const tensor::DenseTensor& g,
                                      const tensor::DenseTensor& params,
                                      std::size_t block_size, std::size_t k,
                                      float eps) {
  if (params.size() != g.size()) {
    throw std::invalid_argument("params/gradient size mismatch");
  }
  const std::size_t nb = tensor::num_blocks(g.size(), block_size);
  std::vector<double> score(nb, 0.0);
  for (std::size_t b = 0; b < nb; ++b) {
    const std::size_t last = std::min(g.size(), (b + 1) * block_size);
    double sum = 0.0;
    for (std::size_t i = b * block_size; i < last; ++i) {
      const double denom = std::max(std::abs(params[i]), eps);
      const double r = static_cast<double>(g[i]) / denom;
      sum += r * r;
    }
    score[b] = sum;
  }
  return apply_block_mask(g, block_size, top_k_indices(score, k));
}

tensor::DenseTensor block_threshold(const tensor::DenseTensor& g,
                                    std::size_t block_size, double threshold) {
  const std::vector<double> norms = block_sq_norms(g, block_size);
  std::vector<std::size_t> chosen;
  const double sq = threshold * threshold;
  for (std::size_t b = 0; b < norms.size(); ++b) {
    if (norms[b] > sq) chosen.push_back(b);
  }
  return apply_block_mask(g, block_size, chosen);
}

tensor::DenseTensor ErrorFeedback::step(const tensor::DenseTensor& g,
                                        const Compressor& compressor) {
  if (g.size() != memory_.size()) {
    throw std::invalid_argument("gradient/memory size mismatch");
  }
  tensor::DenseTensor corrected = g;
  corrected.add_inplace(memory_);
  tensor::DenseTensor sent = compressor(corrected);
  // memory <- corrected - sent
  memory_ = std::move(corrected);
  memory_.axpy_inplace(-1.0f, sent);
  return sent;
}

double estimate_delta(const Compressor& compressor, std::size_t n,
                      std::size_t trials, sim::Rng& rng) {
  double worst_ratio = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    tensor::DenseTensor x(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = static_cast<float>(rng.next_normal());
    }
    const tensor::DenseTensor c = compressor(x);
    double err = 0.0, norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = static_cast<double>(x[i]) - c[i];
      err += d * d;
      norm += static_cast<double>(x[i]) * x[i];
    }
    if (norm > 0) worst_ratio = std::max(worst_ratio, err / norm);
  }
  return 1.0 - worst_ratio;
}

}  // namespace omr::compress
