#include "tensor/generators.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "tensor/blocks.h"

namespace omr::tensor {

namespace {

/// Non-zero uniform value in [-1, 1] \ {0}.
float nonzero_value(sim::Rng& rng) {
  float x = rng.next_float(-1.0f, 1.0f);
  while (x == 0.0f) x = rng.next_float(-1.0f, 1.0f);
  return x;
}

/// Sample `k` distinct values from [0, n) (Floyd's algorithm).
std::vector<std::size_t> sample_distinct(std::size_t k, std::size_t n,
                                         sim::Rng& rng) {
  if (k > n) throw std::invalid_argument("sample_distinct: k > n");
  std::unordered_set<std::size_t> chosen;
  chosen.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    const std::size_t t = rng.next_below(j + 1);
    if (!chosen.insert(t).second) chosen.insert(j);
  }
  return {chosen.begin(), chosen.end()};
}

void fill_block(DenseTensor& t, std::size_t block, std::size_t block_size,
                sim::Rng& rng) {
  const std::size_t lo = block * block_size;
  const std::size_t hi = std::min(lo + block_size, t.size());
  for (std::size_t i = lo; i < hi; ++i) t[i] = nonzero_value(rng);
}

void activate_row(DenseTensor& t, std::size_t row, std::size_t row_dim,
                  std::size_t embedding_elements, sim::Rng& rng) {
  const std::size_t lo = row * row_dim;
  const std::size_t hi =
      std::min({lo + row_dim, embedding_elements, t.size()});
  for (std::size_t i = lo; i < hi; ++i) t[i] = nonzero_value(rng);
}

void fill_dense_tail(DenseTensor& t, std::size_t embedding_elements,
                     double density, sim::Rng& rng) {
  for (std::size_t i = embedding_elements; i < t.size(); ++i) {
    if (rng.next_bool(density)) t[i] = nonzero_value(rng);
  }
}

/// Throw unless `target` is in [0, 1]. Negated so a NaN fails too: the
/// callers cast a block count derived from it to an integer.
void require_sparsity(double target) {
  if (!(target >= 0.0 && target <= 1.0)) {
    throw std::invalid_argument("block sparsity out of [0,1]");
  }
}

}  // namespace

DenseTensor make_block_sparse(std::size_t n, std::size_t block_size,
                              double block_sparsity_target, sim::Rng& rng) {
  require_sparsity(block_sparsity_target);
  DenseTensor t(n);
  const std::size_t nb = num_blocks(n, block_size);
  const auto k = static_cast<std::size_t>(
      static_cast<double>(nb) * (1.0 - block_sparsity_target) + 0.5);
  for (std::size_t b : sample_distinct(k, nb, rng)) {
    fill_block(t, b, block_size, rng);
  }
  return t;
}

std::vector<DenseTensor> make_multi_worker(std::size_t n_workers,
                                           std::size_t n,
                                           std::size_t block_size,
                                           double block_sparsity_target,
                                           OverlapMode mode, sim::Rng& rng) {
  require_sparsity(block_sparsity_target);
  const std::size_t nb = num_blocks(n, block_size);
  const auto k = static_cast<std::size_t>(
      static_cast<double>(nb) * (1.0 - block_sparsity_target) + 0.5);
  std::vector<DenseTensor> out;
  out.reserve(n_workers);
  switch (mode) {
    case OverlapMode::kRandom: {
      for (std::size_t w = 0; w < n_workers; ++w) {
        out.push_back(make_block_sparse(n, block_size, block_sparsity_target,
                                        rng));
      }
      break;
    }
    case OverlapMode::kAll: {
      const auto blocks = sample_distinct(k, nb, rng);
      for (std::size_t w = 0; w < n_workers; ++w) {
        DenseTensor t(n);
        for (std::size_t b : blocks) fill_block(t, b, block_size, rng);
        out.push_back(std::move(t));
      }
      break;
    }
    case OverlapMode::kNone: {
      if (k * n_workers > nb) {
        throw std::invalid_argument(
            "no-overlap mode needs n_workers * nnz_blocks <= total blocks");
      }
      // One shuffled pool, carved into disjoint per-worker slices.
      std::vector<std::size_t> pool(nb);
      std::iota(pool.begin(), pool.end(), std::size_t{0});
      for (std::size_t i = nb; i > 1; --i) {
        std::swap(pool[i - 1], pool[rng.next_below(i)]);
      }
      for (std::size_t w = 0; w < n_workers; ++w) {
        DenseTensor t(n);
        for (std::size_t j = 0; j < k; ++j) {
          fill_block(t, pool[w * k + j], block_size, rng);
        }
        out.push_back(std::move(t));
      }
      break;
    }
  }
  return out;
}

std::vector<DenseTensor> make_multi_worker_embedding(
    std::size_t n_workers, std::size_t n, std::size_t embedding_elements,
    std::size_t row_dim, std::size_t active_rows, std::size_t hot_rows,
    double hot_fraction, double dense_tail_density, sim::Rng& rng) {
  const std::size_t total_rows =
      row_dim == 0 ? 0 : embedding_elements / row_dim;
  const std::size_t hot = std::min(hot_rows, total_rows);
  std::vector<std::size_t> hot_set =
      total_rows > 0 ? sample_distinct(hot, total_rows, rng)
                     : std::vector<std::size_t>{};
  std::vector<DenseTensor> out;
  out.reserve(n_workers);
  for (std::size_t w = 0; w < n_workers; ++w) {
    DenseTensor t(n);
    const std::size_t k = std::min(active_rows, total_rows);
    std::unordered_set<std::size_t> rows;
    rows.reserve(k);
    // Bounded attempts: with hot_fraction near 1 and a hot set smaller than
    // `active_rows`, fewer distinct rows than requested may be reachable.
    for (std::size_t attempt = 0; rows.size() < k && attempt < 32 * k + 32;
         ++attempt) {
      if (!hot_set.empty() && rng.next_bool(hot_fraction)) {
        rows.insert(hot_set[rng.next_below(hot_set.size())]);
      } else if (total_rows > 0) {
        rows.insert(rng.next_below(total_rows));
      } else {
        break;
      }
    }
    for (std::size_t row : rows) {
      activate_row(t, row, row_dim, embedding_elements, rng);
    }
    fill_dense_tail(t, embedding_elements, dense_tail_density, rng);
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace omr::tensor
