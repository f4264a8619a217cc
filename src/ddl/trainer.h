#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "compress/compressors.h"
#include "sim/rng.h"
#include "tensor/dense.h"

namespace omr::ddl {

/// Embedding row width of the trainer's model.
inline constexpr std::size_t kEmbedDim = 16;

/// A real (not modelled) distributed-SGD trainer used to validate the
/// block-compression convergence claims (§4, Figs. 11/12). The task is a
/// synthetic click-through-style binary classification with an embedding
/// table — the same structure (sparse embedding gradients + small dense
/// part) that makes the paper's workloads sparse. Workers compute exact
/// gradients on disjoint batch shards; gradients are combined by averaging
/// (mathematically identical to the verified AllReduce path) after optional
/// per-worker compression with error feedback.
struct TrainerConfig {
  std::size_t vocab = 2048;           // embedding rows
  std::size_t batch_size = 256;       // global batch (split across workers)
  std::size_t iterations = 300;
  std::size_t n_workers = 8;
  std::uint64_t seed = 1;
};

/// What gradient treatment each worker applies before averaging.
struct CompressionSpec {
  compress::Compressor compressor;  // gradient -> sparsified gradient
  bool error_feedback = true;
  std::string name;
};

struct TrainResult {
  std::vector<double> loss_curve;   // training loss per iteration
  double final_loss = 0.0;
  double test_accuracy = 0.0;
  double test_f1 = 0.0;             // F1 of the positive class
  double mean_gradient_block_density = 0.0;  // at bs = kEmbedDim*4 blocks
};

/// Train with optional compression; `spec == nullopt` is the uncompressed
/// baseline.
TrainResult train_distributed(const TrainerConfig& cfg,
                              const std::optional<CompressionSpec>& spec);

/// Total parameter count of the model (embedding + context + dense + bias).
std::size_t model_dimension(const TrainerConfig& cfg);

}  // namespace omr::ddl
