#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/algorithm.h"
#include "core/cluster.h"
#include "core/config.h"
#include "core/engine.h"
#include "tensor/dense.h"

namespace omr::core {

/// OnlineSelector configuration. The default candidate set spans the
/// interesting trade-off space: dense ring (wins when density is high and
/// the cluster is colocated), OmniReduce (block-sparse engine), Ok-Topk
/// (balanced split-allreduce over (key, value) pairs) and the count-sketch
/// reducer (sub-linear payload at extreme sparsity).
struct SelectorConfig {
  std::vector<std::string> candidates = {"ring", "omnireduce", "oktopk",
                                         "sketch"};
  /// Wire-codec lanes to score per candidate ("none", "fp8", "q8", "q6",
  /// "q4" — see compress::codec_names()). Empty (the default) keeps the
  /// caller's Config::codec untouched and scores a single lane, exactly
  /// the pre-codec behavior. Candidates without codec support are scored
  /// only on the "none" lane.
  std::vector<std::string> codecs = {};
  /// Smoothing for the observed/predicted correction ratio. 1.0 = trust
  /// only the latest observation, 0.0 = never learn.
  double ewma_alpha = 0.3;
};

/// One per-tensor choice: which algorithm and what the model expected.
struct SelectorDecision {
  std::string algorithm;
  /// Chosen wire-codec lane ("none", "fp8", ...). Empty when
  /// SelectorConfig::codecs is empty (codec dimension not in play — the
  /// caller's Config::codec is used as-is).
  std::string codec;
  /// perfmodel prediction for the chosen (algorithm, codec) (seconds).
  double predicted_seconds = 0.0;
  /// Prediction times the learned correction ratio — the score the
  /// selector actually minimized.
  double corrected_seconds = 0.0;
};

/// Online per-tensor algorithm selector: replaces the Parallax-style
/// static oracle with a model-guided bandit. For each tensor it scores
/// every viable candidate as
///
///   score = perfmodel::predict_seconds(algo) * ratio(algo, bucket)
///
/// where ratio is an EWMA of observed/predicted completion time, learned
/// per (log2 tensor size, density decile) bucket and initialized
/// optimistically at 1.0 (trust the model until telemetry says otherwise).
/// Candidates whose capabilities cannot simulate the requested (Config,
/// ClusterSpec) are dropped up front. Selection is a pure function of the
/// prior observations — no RNG — so replaying a training trace reproduces
/// the same choices bit-identically.
class OnlineSelector {
 public:
  explicit OnlineSelector(SelectorConfig cfg = {});

  /// Score the candidates for a tensor with `elements` elements and
  /// fraction `density` non-zero, without running anything. Throws
  /// std::invalid_argument when a candidate is not registered or when no
  /// candidate is viable.
  SelectorDecision choose(std::size_t n_workers, std::size_t elements,
                          double density, const Config& cfg,
                          const ClusterSpec& cluster) const;

  /// Feed back a measured completion time for a prior decision, updating
  /// the correction ratio of its (algorithm, codec, bucket) lane. `codec`
  /// must match SelectorDecision::codec ("" when the codec dimension is
  /// not in play).
  void observe(const std::string& algorithm, const std::string& codec,
               std::size_t elements, double density, double predicted_seconds,
               double observed_seconds);

  /// Convenience: choose on the tensors' own shape, dispatch through
  /// run_collective, then observe the simulated completion time. Fills
  /// `decision` when non-null.
  RunStats run(std::vector<tensor::DenseTensor>& tensors, const Config& cfg,
               const ClusterSpec& cluster, SelectorDecision* decision = nullptr,
               bool verify = false);

  const SelectorConfig& config() const { return cfg_; }

  /// Mean per-worker density of a batch of worker tensors — the D the
  /// cost models expect.
  static double measured_density(const std::vector<tensor::DenseTensor>& ts);

 private:
  /// Telemetry is pooled per (candidate, log2-size, density-decile) so a
  /// few observations generalize across a training run's tensor zoo.
  using BucketKey = std::pair<int, int>;  // (log2(elements), decile)
  static BucketKey bucket(std::size_t elements, double density);

  SelectorConfig cfg_;
  std::map<std::pair<std::string, BucketKey>, double> ratio_;
};

}  // namespace omr::core
