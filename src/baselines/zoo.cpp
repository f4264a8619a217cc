#include "baselines/zoo.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "baselines/agsparse.h"
#include "baselines/oktopk.h"
#include "baselines/parameter_server.h"
#include "baselines/ring.h"
#include "baselines/sketch_reducer.h"
#include "baselines/sparcml.h"
#include "core/algorithm.h"
#include "tensor/coo.h"

namespace omr::baselines {

namespace {

using core::AlgoCapabilities;
using core::ClusterSpec;
using core::CollectiveAlgorithm;
using core::Config;
using core::RunStats;

/// Baselines run over the same fabric parameters as the engine; the
/// pipelining chunk defaults to the BaselineConfig value every bench has
/// always used, so registry dispatch reproduces the historical numbers
/// exactly.
BaselineConfig derive_config(const ClusterSpec& cluster) {
  BaselineConfig b;
  b.bandwidth_bps = cluster.fabric.worker_bandwidth_bps;
  b.one_way_latency = cluster.fabric.one_way_latency;
  return b;
}

RunStats to_run_stats(const BaselineStats& bs, std::size_t n_workers) {
  RunStats rs;
  rs.completion_time = bs.completion_time;
  rs.worker_finish.assign(n_workers, bs.completion_time);
  rs.worker_data_bytes.assign(
      n_workers, bs.total_tx_bytes / std::max<std::size_t>(1, n_workers));
  return rs;
}

/// Every worker ends with `result`: copies for all but the last, which
/// takes it.
void broadcast_result(std::vector<tensor::DenseTensor>& tensors,
                      tensor::DenseTensor result) {
  for (std::size_t w = 0; w + 1 < tensors.size(); ++w) tensors[w] = result;
  tensors.back() = std::move(result);
}

class RingAlgo final : public CollectiveAlgorithm {
 public:
  std::string name() const override { return "ring"; }
  AlgoCapabilities capabilities() const override { return {}; }
  RunStats run(std::vector<tensor::DenseTensor>& tensors, const Config&,
               const ClusterSpec& cluster) override {
    return to_run_stats(
        detail::ring_allreduce(tensors, derive_config(cluster)),
        tensors.size());
  }
};

class AgSparseAlgo final : public CollectiveAlgorithm {
 public:
  AgSparseAlgo(std::string name, AgStack stack)
      : name_(std::move(name)), stack_(stack) {}
  std::string name() const override { return name_; }
  AlgoCapabilities capabilities() const override { return {}; }
  RunStats run(std::vector<tensor::DenseTensor>& tensors, const Config&,
               const ClusterSpec& cluster) override {
    const BaselineStats bs = tensor::reduce_as_coo(
        tensors, [&](const auto& coo, tensor::CooTensor& result) {
          return detail::agsparse_allreduce(coo, result, derive_config(cluster),
                                            stack_);
        });
    return to_run_stats(bs, tensors.size());
  }

 private:
  std::string name_;
  AgStack stack_;
};

class SparcmlAlgo final : public CollectiveAlgorithm {
 public:
  /// `variant` nullopt-style: has_variant_ false = cost-model dispatch.
  SparcmlAlgo() : name_("sparcml"), has_variant_(false) {}
  SparcmlAlgo(std::string name, SparcmlVariant variant)
      : name_(std::move(name)), has_variant_(true), variant_(variant) {}
  std::string name() const override { return name_; }
  AlgoCapabilities capabilities() const override { return {}; }
  RunStats run(std::vector<tensor::DenseTensor>& tensors, const Config&,
               const ClusterSpec& cluster) override {
    const BaselineStats bs = tensor::reduce_as_coo(
        tensors, [&](const auto& coo, tensor::CooTensor& result) {
          SparcmlVariant variant = variant_;
          if (!has_variant_) {
            std::size_t max_nnz = 0;
            for (const auto& t : coo) max_nnz = std::max(max_nnz, t.nnz());
            variant = detail::sparcml_choose_variant(coo.front().dim, max_nnz,
                                                     coo.size());
          }
          return detail::sparcml_allreduce(coo, result, derive_config(cluster),
                                           variant);
        });
    return to_run_stats(bs, tensors.size());
  }

 private:
  std::string name_;
  bool has_variant_;
  SparcmlVariant variant_ = SparcmlVariant::kSsarSplitAllgather;
};

class PsDenseAlgo final : public CollectiveAlgorithm {
 public:
  std::string name() const override { return "ps"; }
  AlgoCapabilities capabilities() const override { return {}; }
  RunStats run(std::vector<tensor::DenseTensor>& tensors, const Config&,
               const ClusterSpec& cluster) override {
    // Colocated: one server shard per worker NIC, matching ClusterSpec's
    // deployment semantics (n_aggregator_nodes is ignored there).
    const bool colocated =
        cluster.deployment == core::Deployment::kColocated;
    return to_run_stats(
        detail::ps_dense_allreduce(
            tensors, derive_config(cluster),
            colocated ? tensors.size()
                      : std::max<std::size_t>(1, cluster.n_aggregator_nodes),
            colocated),
        tensors.size());
  }
};

class PsSparseAlgo final : public CollectiveAlgorithm {
 public:
  std::string name() const override { return "ps_sparse"; }
  AlgoCapabilities capabilities() const override { return {}; }
  RunStats run(std::vector<tensor::DenseTensor>& tensors, const Config&,
               const ClusterSpec& cluster) override {
    const bool colocated =
        cluster.deployment == core::Deployment::kColocated;
    const std::size_t n_servers =
        colocated ? tensors.size()
                  : std::max<std::size_t>(1, cluster.n_aggregator_nodes);
    const BaselineStats bs = tensor::reduce_as_coo(
        tensors, [&](const auto& coo, tensor::CooTensor& result) {
          return detail::ps_sparse_allreduce(
              coo, result, derive_config(cluster), n_servers, colocated);
        });
    return to_run_stats(bs, tensors.size());
  }
};

class ParallaxAlgo final : public CollectiveAlgorithm {
 public:
  std::string name() const override { return "parallax"; }
  AlgoCapabilities capabilities() const override { return {}; }
  RunStats run(std::vector<tensor::DenseTensor>& tensors, const Config&,
               const ClusterSpec& cluster) override {
    const BaselineStats bs =
        detail::parallax_allreduce(tensors, derive_config(cluster));
    // The oracle charges the cheaper path's time; the reduction itself is
    // the plain sum either way.
    tensor::DenseTensor reduced =
        tensor::reference_sum({tensors.data(), tensors.size()});
    for (auto& t : tensors) t = reduced;
    return to_run_stats(bs, tensors.size());
  }
};

class OkTopkAlgo final : public CollectiveAlgorithm {
 public:
  std::string name() const override { return "oktopk"; }
  AlgoCapabilities capabilities() const override { return {}; }
  RunStats run(std::vector<tensor::DenseTensor>& tensors, const Config&,
               const ClusterSpec& cluster) override {
    // k = 0: every non-zero survives, so the balanced split-allreduce
    // schedule is exact; sparsifying top-k runs go through
    // oktopk_allreduce directly.
    const BaselineStats bs = tensor::reduce_as_coo(
        tensors, [&](const auto& coo, tensor::CooTensor& result) {
          OkTopkResult r = oktopk_allreduce(coo, derive_config(cluster), {});
          result = std::move(r.result);
          return r.stats;
        });
    return to_run_stats(bs, tensors.size());
  }
};

class SketchAlgo final : public CollectiveAlgorithm {
 public:
  std::string name() const override { return "sketch"; }
  AlgoCapabilities capabilities() const override { return {}; }
  RunStats run(std::vector<tensor::DenseTensor>& tensors, const Config& cfg,
               const ClusterSpec& cluster) override {
    SketchOptions opts;
    opts.block_elements = cfg.block_size;
    opts.seed = cluster.fabric.seed;
    SketchResult r = sketch_allreduce(tensors, derive_config(cluster), opts);
    broadcast_result(tensors, std::move(r.result));
    return to_run_stats(r.stats, tensors.size());
  }
  double verify_error(const tensor::DenseTensor& result,
                      const tensor::DenseTensor& reference) const override {
    // The sketch guarantee lives in L2: individual entries keep O(1)
    // collision error at any width, but the L2 distance shrinks with it.
    return tensor::l2_diff(result, reference);
  }
  double verify_tolerance(const tensor::DenseTensor& reference,
                          std::size_t) const override {
    // Reconstruct the width the run derives: the reduced support is the
    // union support when no contributions cancel exactly.
    const SketchOptions defaults;
    const std::size_t width = std::max<std::size_t>(
        16, static_cast<std::size_t>(std::llround(
                defaults.width_factor *
                static_cast<double>(reference.nnz()))));
    return sketch_error_bound(reference.l2_norm(), reference.nnz(), width);
  }
};

std::once_flag g_zoo_registered;

}  // namespace

void register_zoo() {
  std::call_once(g_zoo_registered, [] {
    auto& reg = core::CollectiveRegistry::global();
    reg.register_algorithm(std::make_unique<RingAlgo>());
    reg.register_algorithm(
        std::make_unique<AgSparseAlgo>("agsparse", AgStack::kNccl));
    reg.register_algorithm(
        std::make_unique<AgSparseAlgo>("agsparse_gloo", AgStack::kGloo));
    reg.register_algorithm(std::make_unique<SparcmlAlgo>());
    reg.register_algorithm(std::make_unique<SparcmlAlgo>(
        "sparcml_ssar", SparcmlVariant::kSsarSplitAllgather));
    reg.register_algorithm(std::make_unique<SparcmlAlgo>(
        "sparcml_dsar", SparcmlVariant::kDsarSplitAllgather));
    reg.register_algorithm(std::make_unique<PsDenseAlgo>());
    reg.register_algorithm(std::make_unique<PsSparseAlgo>());
    reg.register_algorithm(std::make_unique<ParallaxAlgo>());
    reg.register_algorithm(std::make_unique<OkTopkAlgo>());
    reg.register_algorithm(std::make_unique<SketchAlgo>());
  });
}

}  // namespace omr::baselines
