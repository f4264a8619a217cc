#include "core/selector.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "perfmodel/perfmodel.h"
#include "sim/time.h"

namespace omr::core {

namespace {

perfmodel::ModelParams model_params(std::size_t n_workers,
                                    std::size_t elements, double density,
                                    const ClusterSpec& cluster) {
  perfmodel::ModelParams p;
  p.n_workers = n_workers;
  p.bandwidth_bps = cluster.fabric.worker_bandwidth_bps;
  p.alpha_s = sim::to_seconds(cluster.fabric.one_way_latency);
  p.tensor_bytes = static_cast<double>(elements) * sizeof(float);
  p.density = std::clamp(density, 0.0, 1.0);
  p.colocated = cluster.deployment == Deployment::kColocated;
  return p;
}

/// Mirror a CodecSpec into the model's codec cost terms. The per-packet
/// overhead is amortized over the packet's elements, and the whole
/// per-element cost is divided by the engine's stream parallelism: the
/// worker charges encode/decode per packet on each stream's own send
/// chain, and the streams progress concurrently, so only 1/num_streams of
/// the total encode work sits on the critical path.
void apply_codec_params(perfmodel::ModelParams& p, const Config& cfg) {
  if (!cfg.codec.enabled()) return;
  p.codec_bits_per_element =
      compress::codec_bits_per_element(cfg.codec.codec);
  p.codec_setup_s = kCodecSetupNs * 1e-9;
  const double per_element =
      kCodecNsPerElement +
      kCodecPacketOverheadNs /
          static_cast<double>(std::max<std::size_t>(1, cfg.packet_elements));
  p.codec_ns_per_element =
      per_element / static_cast<double>(std::max<std::size_t>(
                        1, cfg.num_streams));
}

/// Ratio-map key for an (algorithm, codec) lane: the bare algorithm name
/// when the codec dimension is not in play (backward compatible with
/// pre-codec observation streams).
std::string lane_key(const std::string& algorithm, const std::string& codec) {
  return codec.empty() ? algorithm : algorithm + "|" + codec;
}

}  // namespace

OnlineSelector::OnlineSelector(SelectorConfig cfg) : cfg_(std::move(cfg)) {}

OnlineSelector::BucketKey OnlineSelector::bucket(std::size_t elements,
                                                 double density) {
  int log2_size = 0;
  for (std::size_t reach = 1; reach < elements; reach *= 2) ++log2_size;
  const int decile = std::min(
      9, static_cast<int>(std::clamp(density, 0.0, 1.0) * 10.0));
  return {log2_size, decile};
}

SelectorDecision OnlineSelector::choose(std::size_t n_workers,
                                        std::size_t elements, double density,
                                        const Config& cfg,
                                        const ClusterSpec& cluster) const {
  const auto& registry = CollectiveRegistry::global();
  const perfmodel::ModelParams base_params =
      model_params(n_workers, elements, density, cluster);
  const BucketKey key = bucket(elements, density);

  // Codec lanes: the configured list, or a single "" lane meaning "leave
  // the caller's Config::codec alone" (the pre-codec behavior).
  const std::vector<std::string> lanes =
      cfg_.codecs.empty() ? std::vector<std::string>{""} : cfg_.codecs;

  SelectorDecision best;
  bool found = false;
  for (const std::string& candidate : cfg_.candidates) {
    // at() throws on a name nothing registered: a misspelled candidate or
    // a missing register_zoo() is an error, not a narrower choice.
    const AlgoCapabilities caps = registry.at(candidate).capabilities();

    // Correction ratios already learned for this candidate's lanes in this
    // bucket. An unobserved lane inherits their mean instead of the
    // optimistic 1.0: the model's error is dominated by lane-independent
    // engine overheads (protocol rounds, per-packet latency), so one
    // observation calibrates every lane at once — without this the
    // selector round-robins through all lanes before settling.
    double ratio_sum = 0.0;
    std::size_t ratio_count = 0;
    for (const std::string& lane : lanes) {
      auto it = ratio_.find({lane_key(candidate, lane), key});
      if (it != ratio_.end()) {
        ratio_sum += it->second;
        ++ratio_count;
      }
    }
    const double fallback_ratio =
        ratio_count == 0 ? 1.0 : ratio_sum / static_cast<double>(ratio_count);

    for (const std::string& lane : lanes) {
      Config lane_cfg = cfg;
      if (!lane.empty()) {
        lane_cfg.codec.codec = compress::codec_from_name(lane);
      }
      if (!capabilities_allow(caps, lane_cfg, cluster)) continue;
      perfmodel::ModelParams params = base_params;
      if (!cfg_.codecs.empty() && caps.supports_codec) {
        // With codec lanes in play, score the engine candidates on both
        // legs of the wire: the result leg carries union-density blocks,
        // which is what the codec actually shrinks at low per-worker
        // density. Without codec lanes the prior stays the paper's
        // single-leg model (backward compatible).
        params.density =
            std::max(params.density, perfmodel::union_density(params));
      }
      apply_codec_params(params, lane_cfg);
      const double predicted = perfmodel::predict_seconds(candidate, params);
      auto it = ratio_.find({lane_key(candidate, lane), key});
      const double ratio = it == ratio_.end() ? fallback_ratio : it->second;
      const double corrected = predicted * ratio;
      // Strict `<` keeps ties on the earlier (candidate, lane) entry, so
      // the choice is independent of map iteration details.
      if (!found || corrected < best.corrected_seconds) {
        best.algorithm = candidate;
        best.codec = lane;
        best.predicted_seconds = predicted;
        best.corrected_seconds = corrected;
        found = true;
      }
    }
  }
  if (!found) {
    throw std::invalid_argument(
        "OnlineSelector: no registered candidate supports the requested "
        "configuration");
  }
  return best;
}

void OnlineSelector::observe(const std::string& algorithm,
                             const std::string& codec, std::size_t elements,
                             double density, double predicted_seconds,
                             double observed_seconds) {
  if (predicted_seconds <= 0.0 || observed_seconds <= 0.0) return;
  const double sample = observed_seconds / predicted_seconds;
  const auto key =
      std::make_pair(lane_key(algorithm, codec), bucket(elements, density));
  auto it = ratio_.find(key);
  if (it == ratio_.end()) {
    ratio_.emplace(key, sample);
  } else {
    it->second += cfg_.ewma_alpha * (sample - it->second);
  }
}

double OnlineSelector::measured_density(
    const std::vector<tensor::DenseTensor>& ts) {
  if (ts.empty() || ts.front().size() == 0) return 1.0;
  double sum = 0.0;
  for (const auto& t : ts) {
    sum += static_cast<double>(t.nnz()) / static_cast<double>(t.size());
  }
  return sum / static_cast<double>(ts.size());
}

RunStats OnlineSelector::run(std::vector<tensor::DenseTensor>& tensors,
                             const Config& cfg, const ClusterSpec& cluster,
                             SelectorDecision* decision, bool verify) {
  if (tensors.empty()) {
    throw std::invalid_argument("OnlineSelector::run needs >= 1 tensor");
  }
  const std::size_t elements = tensors.front().size();
  const double density = measured_density(tensors);
  const SelectorDecision d =
      choose(tensors.size(), elements, density, cfg, cluster);
  Config run_cfg = cfg;
  if (!d.codec.empty()) {
    run_cfg.codec.codec = compress::codec_from_name(d.codec);
  }
  RunStats stats =
      run_collective(d.algorithm, tensors, run_cfg, cluster, verify);
  observe(d.algorithm, d.codec, elements, density, d.predicted_seconds,
          sim::to_seconds(stats.completion_time));
  if (decision != nullptr) *decision = d;
  return stats;
}

}  // namespace omr::core
