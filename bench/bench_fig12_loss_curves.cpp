// Fig. 12: median training-loss curves (10 runs, EMA-smoothed with
// alpha = 0.5) for the block compression methods vs no compression.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "compress/compressors.h"
#include "ddl/trainer.h"
#include "tensor/blocks.h"

using namespace omr;

namespace {

constexpr std::size_t kRuns = 10;
constexpr std::size_t kIters = 250;

std::vector<double> median_curve(
    const std::optional<ddl::CompressionSpec>& spec_template,
    bool randomk) {
  std::vector<std::vector<double>> curves;
  for (std::size_t run = 0; run < kRuns; ++run) {
    ddl::TrainerConfig cfg;
    cfg.iterations = kIters;
    cfg.n_workers = 4;
    cfg.seed = 100 + run;
    std::optional<ddl::CompressionSpec> spec = spec_template;
    if (spec && randomk) {
      // Fresh sampling RNG per run.
      const std::size_t bs = ddl::kEmbedDim * 4;
      const std::size_t nb =
          tensor::num_blocks(ddl::model_dimension(cfg), bs);
      const std::size_t k = std::max<std::size_t>(1, nb / 100);
      auto rng = std::make_shared<sim::Rng>(run * 7 + 1);
      spec->compressor = [bs, k, rng](const tensor::DenseTensor& g) {
        return compress::block_random_k(g, bs, k, *rng);
      };
    }
    curves.push_back(ddl::train_distributed(cfg, spec).loss_curve);
  }
  std::vector<double> median(kIters);
  for (std::size_t i = 0; i < kIters; ++i) {
    std::vector<double> col;
    for (const auto& c : curves) col.push_back(c[i]);
    std::nth_element(col.begin(), col.begin() + kRuns / 2, col.end());
    median[i] = col[kRuns / 2];
  }
  // EMA smoothing, alpha = 0.5 (as the figure caption states).
  for (std::size_t i = 1; i < median.size(); ++i) {
    median[i] = 0.5 * median[i] + 0.5 * median[i - 1];
  }
  return median;
}

}  // namespace

int main() {
  bench::banner("Figure 12",
                "Median training loss, 10 runs, EMA-smoothed (k=1%)");
  ddl::TrainerConfig probe;
  const std::size_t bs = ddl::kEmbedDim * 4;
  const std::size_t nb = tensor::num_blocks(ddl::model_dimension(probe), bs);
  const std::size_t k = std::max<std::size_t>(1, nb / 100);

  struct Series {
    const char* name;
    std::vector<double> curve;
  };
  std::vector<Series> series;
  series.push_back({"None", median_curve(std::nullopt, false)});

  ddl::CompressionSpec spec;
  spec.error_feedback = true;
  spec.name = "Block RandomK";
  series.push_back({"Block RandomK", median_curve(spec, true)});

  spec.compressor = [bs, k](const tensor::DenseTensor& g) {
    return compress::block_top_k(g, bs, k);
  };
  spec.name = "Block TopK";
  series.push_back({"Block TopK", median_curve(spec, false)});

  spec.compressor = [bs, k](const tensor::DenseTensor& g) {
    tensor::DenseTensor ones(g.size(), 1.0f);
    return compress::block_top_k_ratio(g, ones, bs, k);
  };
  spec.name = "Block TopK Ratio";
  series.push_back({"Block TopK Ratio", median_curve(spec, false)});

  spec.compressor = [bs](const tensor::DenseTensor& g) {
    return compress::block_threshold(g, bs, 0.06);
  };
  spec.name = "Block Threshold";
  series.push_back({"Block Threshold", median_curve(spec, false)});

  bench::row({"iter", "None", "RandomK", "TopK", "TopKRatio", "Threshold"});
  for (std::size_t i = 0; i < kIters; i += 25) {
    std::vector<std::string> cells{std::to_string(i)};
    for (const auto& s : series) cells.push_back(bench::fmt(s.curve[i], 4));
    bench::row(cells);
  }
  std::vector<std::string> last{"final"};
  for (const auto& s : series) last.push_back(bench::fmt(s.curve.back(), 4));
  bench::row(last);
  std::printf(
      "\nPaper shape check: every block-compressed curve tracks the\n"
      "uncompressed one and converges (error-feedback theory, §4).\n");
  return 0;
}
