#include "core/engine.h"

#include <algorithm>
#include <string>

#include "core/run_context.h"
#include "tensor/blocks.h"

namespace omr::core {

tensor::DenseTensor reference_reduce(
    const std::vector<tensor::DenseTensor>& tensors, const Config& cfg) {
  if (cfg.op == ReduceOp::kSum) return tensor::reference_sum(tensors);
  const std::size_t n = tensors.front().size();
  const std::size_t bs = cfg.block_size;
  tensor::DenseTensor out(n);
  std::vector<tensor::BlockBitmap> maps;
  maps.reserve(tensors.size());
  for (const auto& t : tensors) maps.emplace_back(t.span(), bs);
  const std::size_t nb = tensor::num_blocks(n, bs);
  for (std::size_t b = 0; b < nb; ++b) {
    const std::size_t lo = b * bs;
    const std::size_t hi = std::min(lo + bs, n);
    bool first = true;
    for (std::size_t w = 0; w < tensors.size(); ++w) {
      if (!cfg.dense_mode &&
          !maps[w].nonzero(static_cast<tensor::BlockIndex>(b))) {
        continue;
      }
      for (std::size_t i = lo; i < hi; ++i) {
        if (first) {
          out[i] = tensors[w][i];
        } else if (cfg.op == ReduceOp::kMin) {
          out[i] = std::min(out[i], tensors[w][i]);
        } else {
          out[i] = std::max(out[i], tensors[w][i]);
        }
      }
      first = false;
    }
  }
  return out;
}

RunStats run_allreduce(std::vector<tensor::DenseTensor>& tensors,
                       const Config& cfg, const ClusterSpec& cluster,
                       bool verify) {
  RunContext ctx(cfg, tensors.size(), cluster, /*traced=*/false);
  return ctx.run_collective(tensors, verify, "allreduce");
}

telemetry::RunReport run_allreduce_report(
    std::vector<tensor::DenseTensor>& tensors, const Config& cfg,
    const ClusterSpec& cluster, bool verify, const std::string& label) {
  RunContext ctx(cfg, tensors.size(), cluster, /*traced=*/true);
  const RunStats stats = ctx.run_collective(tensors, verify, label);
  return ctx.report(label, stats, tensors.front().size());
}

}  // namespace omr::core
