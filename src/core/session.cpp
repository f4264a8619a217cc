#include "core/session.h"

#include <stdexcept>

#include "core/run_context.h"

namespace omr::core {

Session::Session(const Config& cfg, std::size_t n_workers,
                 const ClusterSpec& cluster) {
  if (cluster.faults.enabled()) {
    // Fault injection is per-run state (crash events, verdicts, watchdog);
    // a long-lived Session would carry it across collectives. Documented
    // limitation — see docs/ROBUSTNESS.md.
    throw std::invalid_argument(
        "fault injection is not supported on Session; dispatch one-shot "
        "runs through CollectiveAlgorithm::run() (core::run_collective)");
  }
  ctx_ = std::make_unique<RunContext>(cfg, n_workers, cluster,
                                      /*traced=*/true);
}

Session::~Session() = default;

std::size_t Session::n_workers() const { return ctx_->n_workers(); }

sim::Time Session::now() const { return ctx_->simulator().now(); }

RunStats Session::allreduce(std::vector<tensor::DenseTensor>& tensors,
                            bool verify) {
  return run(tensors, verify, "allreduce");
}

RunStats Session::run(std::vector<tensor::DenseTensor>& tensors, bool verify,
                      const char* label) {
  const RunStats stats =
      ctx_->run_collective(tensors, verify, label, collectives_run_);
  ++collectives_run_;
  last_report_ = ctx_->report(label, stats, tensors.front().size());
  return stats;
}

RunStats Session::allgather(std::vector<tensor::DenseTensor>& shards,
                            tensor::DenseTensor& out, bool verify) {
  if (shards.size() != n_workers()) {
    throw std::invalid_argument("shard count != worker count");
  }
  std::size_t total = 0;
  for (const auto& s : shards) total += s.size();
  // Place each worker's shard at its offset; all other positions are zero,
  // so the engine transmits only each worker's own blocks.
  std::vector<tensor::DenseTensor> inputs;
  inputs.reserve(shards.size());
  std::size_t offset = 0;
  for (const auto& s : shards) {
    tensor::DenseTensor t(total);
    for (std::size_t i = 0; i < s.size(); ++i) t[offset + i] = s[i];
    inputs.push_back(std::move(t));
    offset += s.size();
  }
  RunStats stats = run(inputs, verify, "allgather");
  out = inputs.front();
  return stats;
}

RunStats Session::broadcast(const tensor::DenseTensor& root_data,
                            std::size_t root,
                            std::vector<tensor::DenseTensor>& outputs,
                            bool verify) {
  if (root >= n_workers()) throw std::invalid_argument("bad root");
  std::vector<tensor::DenseTensor> inputs(
      n_workers(), tensor::DenseTensor(root_data.size()));
  inputs[root] = root_data;
  RunStats stats = run(inputs, verify, "broadcast");
  outputs = std::move(inputs);
  return stats;
}

}  // namespace omr::core
