#include "core/session.h"

#include <stdexcept>
#include <string>

#include "core/algorithm.h"
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

const ClusterSpec& Session::cluster() const { return ctx_->cluster(); }

const telemetry::Tracer* Session::tracer() const { return ctx_->tracer(); }

void Session::set_algorithm(const std::string& name) {
  CollectiveAlgorithm& algo = CollectiveRegistry::global().at(name);
  validate_capabilities(algo.capabilities(), ctx_->config(), ctx_->cluster(),
                        name);
  algorithm_ = name;
}

RunStats Session::allreduce(std::vector<tensor::DenseTensor>& tensors,
                            bool verify) {
  if (algorithm_ == "omnireduce") {
    return run_native(tensors, verify, "allreduce");
  }
  if (tensors.size() != n_workers()) {
    throw std::invalid_argument("tensor count != worker count");
  }
  RunStats stats = core::run_collective(algorithm_, tensors, ctx_->config(),
                                        ctx_->cluster(), verify);
  if (verify && stats.completed() && !stats.verified) {
    throw std::logic_error("session result mismatch");
  }
  ++collectives_run_;
  last_report_ = make_run_report("allreduce", stats, ctx_->cluster(),
                                 n_workers(), tensors.front().size(), nullptr);
  last_report_.algorithm = algorithm_;
  return stats;
}

RunStats Session::run_native(std::vector<tensor::DenseTensor>& tensors,
                             bool verify, const char* label) {
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
  RunStats stats = run_native(inputs, verify, "allgather");
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
  RunStats stats = run_native(inputs, verify, "broadcast");
  outputs = std::move(inputs);
  return stats;
}

}  // namespace omr::core
