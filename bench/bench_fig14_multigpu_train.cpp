// Fig. 14: end-to-end training speedup of OmniReduce over NCCL in the
// multi-GPU, multi-node setup (6 servers x 8 GPUs, 100 Gbps).
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/registry_util.h"
#include "core/hierarchical.h"
#include "ddl/timing.h"
#include "ddl/workloads.h"
#include "sim/rng.h"

using namespace omr;

namespace {

constexpr std::size_t kServers = 6;
constexpr std::size_t kGpus = 8;
// The multi-GPU testbed uses V100s; the profile compute times are
// calibrated on the 10 Gbps P100 testbed (~1.5x slower).
constexpr double kV100Speedup = 1.5;

}  // namespace

int main() {
  const std::size_t n = bench::e2e_sample_elements();
  bench::banner("Figure 14",
                "Multi-GPU training speedup vs NCCL (6 x 8 GPUs, 100 Gbps)");
  bench::row({"model", "NCCL-sf", "Omni-sf", "speedup", "paper"});
  const struct {
    const char* name;
    double paper;
  } paper[] = {{"DeepLight", 2.6}, {"LSTM", 1.3},  {"NCF", 1.3},
               {"BERT", 1.0},      {"VGG19", 1.1}, {"ResNet152", 1.0}};
  for (const auto& pw : paper) {
    const auto& w = ddl::workload(pw.name);
    sim::Rng rng(1);
    // Per-GPU gradients; the intra-server union feeds the inter layer.
    std::vector<std::vector<tensor::DenseTensor>> grads(kServers);
    for (auto& server : grads) {
      server = ddl::sample_gradients(w, kGpus, n, rng);
    }
    const double scale =
        static_cast<double>(w.full_model_bytes) / (n * 4.0);

    // NCCL: two-layer ring (NVLink + inter-server ring on dense data).
    std::vector<tensor::DenseTensor> sums;
    for (auto& server : grads) {
      tensor::DenseTensor sum(n);
      for (const auto& g : server) sum.add_inplace(g);
      sums.push_back(std::move(sum));
    }
    auto sums_copy = sums;
    const double intra = 2.0 * (kGpus - 1.0) / kGpus * n * 4.0 /
                         core::kNvlinkBandwidthBps;
    const double nccl_comm =
        (sim::to_seconds(bench::registry_run("ring", sums_copy,
                                             bench::flat_cluster(100e9, 1))
                             .completion_time) +
         intra) *
        scale;

    // OmniReduce hierarchical.
    core::Config cfg = core::Config::for_transport(core::Transport::kRdma);
    core::FabricConfig fabric;
    fabric.worker_bandwidth_bps = 100e9;
    fabric.aggregator_bandwidth_bps = 100e9;
    core::HierarchicalStats st = core::run_hierarchical_allreduce(
        grads, cfg, core::ClusterSpec::dedicated(kServers, fabric, device::DeviceModel{}),
        /*verify=*/false);
    const double omni_comm = sim::to_seconds(st.total) * scale;

    const double tc = w.compute_time_s / kV100Speedup;
    const double t_nccl = ddl::iteration_time(tc, nccl_comm);
    const double t_omni = ddl::iteration_time(tc, omni_comm);
    bench::row({pw.name,
                bench::fmt(ddl::scaling_factor(tc, nccl_comm), 3),
                bench::fmt(ddl::scaling_factor(tc, omni_comm), 3),
                bench::fmt(t_nccl / t_omni, 2), bench::fmt(pw.paper, 1)});
  }
  std::printf(
      "\nPaper shape check: high-sparsity models (DeepLight, LSTM, NCF)\n"
      "gain 1.3-2.6x; dense models are unaffected but never slower.\n");
  return 0;
}
