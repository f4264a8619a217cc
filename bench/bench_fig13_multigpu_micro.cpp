// Fig. 13: multi-GPU microbenchmark — AllReduce on 100 MB tensors across
// 6 servers x 8 GPUs (NVLink intra, 100 Gbps inter), OmniReduce vs NCCL,
// sparsity sweep.
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/registry_util.h"
#include "core/hierarchical.h"
#include "sim/rng.h"
#include "tensor/generators.h"

using namespace omr;

namespace {

constexpr std::size_t kServers = 6;
constexpr std::size_t kGpus = 8;

std::vector<std::vector<tensor::DenseTensor>> make(std::size_t n, double s,
                                                   std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::vector<tensor::DenseTensor>> out(kServers);
  for (auto& server : out) {
    // GPUs of one server process one batch shard: their non-zero positions
    // coincide (kAll), so the server-level sum keeps the target sparsity;
    // across servers the positions overlap randomly, as in §6.1.
    server = tensor::make_multi_worker(kGpus, n, 256, s,
                                       tensor::OverlapMode::kAll, rng);
  }
  return out;
}

/// NCCL in this topology: NVLink ring inside each server, 6-node ring
/// across servers — the same two-layer structure with ring for layer 2.
double nccl_ms(std::size_t n, std::uint64_t seed) {
  auto grads = make(n, 0.0, seed);
  std::vector<tensor::DenseTensor> server_sums;
  for (auto& server : grads) {
    tensor::DenseTensor sum(n);
    for (const auto& g : server) sum.add_inplace(g);
    server_sums.push_back(std::move(sum));
  }
  const double inter = sim::to_seconds(
      bench::registry_run("ring", server_sums, bench::flat_cluster(100e9, 1))
          .completion_time);
  const double intra =
      2.0 * (static_cast<double>(kGpus) - 1.0) / kGpus * n * 4.0 /
      core::kNvlinkBandwidthBps;
  return (inter + intra) * 1e3;
}

double omni_ms(std::size_t n, double s, std::uint64_t seed) {
  auto grads = make(n, s, seed);
  core::Config cfg = core::Config::for_transport(core::Transport::kRdma);
  core::FabricConfig fabric;
  fabric.worker_bandwidth_bps = 100e9;
  fabric.aggregator_bandwidth_bps = 100e9;
  fabric.seed = seed;
  device::DeviceModel dev;
  core::HierarchicalStats st = core::run_hierarchical_allreduce(
      grads, cfg, core::ClusterSpec::dedicated(kServers, fabric, dev),
      /*verify=*/false);
  return sim::to_milliseconds(st.total);
}

}  // namespace

int main() {
  const std::size_t n = bench::micro_tensor_elements();
  bench::banner("Figure 13",
                "Multi-GPU AllReduce, 6 servers x 8 V100 (ms)");
  std::printf("tensor: %.1f MB\n", n * 4.0 / 1e6);
  bench::row({"sparsity", "NCCL", "OmniReduce", "speedup"});
  const double base = nccl_ms(n, 1);
  for (double s : {0.0, 0.2, 0.6, 0.8, 0.9, 0.92, 0.96, 0.98, 0.99}) {
    const double o = omni_ms(n, s, 2);
    bench::row({bench::fmt_pct(s, 0), bench::fmt(base), bench::fmt(o),
                bench::fmt(base / o, 2)});
  }
  std::printf(
      "\nPaper shape check: OmniReduce always at least matches NCCL and\n"
      "reaches ~2.5x at 99%% sparsity — smaller than single-GPU gains\n"
      "because the 8-GPU union densifies the inter-server tensor.\n");
  return 0;
}
