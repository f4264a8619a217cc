// Fig. 7: scalability of sparse AllReduce methods — speedup over dense
// NCCL as the worker count grows, at four sparsity levels (10 Gbps).
#include <array>
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/registry_util.h"
#include "core/engine.h"
#include "sim/rng.h"
#include "tensor/generators.h"

using namespace omr;

namespace {

constexpr double kBw = 10e9;

std::vector<tensor::DenseTensor> make(std::size_t workers, std::size_t n,
                                      double s, std::uint64_t seed) {
  sim::Rng rng(seed);
  return tensor::make_multi_worker(workers, n, 256, s,
                                   tensor::OverlapMode::kRandom, rng);
}

/// Registry dispatch on fresh tensors: generation seed = workers (matching
/// the old serial loop), cluster seed 1 (the engine's fabric seed).
double registry_s(const char* algo, std::size_t workers, std::size_t n,
                  double s) {
  auto ts = make(workers, n, s, workers);
  return sim::to_seconds(
      bench::registry_run(algo, ts, bench::flat_cluster(kBw, 1))
          .completion_time);
}

}  // namespace

int main() {
  const std::size_t n = bench::micro_tensor_elements();
  bench::banner("Figure 7",
                "Sparse method scalability (speedup vs dense NCCL, 10 Gbps)");
  constexpr double kSparsities[] = {0.0, 0.6, 0.8, 0.96};
  constexpr std::size_t kWorkerGrid[] = {2, 4, 8};

  // Seven independent simulations per (sparsity, workers) cell; each job
  // regenerates the inputs from seed = workers, matching the serial loop.
  bench::Sweep sweep;
  std::vector<std::array<std::size_t, 7>> rows;
  for (double s : kSparsities) {
    for (std::size_t workers : kWorkerGrid) {
      std::array<std::size_t, 7> c{};
      c[0] = sweep.add_value(
          [workers, n, s] { return registry_s("ring", workers, n, s); });
      c[1] = sweep.add_value([workers, n, s] {
        return registry_s("sparcml_ssar", workers, n, s);
      });
      c[2] = sweep.add_value([workers, n, s] {
        return registry_s("sparcml_dsar", workers, n, s);
      });
      c[3] = sweep.add_value(
          [workers, n, s] { return registry_s("agsparse", workers, n, s); });
      c[4] = sweep.add_value([workers, n, s] {
        return registry_s("agsparse_gloo", workers, n, s);
      });
      c[5] = sweep.add_value(
          [workers, n, s] { return registry_s("parallax", workers, n, s); });
      c[6] = sweep.add_value([workers, n, s] {
        auto omni_ts = make(workers, n, s, workers);
        core::Config cfg = core::Config::for_transport(core::Transport::kRdma);
        core::FabricConfig fabric;
        fabric.worker_bandwidth_bps = kBw;
        fabric.aggregator_bandwidth_bps = kBw;
        device::DeviceModel dev;
        return sim::to_seconds(
            core::run_allreduce(
                omni_ts, cfg,
                core::ClusterSpec::dedicated(workers, fabric, dev), false)
                .completion_time);
      });
      rows.push_back(c);
    }
  }
  sweep.run();

  std::size_t i = 0;
  for (double s : kSparsities) {
    std::printf("\n--- sparsity %.0f%% ---\n", s * 100);
    bench::row({"workers", "OmniReduce", "SSAR", "DSAR", "AGsp(N)",
                "AGsp(G)", "Parallax"});
    for (std::size_t workers : kWorkerGrid) {
      const auto& c = rows[i++];
      const double base = sweep.value(c[0]);
      bench::row({std::to_string(workers),
                  bench::fmt(base / sweep.value(c[6]), 2),
                  bench::fmt(base / sweep.value(c[1]), 2),
                  bench::fmt(base / sweep.value(c[2]), 2),
                  bench::fmt(base / sweep.value(c[3]), 2),
                  bench::fmt(base / sweep.value(c[4]), 2),
                  bench::fmt(base / sweep.value(c[5]), 2)});
    }
  }
  std::printf(
      "\nPaper shape check: OmniReduce's dense speedup grows with workers\n"
      "(2(N-1)/N); AGsparse speedup falls with workers; DSAR scales best\n"
      "among SparCML variants; OmniReduce dominates everywhere.\n");
  return 0;
}
