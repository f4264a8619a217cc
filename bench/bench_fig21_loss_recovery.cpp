// Fig. 21 (Appendix D): AllReduce time increase under packet loss.
// DPDK-based OmniReduce retransmits selectively (Algorithm 2); Gloo and
// NCCL-over-TCP suffer TCP congestion collapse, modelled with the Mathis
// throughput bound.
#include <array>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "baselines/ring.h"
#include "bench/bench_util.h"
#include "core/engine.h"
#include "net/tcp_model.h"
#include "perfmodel/perfmodel.h"
#include "sim/rng.h"
#include "tensor/generators.h"

using namespace omr;

namespace {

constexpr double kBw = 10e9;
constexpr std::size_t kWorkers = 8;

bench::CellResult omni_cell(std::size_t n, double sparsity, double loss,
                            std::uint64_t seed, bool with_report) {
  sim::Rng rng(seed);
  auto ts = tensor::make_multi_worker(kWorkers, n, 256, sparsity,
                                      tensor::OverlapMode::kRandom, rng);
  core::Config cfg = core::Config::for_transport(core::Transport::kDpdk);
  cfg.retransmit_timeout = sim::microseconds(500);
  core::ClusterSpec cluster = core::ClusterSpec::dedicated(kWorkers);
  cluster.fabric.worker_bandwidth_bps = kBw;
  cluster.fabric.aggregator_bandwidth_bps = kBw;
  cluster.fabric.loss_rate = loss;
  cluster.fabric.seed = seed;
  cluster.telemetry.enabled = with_report;
  cluster.telemetry.trace_events = false;  // counters/histograms only
  char label[64];
  std::snprintf(label, sizeof(label), "fig21/s%.2f/loss%.4f", sparsity, loss);
  telemetry::RunReport report = core::run_allreduce_report(
      ts, cfg, cluster, /*verify=*/false, label);
  bench::CellResult cell;
  cell.value = report.completion_ms();
  if (with_report) cell.reports.push_back(std::move(report));
  return cell;
}

/// One cell of the at-scale section: DPDK with Algorithm 2, 256K elements
/// at 90% sparsity, dedicated aggregators, ideal switch or 4 racks.
struct ScaleCell {
  std::size_t workers;
  std::size_t aggregators;
  double oversubscription;  // 0 = ideal switch
  double loss;
};

constexpr ScaleCell kScaleCells[] = {
    {16, 4, 0.0, 0.0},  {16, 4, 2.0, 0.0},  {16, 4, 8.0, 0.0},
    {64, 8, 0.0, 0.0},  {64, 8, 2.0, 0.0},  {64, 8, 8.0, 0.0},
    {64, 8, 2.0, 1e-4}, {64, 8, 8.0, 1e-4},
};

telemetry::RunReport scale_cell(const ScaleCell& c, bool with_report) {
  sim::Rng rng(1);
  auto ts = tensor::make_multi_worker(c.workers, 262144, 256, 0.9,
                                      tensor::OverlapMode::kRandom, rng);
  core::Config cfg = core::Config::for_transport(core::Transport::kDpdk);
  core::ClusterSpec cluster = core::ClusterSpec::dedicated(c.aggregators);
  if (c.oversubscription > 0.0) {
    cluster.topology =
        core::TopologySpec::two_tier_racks(4, c.oversubscription);
  }
  cluster.fabric.loss_rate = c.loss;
  cluster.telemetry.enabled = with_report;
  cluster.telemetry.trace_events = false;
  char label[64];
  std::snprintf(label, sizeof(label), "fig21/scale/w%zu/over%.0f/loss%.4f",
                c.workers, c.oversubscription, c.loss);
  return core::run_allreduce_report(ts, cfg, cluster, /*verify=*/false,
                                    label);
}

std::string scale_cell_name(const ScaleCell& c) {
  std::string name = std::to_string(c.workers) + " workers, ";
  name += c.oversubscription > 0.0
              ? bench::fmt(c.oversubscription, 0) + ":1"
              : std::string("ideal");
  if (c.loss > 0.0) name += ", lossy";
  return name;
}

/// Ring AllReduce over a TCP stack whose goodput follows the Mathis bound.
double tcp_ring_ms(std::size_t n, double loss, double efficiency) {
  const double rtt = 4.0 * 10e-6 + 1500.0 * 8 / kBw;  // ~fabric RTT
  const double goodput =
      net::tcp_goodput_bps(kBw * efficiency, rtt, loss);
  perfmodel::ModelParams p;
  p.n_workers = kWorkers;
  p.bandwidth_bps = goodput;
  p.alpha_s = 10e-6;
  p.tensor_bytes = static_cast<double>(n) * 4.0;
  return perfmodel::t_ring(p) * 1e3;
}

}  // namespace

int main() {
  const std::size_t n = bench::micro_tensor_elements();
  bench::ReportSink sink;
  bench::banner("Figure 21", "AllReduce time increase under packet loss");
  std::printf("tensor: %.1f MB, 8 workers, 10 Gbps; cells are\n"
              "time(loss) - time(no loss) in ms\n",
              n * 4.0 / 1e6);
  constexpr double kLossRates[] = {0.0001, 0.001, 0.01};
  const bool with_report = sink.enabled();

  // Cells carry absolute completion times; the table prints deltas
  // against the zero-loss baselines after the sweep finishes.
  bench::Sweep sweep(&sink);
  auto omni = [&sweep, n, with_report](double sparsity, double loss,
                                       std::uint64_t seed) {
    return sweep.add([n, sparsity, loss, seed, with_report] {
      return omni_cell(n, sparsity, loss, seed, with_report);
    });
  };
  const std::size_t b0 = omni(0.0, 0.0, 1);
  const std::size_t b90 = omni(0.9, 0.0, 2);
  const std::size_t b99 = omni(0.99, 0.0, 3);
  std::vector<std::array<std::size_t, 3>> loss_cells;
  {
    std::uint64_t seed = 4;
    for (double loss : kLossRates) {
      loss_cells.push_back({omni(0.0, loss, seed), omni(0.9, loss, seed + 1),
                            omni(0.99, loss, seed + 2)});
      seed = 4;  // the serial program reused seeds 4..6 per loss rate
    }
  }
  std::vector<telemetry::RunReport> scale(std::size(kScaleCells));
  for (std::size_t i = 0; i < scale.size(); ++i) {
    sweep.add([&scale, i, with_report] {
      scale[i] = scale_cell(kScaleCells[i], with_report);
      bench::CellResult cell;
      if (with_report) cell.reports.push_back(scale[i]);
      return cell;
    });
  }
  sweep.run();

  bench::row({"loss rate", "O(s=0%)", "O(s=90%)", "O(s=99%)", "Gloo",
              "NCCL-TCP"});
  const double o0 = sweep.value(b0);
  const double o90 = sweep.value(b90);
  const double o99 = sweep.value(b99);
  const double gloo0 = tcp_ring_ms(n, 0.0, 0.8);  // Gloo: CPU-bound stack
  const double nccl0 = tcp_ring_ms(n, 0.0, 0.95);
  std::size_t i = 0;
  for (double loss : kLossRates) {
    const auto& c = loss_cells[i++];
    bench::row({bench::fmt_pct(loss, 2),
                bench::fmt(sweep.value(c[0]) - o0),
                bench::fmt(sweep.value(c[1]) - o90),
                bench::fmt(sweep.value(c[2]) - o99),
                bench::fmt(tcp_ring_ms(n, loss, 0.8) - gloo0),
                bench::fmt(tcp_ring_ms(n, loss, 0.95) - nccl0)});
  }
  std::printf(
      "\nPaper shape check: OmniReduce's selective retransmission costs\n"
      "only a few ms even at 1%% loss; TCP-based Gloo/NCCL degrade sharply\n"
      "at 1%% (congestion control).\n");

  std::printf(
      "\nAlgorithm 2 at scale: 256K elements at 90%% sparsity, 4 dedicated\n"
      "aggregators at 16 workers and 8 at 64, ideal switch or 4 racks,\n"
      "lossy cells at 0.01%% loss; timeout = max(1 ms, 1.5 x T_round),\n"
      "T_round the predicted slot round\n");
  bench::row({"cell", "T_round ms", "RTO ms", "retransmits", "drops",
              "time ms"});
  for (std::size_t i = 0; i < scale.size(); ++i) {
    const telemetry::RunReport& r = scale[i];
    bench::row({scale_cell_name(kScaleCells[i]), bench::fmt_ms(r.round_model_ns),
                bench::fmt_ms(r.rto_ns), std::to_string(r.retransmissions),
                std::to_string(r.dropped_messages),
                bench::fmt(r.completion_ms())});
  }
  std::printf(
      "\nLossless cells never retransmit; a drop stalls its slot until the\n"
      "timers fire, costing up to ~2N retransmits and at most one RTO.\n");
  return bench::finish(sink);
}
