// Wire-codec crossover sweep (QuickReduce-style tuned selection): the
// engine with each fixed inline codec (none/fp8/q8/q6/q4) and with the
// online selector's codec lane ("auto"), across a tensor-size x sparsity
// grid (8 workers, 100 Gbps RDMA, GDR).
//
// Each cell replays kSteps AllReduce steps on fresh tensors (per-step
// seeds); every run verifies against the serial reference within the
// codec's analytic slack. Reported per cell and codec: total completion
// time and mean bytes-on-wire per worker. Machine-readable `CELL` lines
// feed tools/bench_record.py suite -> BENCH_e2e.json.
//
// Acceptance (the ISSUE's crossover criteria):
//   - small tensors: "none" is the best fixed codec (the one-time codec
//     setup dwarfs the wire savings),
//   - large tensors: some codec beats "none" (wire shrink dominates),
//   - "auto" lands within 5% of the best fixed codec in every cell.
//
// Deterministic: inputs derive from explicit per-cell seeds and results
// commit in submission order, so output is byte-identical for any
// OMR_JOBS setting.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "compress/wire_codec.h"
#include "core/engine.h"
#include "core/selector.h"
#include "runner/sweep.h"
#include "sim/rng.h"
#include "tensor/generators.h"

using namespace omr;

namespace {

constexpr std::size_t kWorkers = 8;
constexpr double kBw = 100e9;
constexpr int kSteps = 4;

constexpr std::size_t kElements[] = {1024, 4096, 65536, 1u << 20};
constexpr double kSparsities[] = {0.0, 0.9};

std::vector<tensor::DenseTensor> make(std::size_t n, double s,
                                      std::uint64_t seed) {
  sim::Rng rng(seed);
  return tensor::make_multi_worker(kWorkers, n, 256, s,
                                   tensor::OverlapMode::kRandom, rng);
}

core::ClusterSpec cluster() {
  core::FabricConfig fabric;
  fabric.worker_bandwidth_bps = kBw;
  fabric.aggregator_bandwidth_bps = kBw;
  fabric.seed = 1;
  core::ClusterSpec c = core::ClusterSpec::dedicated(kWorkers, fabric);
  c.device.gdr = true;
  return c;
}

std::uint64_t step_seed(std::size_t cell, int step) {
  return cell * 64 + static_cast<std::uint64_t>(step) + 1;
}

struct ColumnResult {
  double total_s = 0.0;
  double mean_wire_bytes = 0.0;  // per worker per step, payload on the wire
  bool verified = true;
};

/// kSteps steps with one fixed codec.
ColumnResult fixed_column(compress::WireCodec codec, std::size_t cell,
                          std::size_t n, double s) {
  core::Config cfg = core::Config::for_transport(core::Transport::kRdma);
  cfg.codec.codec = codec;
  const core::ClusterSpec c = cluster();
  ColumnResult r;
  for (int step = 0; step < kSteps; ++step) {
    auto ts = make(n, s, step_seed(cell, step));
    const core::RunStats st =
        core::run_allreduce(ts, cfg, c, /*verify=*/true);
    r.total_s += sim::to_seconds(st.completion_time);
    r.mean_wire_bytes += st.mean_worker_data_bytes();
    r.verified = r.verified && st.verified;
  }
  r.mean_wire_bytes /= kSteps;
  return r;
}

/// kSteps steps with a cold selector scoring (omnireduce x codec) lanes.
ColumnResult auto_column(std::size_t cell, std::size_t n, double s) {
  core::SelectorConfig sel_cfg;
  sel_cfg.candidates = {"omnireduce"};
  sel_cfg.codecs = compress::codec_names();
  core::OnlineSelector selector(sel_cfg);
  const core::Config cfg = core::Config::for_transport(core::Transport::kRdma);
  const core::ClusterSpec c = cluster();
  ColumnResult r;
  for (int step = 0; step < kSteps; ++step) {
    auto ts = make(n, s, step_seed(cell, step));
    const core::RunStats st =
        selector.run(ts, cfg, c, /*decision=*/nullptr, /*verify=*/true);
    r.total_s += sim::to_seconds(st.completion_time);
    r.mean_wire_bytes += st.mean_worker_data_bytes();
    r.verified = r.verified && st.verified;
  }
  r.mean_wire_bytes /= kSteps;
  return r;
}

}  // namespace

int main() {
  bench::banner("Codec crossover",
                "Inline wire codecs vs none vs auto (8 workers, 100 Gbps "
                "RDMA, GDR)");
  std::printf("%d steps per cell; totals in us; wire = mean payload bytes "
              "per worker per step\n",
              kSteps);

  const std::vector<std::string> codecs = compress::codec_names();

  struct Cell {
    std::size_t n;
    double s;
    std::vector<std::size_t> fixed;  // job index per codec
    std::size_t auto_job = 0;
  };
  std::vector<Cell> cells;
  struct Job {
    std::function<ColumnResult()> fn;
  };
  std::vector<Job> jobs;
  for (std::size_t n : kElements) {
    for (double s : kSparsities) {
      Cell cell;
      cell.n = n;
      cell.s = s;
      const std::size_t id = cells.size();
      for (const auto& name : codecs) {
        const compress::WireCodec c = compress::codec_from_name(name);
        cell.fixed.push_back(jobs.size());
        jobs.push_back({[c, id, n, s] { return fixed_column(c, id, n, s); }});
      }
      cell.auto_job = jobs.size();
      jobs.push_back({[id, n, s] { return auto_column(id, n, s); }});
      cells.push_back(std::move(cell));
    }
  }

  std::vector<ColumnResult> results(jobs.size());
  runner::parallel_for_each<ColumnResult>(
      jobs.size(), [&](std::size_t i) { return jobs[i].fn(); },
      [&](std::size_t i, ColumnResult&& r) { results[i] = std::move(r); });

  std::vector<std::string> header{"size/sparsity"};
  for (const auto& c : codecs) header.push_back(c);
  header.push_back("auto");
  header.push_back("best");
  header.push_back("auto/best");
  bench::row(header);

  bool all_verified = true;
  bool none_wins_small = true;
  bool codec_wins_large = true;
  bool auto_within = true;
  for (const auto& cell : cells) {
    double best = 0.0;
    std::string best_name;
    for (std::size_t i = 0; i < codecs.size(); ++i) {
      const ColumnResult& r = results[cell.fixed[i]];
      all_verified = all_verified && r.verified;
      if (best_name.empty() || r.total_s < best) {
        best = r.total_s;
        best_name = codecs[i];
      }
      std::printf("CELL n=%zu sparsity=%.2f codec=%s total_us=%.3f "
                  "wire_bytes=%.0f verified=%d\n",
                  cell.n, cell.s, codecs[i].c_str(), r.total_s * 1e6,
                  r.mean_wire_bytes, r.verified ? 1 : 0);
    }
    const ColumnResult& au = results[cell.auto_job];
    all_verified = all_verified && au.verified;
    std::printf("CELL n=%zu sparsity=%.2f codec=auto total_us=%.3f "
                "wire_bytes=%.0f verified=%d\n",
                cell.n, cell.s, au.total_s * 1e6, au.mean_wire_bytes,
                au.verified ? 1 : 0);

    if (cell.n == kElements[0] && best_name != "none") {
      none_wins_small = false;
    }
    if (cell.n == kElements[3] && best_name == "none") {
      codec_wins_large = false;
    }
    if (au.total_s > best * 1.05) auto_within = false;

    char label[64];
    std::snprintf(label, sizeof(label), "%zu el %.0f%%", cell.n,
                  cell.s * 100.0);
    std::vector<std::string> cols{label};
    for (std::size_t i = 0; i < codecs.size(); ++i) {
      cols.push_back(bench::fmt(results[cell.fixed[i]].total_s * 1e6, 1));
    }
    cols.push_back(bench::fmt(au.total_s * 1e6, 1));
    cols.push_back(best_name);
    cols.push_back(bench::fmt(au.total_s / best, 3));
    bench::row(cols);
  }

  std::printf("\nevery run verified: %s\n", all_verified ? "yes" : "NO");
  std::printf("'none' is the best fixed codec at %zu elements: %s\n",
              kElements[0], none_wins_small ? "yes" : "NO");
  std::printf("a codec beats 'none' at %zu elements: %s\n", kElements[3],
              codec_wins_large ? "yes" : "NO");
  std::printf("auto within 5%% of the best fixed codec in every cell: %s\n",
              auto_within ? "yes" : "NO");
  const bool ok =
      all_verified && none_wins_small && codec_wins_large && auto_within;
  std::printf("ACCEPTANCE: %s\n", ok ? "pass" : "FAIL");
  return ok ? 0 : 1;
}
