// omr_cli — run a configurable collective from the command line.
//
//   $ build/examples/omr_cli --workers 8 --mb 100 --sparsity 0.9
//         --transport rdma --gdr --bandwidth 100 --algo omnireduce
//
// Any registered collective algorithm can be selected with --algo (use
// `--algo list` to enumerate the registry); `--algo auto` lets the online
// selector pick per tensor. Without --algo the native OmniReduce engine
// runs, and only it writes --report/--trace. Prints completion time,
// per-worker payload and, for the native engine, message counts and
// retransmission statistics. Every run verifies the reduction against a
// serial reference.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "baselines/zoo.h"
#include "compress/wire_codec.h"
#include "core/algorithm.h"
#include "core/engine.h"
#include "core/selector.h"
#include "sim/rng.h"
#include "telemetry/report.h"
#include "telemetry/telemetry.h"
#include "tensor/generators.h"

namespace {

struct Options {
  std::size_t workers = 8;
  double mb = 100.0;
  double sparsity = 0.9;
  double bandwidth_gbps = 10.0;
  double loss = 0.0;
  std::string algo;   // registry name, "auto", "list"; empty = omnireduce
  std::string codec;  // wire codec name, "auto" (selector) or "list"
  std::string transport = "dpdk";
  std::string overlap = "random";
  bool gdr = false;
  bool colocated = false;
  std::size_t block_size = 256;
  std::uint64_t seed = 1;
  std::string report_path;  // RunReport JSON (native omnireduce only)
  std::string trace_path;   // Chrome trace JSON (native omnireduce only)
};

void usage() {
  std::printf(
      "usage: omr_cli [options]\n"
      "  --workers N        worker count (default 8)\n"
      "  --mb X             tensor size in MB (default 100)\n"
      "  --sparsity S       block sparsity in [0,1] (default 0.9)\n"
      "  --bandwidth G      per-NIC Gbps (default 10)\n"
      "  --loss P           packet loss probability (default 0)\n"
      "  --algo A           registry algorithm name (see --algo list;\n"
      "                     default omnireduce, the native engine), or\n"
      "                     'auto' to let the online selector choose\n"
      "  --codec C          inline wire codec (see --codec list), or\n"
      "                     'auto' to let the online selector choose the\n"
      "                     (algorithm, codec) pair per tensor\n"
      "  --transport T      dpdk|rdma (omnireduce only)\n"
      "  --overlap O        random|none|all\n"
      "  --gdr              enable GPU-direct (no PCIe staging)\n"
      "  --colocated        aggregators share worker NICs\n"
      "  --block N          block size in elements (default 256)\n"
      "  --seed N           RNG seed (default 1)\n"
      "  --report FILE      write telemetry RunReport JSON (omnireduce)\n"
      "  --trace FILE       write Chrome trace JSON (omnireduce); load in\n"
      "                     chrome://tracing or https://ui.perfetto.dev\n");
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](double& out) {
      if (i + 1 >= argc) return false;
      out = std::atof(argv[++i]);
      return true;
    };
    double v = 0;
    if (a == "--workers" && next(v)) {
      opt.workers = static_cast<std::size_t>(v);
    } else if (a == "--mb" && next(v)) {
      opt.mb = v;
    } else if (a == "--sparsity" && next(v)) {
      opt.sparsity = v;
    } else if (a == "--bandwidth" && next(v)) {
      opt.bandwidth_gbps = v;
    } else if (a == "--loss" && next(v)) {
      opt.loss = v;
    } else if (a == "--block" && next(v)) {
      opt.block_size = static_cast<std::size_t>(v);
    } else if (a == "--seed" && next(v)) {
      opt.seed = static_cast<std::uint64_t>(v);
    } else if (a == "--algo" && i + 1 < argc) {
      opt.algo = argv[++i];
    } else if (a == "--codec" && i + 1 < argc) {
      opt.codec = argv[++i];
    } else if (a == "--transport" && i + 1 < argc) {
      opt.transport = argv[++i];
    } else if (a == "--overlap" && i + 1 < argc) {
      opt.overlap = argv[++i];
    } else if (a == "--report" && i + 1 < argc) {
      opt.report_path = argv[++i];
    } else if (a == "--trace" && i + 1 < argc) {
      opt.trace_path = argv[++i];
    } else if (a == "--gdr") {
      opt.gdr = true;
    } else if (a == "--colocated") {
      opt.colocated = true;
    } else {
      usage();
      return false;
    }
  }
  return true;
}

}  // namespace

// A rejected spec (unknown codec or algorithm, impossible loss rate) or a
// failed verification throws; every path reports it the same way.
int main(int argc, char** argv) try {
  using namespace omr;
  Options opt;
  if (!parse(argc, argv, opt)) return 1;
  baselines::register_zoo();

  if (opt.algo == "list") {
    for (const auto& name : core::CollectiveRegistry::global().names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (opt.codec == "list") {
    for (const auto& name : compress::codec_names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  const auto n = static_cast<std::size_t>(opt.mb * 1e6 / 4.0);
  const double bw = opt.bandwidth_gbps * 1e9;
  sim::Rng rng(opt.seed);
  const tensor::OverlapMode mode =
      opt.overlap == "none" ? tensor::OverlapMode::kNone
      : opt.overlap == "all" ? tensor::OverlapMode::kAll
                             : tensor::OverlapMode::kRandom;
  auto tensors = tensor::make_multi_worker(opt.workers, n, opt.block_size,
                                           opt.sparsity, mode, rng);
  std::printf("%zu workers, %.1f MB, %.0f%% block sparsity, %s overlap, "
              "%.0f Gbps\n",
              opt.workers, opt.mb, opt.sparsity * 100, opt.overlap.c_str(),
              opt.bandwidth_gbps);

  // One cluster + transport config serves both the native engine and the
  // registry dispatch paths.
  core::Config cfg = core::Config::for_transport(
      opt.transport == "rdma" ? core::Transport::kRdma
                              : core::Transport::kDpdk);
  cfg.block_size = opt.block_size;
  core::ClusterSpec cluster =
      opt.colocated ? core::ClusterSpec::colocated()
                    : core::ClusterSpec::dedicated(opt.workers);
  cluster.fabric.worker_bandwidth_bps = bw;
  cluster.fabric.aggregator_bandwidth_bps = bw;
  cluster.fabric.loss_rate = opt.loss;
  cluster.fabric.seed = opt.seed;
  cluster.device.gdr = opt.gdr;

  const bool codec_auto = opt.codec == "auto";
  if (!opt.codec.empty() && !codec_auto) {
    cfg.codec.codec = compress::codec_from_name(opt.codec);
  }

  if (opt.algo == "auto" || codec_auto) {
    core::SelectorConfig sel_cfg;
    if (codec_auto) sel_cfg.codecs = compress::codec_names();
    if (opt.algo != "auto" && !opt.algo.empty()) {
      // Fixed algorithm + codec auto: score codec lanes for it alone.
      sel_cfg.candidates = {opt.algo};
    }
    core::OnlineSelector selector(sel_cfg);
    core::SelectorDecision decision;
    core::RunStats st =
        selector.run(tensors, cfg, cluster, &decision, /*verify=*/true);
    const std::string lane = decision.codec.empty()
                                 ? decision.algorithm
                                 : decision.algorithm + "|" + decision.codec;
    std::printf("auto -> %-16s %10.3f ms  predicted %.3f ms  verified=%s\n",
                lane.c_str(), st.completion_ms(),
                decision.predicted_seconds * 1e3,
                st.verified ? "yes" : "no");
    return st.verified ? 0 : 1;
  }
  if (!opt.algo.empty() && opt.algo != "omnireduce") {
    core::RunStats st =
        core::run_collective(opt.algo, tensors, cfg, cluster,
                             /*verify=*/true);
    std::printf("%-12s %10.3f ms  payload/worker %.2f MB  verified=%s\n",
                opt.algo.c_str(), st.completion_ms(),
                st.mean_worker_data_bytes() / 1e6,
                st.verified ? "yes" : "no");
    return st.verified ? 0 : 1;
  }

  cluster.telemetry.enabled =
      !opt.report_path.empty() || !opt.trace_path.empty();
  cluster.telemetry.trace_events = !opt.trace_path.empty();
  telemetry::RunReport report = core::run_allreduce_report(
      tensors, cfg, cluster, /*verify=*/true, "omnireduce");
  std::printf("%-12s %10.3f ms  payload/worker %.2f MB  msgs %llu  "
              "retx %llu  verified=%s\n",
              "omnireduce", report.completion_ms(),
              report.mean_worker_data_bytes() / 1e6,
              static_cast<unsigned long long>(report.total_messages),
              static_cast<unsigned long long>(report.retransmissions),
              report.verified ? "yes" : "no");
  if (!opt.report_path.empty()) {
    std::ofstream out(opt.report_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opt.report_path.c_str());
      return 1;
    }
    report.write_json(out);
    std::printf("report: %s\n", opt.report_path.c_str());
  }
  if (!opt.trace_path.empty()) {
    std::ofstream out(opt.trace_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opt.trace_path.c_str());
      return 1;
    }
    telemetry::write_chrome_trace(report.trace, out);
    std::printf("trace:  %s (%zu events)\n", opt.trace_path.c_str(),
                report.trace.events.size());
  }
  return report.verified ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "omr_cli: %s\n", e.what());
  return 1;
}
