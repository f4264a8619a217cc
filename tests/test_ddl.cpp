#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "compress/compressors.h"
#include "compress/wire_codec.h"
#include "ddl/end_to_end.h"
#include "ddl/metrics.h"
#include "ddl/timing.h"
#include "ddl/trainer.h"
#include "ddl/workloads.h"
#include "sim/rng.h"
#include "tensor/blocks.h"

namespace omr::ddl {
namespace {

TEST(Workloads, SixProfilesPresent) {
  const auto& all = benchmark_workloads();
  ASSERT_EQ(all.size(), 6u);
  EXPECT_EQ(all[0].name, "DeepLight");
  EXPECT_EQ(workload("BERT").name, "BERT");
  EXPECT_THROW(workload("nope"), std::invalid_argument);
}

TEST(Workloads, GradientsMatchTable1BlockDensity) {
  sim::Rng rng(1);
  for (const auto& p : benchmark_workloads()) {
    auto grads = sample_gradients(p, 8, 1u << 22, rng);
    const double d = comm_fraction(grads, 256);
    // Within 25% relative (or 0.01 absolute for the very sparse models).
    const double tol = std::max(p.table1_comm_fraction * 0.25, 0.01);
    EXPECT_NEAR(d, p.table1_comm_fraction, tol) << p.name;
  }
}

TEST(Workloads, ElementSparsityInRightRegime) {
  sim::Rng rng(2);
  for (const auto& p : benchmark_workloads()) {
    auto grads = sample_gradients(p, 4, 1u << 21, rng);
    const double sparsity = grads[0].sparsity();
    EXPECT_NEAR(sparsity, p.table1_gradient_sparsity, 0.12) << p.name;
  }
}

TEST(Workloads, VisionModelsAreBlockDense) {
  sim::Rng rng(3);
  for (const char* name : {"VGG19", "ResNet152"}) {
    auto grads = sample_gradients(workload(name), 2, 1u << 20, rng);
    EXPECT_GT(comm_fraction(grads, 256), 0.999) << name;
  }
}

TEST(Metrics, OverlapBreakdownBasics) {
  // 2 workers, 4 blocks: one private to each, one shared, one empty.
  std::vector<tensor::DenseTensor> grads(2, tensor::DenseTensor(4 * 16));
  grads[0][0] = 1.0f;        // block 0: worker 0 only
  grads[1][16] = 1.0f;       // block 1: worker 1 only
  grads[0][32] = 1.0f;       // block 2: both
  grads[1][33] = 1.0f;
  auto breakdown = overlap_breakdown(grads, 16);
  ASSERT_EQ(breakdown.size(), 2u);
  // Transmissions: 2 unique blocks (1 each) + 1 shared (2) = 4 total.
  EXPECT_NEAR(breakdown[0], 0.5, 1e-9);
  EXPECT_NEAR(breakdown[1], 0.5, 1e-9);
  EXPECT_NEAR(union_block_density(grads, 16), 0.75, 1e-9);
}

TEST(Metrics, LstmOverlapIsHotSkewed) {
  sim::Rng rng(4);
  auto lstm = sample_gradients(workload("LSTM"), 8, 1u << 22, rng);
  auto deep = sample_gradients(workload("DeepLight"), 8, 1u << 22, rng);
  auto b_lstm = overlap_breakdown(lstm, 256);
  auto b_deep = overlap_breakdown(deep, 256);
  // Table 2 shape: LSTM is dominated by all-worker overlap, DeepLight by
  // single-worker blocks.
  EXPECT_GT(b_lstm[7], 0.4);
  EXPECT_GT(b_deep[0], 0.35);
  EXPECT_GT(b_deep[0], b_deep[7]);
}

TEST(Timing, OverlapModel) {
  EXPECT_DOUBLE_EQ(iteration_time(0.1, 0.05), 0.1);
  EXPECT_DOUBLE_EQ(iteration_time(0.1, 0.4), 0.4);
  EXPECT_DOUBLE_EQ(scaling_factor(0.1, 0.4), 0.25);
  EXPECT_DOUBLE_EQ(scaling_factor(0.1, 0.05), 1.0);
  EXPECT_DOUBLE_EQ(throughput(0.1, 0.2, 64, 8), 64.0 * 8 / 0.2);
}

TEST(EndToEnd, OmniReduceBeatsRingOnSparseModels) {
  E2EConfig cfg;
  cfg.n_workers = 8;
  cfg.bandwidth_bps = 10e9;
  cfg.sample_elements = 1u << 20;
  for (const char* name : {"DeepLight", "LSTM"}) {
    const auto ring = evaluate_training(workload(name),
                                        CommMethod::kNcclRing, cfg);
    const auto omni = evaluate_training(workload(name),
                                        CommMethod::kOmniReduceDpdk, cfg);
    EXPECT_LT(omni.t_comm_s, ring.t_comm_s) << name;
    EXPECT_GT(omni.scaling_factor, ring.scaling_factor) << name;
  }
}

TEST(EndToEnd, NoSlowdownOnDenseModels) {
  E2EConfig cfg;
  cfg.n_workers = 8;
  cfg.sample_elements = 1u << 20;
  const auto ring =
      evaluate_training(workload("ResNet152"), CommMethod::kNcclRing, cfg);
  const auto omni = evaluate_training(workload("ResNet152"),
                                      CommMethod::kOmniReduceDpdk, cfg);
  // Compute-bound: both hit sf ~ 1; OmniReduce must not hurt throughput.
  EXPECT_GE(omni.throughput, ring.throughput * 0.95);
}

TEST(EndToEnd, ScalingFactorMatchesPaperFig9NcclAnchors) {
  // The compute-time calibration must reproduce the paper's measured NCCL
  // scaling factors at 8 workers / 10 Gbps within ~20%.
  const struct {
    const char* name;
    double sf;
  } anchors[] = {{"DeepLight", 0.044}, {"LSTM", 0.121}, {"NCF", 0.175},
                 {"BERT", 0.287},      {"VGG19", 0.497}, {"ResNet152", 0.948}};
  E2EConfig cfg;
  cfg.n_workers = 8;
  cfg.sample_elements = 1u << 20;
  for (const auto& a : anchors) {
    const auto r = evaluate_training(workload(a.name),
                                     CommMethod::kNcclRing, cfg);
    EXPECT_NEAR(r.scaling_factor, a.sf, a.sf * 0.2 + 0.02) << a.name;
  }
}


TEST(EndToEnd, MethodNamesAndCommVolume) {
  EXPECT_EQ(to_string(CommMethod::kNcclRing), "NCCL(ring)");
  EXPECT_EQ(to_string(CommMethod::kOmniReduceGdr), "OmniReduce-GDR");
  // The extrapolated per-worker volume must match Table 1's column.
  E2EConfig cfg;
  cfg.n_workers = 8;
  cfg.sample_elements = 1u << 20;
  const auto& p = workload("DeepLight");
  const auto r = evaluate_training(p, CommMethod::kOmniReduceDpdk, cfg);
  const double expect_gb =
      p.table1_comm_fraction * static_cast<double>(p.full_model_bytes) / 1e9;
  EXPECT_NEAR(r.comm_gbytes, expect_gb, expect_gb * 0.3);
}

TEST(EndToEnd, HigherBandwidthNeverSlower) {
  // Timing monotonicity property: more bandwidth cannot hurt.
  const auto& p = workload("LSTM");
  double prev = 1e30;
  for (double bw : {10e9, 25e9, 100e9}) {
    E2EConfig cfg;
    cfg.n_workers = 8;
    cfg.bandwidth_bps = bw;
    cfg.sample_elements = 1u << 20;
    const auto r = evaluate_training(p, CommMethod::kOmniReduceGdr, cfg);
    EXPECT_LE(r.t_comm_s, prev * 1.001);
    prev = r.t_comm_s;
  }
}

TEST(Trainer, LearnsWithoutCompression) {
  TrainerConfig cfg;
  cfg.iterations = 150;
  cfg.n_workers = 4;
  TrainResult r = train_distributed(cfg, std::nullopt);
  EXPECT_LT(r.final_loss, r.loss_curve.front() * 0.6);
  EXPECT_GT(r.test_accuracy, 0.8);
  EXPECT_GT(r.test_f1, 0.75);
}

TEST(Trainer, EmbeddingGradientsAreSparse) {
  TrainerConfig cfg;
  cfg.iterations = 5;
  cfg.n_workers = 4;
  cfg.vocab = 8192;  // large vocabulary, few touched rows
  cfg.batch_size = 64;
  TrainResult r = train_distributed(cfg, std::nullopt);
  EXPECT_LT(r.mean_gradient_block_density, 0.5);
}

TEST(Trainer, BlockTopKWithErrorFeedbackConverges) {
  TrainerConfig cfg;
  cfg.iterations = 250;
  cfg.n_workers = 4;
  TrainResult base = train_distributed(cfg, std::nullopt);

  const std::size_t bs = kEmbedDim * 4;
  const std::size_t nb =
      tensor::num_blocks(model_dimension(cfg), bs);
  const std::size_t k = std::max<std::size_t>(1, nb / 10);  // 10%
  CompressionSpec spec;
  spec.name = "BlockTopK";
  spec.compressor = [bs, k](const tensor::DenseTensor& g) {
    return compress::block_top_k(g, bs, k);
  };
  TrainResult comp = train_distributed(cfg, spec);
  // Convergence with small degradation (Fig. 11: at most ~1 point of F1).
  EXPECT_GT(comp.test_accuracy, base.test_accuracy - 0.06);
  EXPECT_LT(comp.final_loss, comp.loss_curve.front() * 0.7);
}

TEST(Trainer, ErrorFeedbackBeatsNoFeedbackForRandomK) {
  TrainerConfig cfg;
  cfg.iterations = 250;
  cfg.n_workers = 4;
  cfg.seed = 9;
  const std::size_t bs = kEmbedDim * 4;
  const std::size_t nb = tensor::num_blocks(model_dimension(cfg), bs);
  const std::size_t k = std::max<std::size_t>(1, nb / 20);  // 5%

  auto make_spec = [&](bool ef) {
    CompressionSpec spec;
    spec.name = "BlockRandomK";
    spec.error_feedback = ef;
    auto rng = std::make_shared<sim::Rng>(42);
    spec.compressor = [bs, k, rng](const tensor::DenseTensor& g) {
      return compress::block_random_k(g, bs, k, *rng);
    };
    return spec;
  };
  TrainResult with_ef = train_distributed(cfg, make_spec(true));
  TrainResult without = train_distributed(cfg, make_spec(false));
  EXPECT_LE(with_ef.final_loss, without.final_loss * 1.05);
  EXPECT_GE(with_ef.test_accuracy + 0.02, without.test_accuracy);
}

TEST(Trainer, DeterministicGivenSeed) {
  TrainerConfig cfg;
  cfg.iterations = 20;
  TrainResult a = train_distributed(cfg, std::nullopt);
  TrainResult b = train_distributed(cfg, std::nullopt);
  EXPECT_EQ(a.loss_curve, b.loss_curve);
  EXPECT_EQ(a.test_f1, b.test_f1);
}

TrainerConfig quick_config() {
  TrainerConfig cfg;
  cfg.iterations = 200;
  cfg.n_workers = 4;
  return cfg;
}

TEST(TrainerQuantizers, WireCodecWithErrorFeedbackConverges) {
  // The inline wire codecs are deterministic and biased
  // (round-to-nearest), so — unlike a stochastic quantizer such as QSGD —
  // error feedback around them is the *correct* composition: the residual
  // memory recirculates the rounding error and training converges. This is
  // the trainer-side contract behind CodecSpec::error_feedback in the
  // transport.
  const TrainerConfig cfg = quick_config();
  const TrainResult base = train_distributed(cfg, std::nullopt);
  for (compress::WireCodec c :
       {compress::WireCodec::kQ8, compress::WireCodec::kQ4}) {
    SCOPED_TRACE(compress::codec_name(c));
    CompressionSpec spec;
    spec.name = std::string("EF(wire-") + compress::codec_name(c) + ")";
    spec.error_feedback = true;
    spec.compressor = [c](const tensor::DenseTensor& g) {
      tensor::DenseTensor out = g;
      compress::codec_roundtrip(out.values().data(), out.size(), c);
      return out;
    };
    const TrainResult r = train_distributed(cfg, spec);
    EXPECT_LT(r.final_loss, r.loss_curve.front() * 0.85);
    EXPECT_GT(r.test_accuracy, base.test_accuracy - 0.1);
  }
}

}  // namespace
}  // namespace omr::ddl
