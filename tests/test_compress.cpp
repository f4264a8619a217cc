#include <gtest/gtest.h>

#include <cmath>

#include "compress/compressors.h"
#include "sim/rng.h"
#include "tensor/blocks.h"
#include "tensor/generators.h"

namespace omr::compress {
namespace {

using tensor::DenseTensor;

DenseTensor random_dense(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  DenseTensor t(n);
  for (std::size_t i = 0; i < n; ++i) {
    t[i] = static_cast<float>(rng.next_normal());
  }
  return t;
}

std::size_t nonzero_blocks(const DenseTensor& t, std::size_t bs) {
  return tensor::BlockBitmap(t.span(), bs).nonzero_count();
}

TEST(BlockRandomK, KeepsExactlyKBlocks) {
  sim::Rng rng(1);
  DenseTensor g = random_dense(64 * 100, 2);
  DenseTensor c = block_random_k(g, 64, 10, rng);
  EXPECT_EQ(nonzero_blocks(c, 64), 10u);
  // Kept blocks are copied verbatim.
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c[i] != 0.0f) {
      EXPECT_EQ(c[i], g[i]);
    }
  }
}

TEST(BlockRandomK, KLargerThanBlocksKeepsAll) {
  sim::Rng rng(3);
  DenseTensor g = random_dense(64 * 10, 4);
  DenseTensor c = block_random_k(g, 64, 999, rng);
  EXPECT_EQ(c, g);
}

TEST(BlockTopK, PicksLargestNormBlocks) {
  DenseTensor g(64 * 4);
  for (int b = 0; b < 4; ++b) {
    for (int i = 0; i < 64; ++i) {
      g[static_cast<size_t>(b * 64 + i)] = static_cast<float>(b + 1);
    }
  }
  DenseTensor c = block_top_k(g, 64, 2);
  // Blocks 2 and 3 (norms 3, 4) survive.
  EXPECT_EQ(c[0], 0.0f);
  EXPECT_EQ(c[64], 0.0f);
  EXPECT_EQ(c[128], 3.0f);
  EXPECT_EQ(c[192], 4.0f);
}

TEST(BlockTopKRatio, NormalizesByParameterMagnitude) {
  DenseTensor g(64 * 2);
  DenseTensor params(64 * 2);
  // Block 0: large gradient on huge params (small ratio). Block 1: small
  // gradient on tiny params (large ratio).
  for (int i = 0; i < 64; ++i) {
    g[static_cast<size_t>(i)] = 10.0f;
    params[static_cast<size_t>(i)] = 1000.0f;
    g[static_cast<size_t>(64 + i)] = 0.1f;
    params[static_cast<size_t>(64 + i)] = 0.001f;
  }
  DenseTensor c = block_top_k_ratio(g, params, 64, 1);
  EXPECT_EQ(c[0], 0.0f);
  EXPECT_EQ(c[64], 0.1f);
  DenseTensor bad(3);
  EXPECT_THROW(block_top_k_ratio(g, bad, 64, 1), std::invalid_argument);
}

TEST(BlockThreshold, SelectsByBlockNorm) {
  DenseTensor g(64 * 3);
  g[0] = 5.0f;    // block 0 norm 5
  g[64] = 0.01f;  // block 1 norm 0.01
  g[128] = 1.0f;  // block 2 norm 1
  DenseTensor c = block_threshold(g, 64, 0.5);
  EXPECT_EQ(c[0], 5.0f);
  EXPECT_EQ(c[64], 0.0f);
  EXPECT_EQ(c[128], 1.0f);
}

TEST(ElementWise, TopKAndRandomK) {
  // Element-wise selection is the block form with one-element blocks.
  DenseTensor g(std::vector<float>{0.1f, -5.0f, 3.0f, 0.2f});
  DenseTensor top = block_top_k(g, 1, 2);
  EXPECT_EQ(top, DenseTensor(std::vector<float>{0, -5.0f, 3.0f, 0}));
  sim::Rng rng(5);
  DenseTensor rnd = block_random_k(g, 1, 2, rng);
  EXPECT_EQ(rnd.nnz(), 2u);
}

TEST(ErrorFeedback, AccumulatesResidual) {
  ErrorFeedback ef(4);
  const Compressor keep_first = [](const DenseTensor& g) {
    DenseTensor out(g.size());
    out[0] = g[0];
    return out;
  };
  DenseTensor g(std::vector<float>{1, 2, 3, 4});
  DenseTensor sent = ef.step(g, keep_first);
  EXPECT_EQ(sent, DenseTensor(std::vector<float>{1, 0, 0, 0}));
  EXPECT_EQ(ef.memory(), DenseTensor(std::vector<float>{0, 2, 3, 4}));
  // Residual is added back next step.
  DenseTensor g2(std::vector<float>{1, 0, 0, 0});
  sent = ef.step(g2, keep_first);
  EXPECT_EQ(sent, DenseTensor(std::vector<float>{1, 0, 0, 0}));
  EXPECT_EQ(ef.memory(), DenseTensor(std::vector<float>{0, 2, 3, 4}));
}

TEST(ErrorFeedback, IdentityCompressorLeavesNoResidual) {
  ErrorFeedback ef(8);
  const Compressor identity = [](const DenseTensor& g) { return g; };
  DenseTensor g = random_dense(8, 6);
  ef.step(g, identity);
  EXPECT_NEAR(ef.memory_norm(), 0.0, 1e-6);
}

TEST(ErrorFeedback, SizeMismatchThrows) {
  ErrorFeedback ef(4);
  const Compressor identity = [](const DenseTensor& g) { return g; };
  DenseTensor g(5);
  EXPECT_THROW(ef.step(g, identity), std::invalid_argument);
}

// δ-compressor property (Appendix C): delta >= k/b for Block Random-k
// (with equality in expectation) and for Block Top-k (top-k can only do
// better than random).
TEST(DeltaCompressor, BlockRandomKMatchesKOverB) {
  sim::Rng pick_rng(7);
  const std::size_t bs = 32, blocks = 64, k = 16;
  const Compressor c = [&](const DenseTensor& g) {
    return block_random_k(g, bs, k, pick_rng);
  };
  sim::Rng rng(8);
  // Average (not worst-case) ratio over many trials approximates the
  // expectation: 1 - E[err/norm] ~= k/b.
  double sum_ratio = 0.0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    DenseTensor x = random_dense(bs * blocks, 100 + static_cast<size_t>(t));
    DenseTensor cx = c(x);
    double err = 0, norm = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double d = static_cast<double>(x[i]) - cx[i];
      err += d * d;
      norm += static_cast<double>(x[i]) * x[i];
    }
    sum_ratio += err / norm;
  }
  EXPECT_NEAR(1.0 - sum_ratio / trials,
              static_cast<double>(k) / blocks, 0.02);
  (void)rng;
}

TEST(DeltaCompressor, BlockTopKAtLeastKOverB) {
  const std::size_t bs = 32, blocks = 64, k = 16;
  const Compressor c = [&](const DenseTensor& g) {
    return block_top_k(g, bs, k);
  };
  sim::Rng rng(9);
  const double delta = estimate_delta(c, bs * blocks, 100, rng);
  EXPECT_GE(delta, static_cast<double>(k) / blocks - 0.01);
}

TEST(DeltaCompressor, EstimateDeltaIdentityIsOne) {
  const Compressor identity = [](const DenseTensor& g) { return g; };
  sim::Rng rng(10);
  EXPECT_NEAR(estimate_delta(identity, 256, 10, rng), 1.0, 1e-9);
}

TEST(Compressors, PartialLastBlockHandled) {
  sim::Rng rng(11);
  DenseTensor g = random_dense(100, 12);  // 100 elements, bs=64 -> 2 blocks
  DenseTensor c1 = block_top_k(g, 64, 1);
  EXPECT_LE(c1.nnz(), g.nnz());
  DenseTensor c2 = block_random_k(g, 64, 2, rng);
  EXPECT_EQ(c2, g);
}

}  // namespace
}  // namespace omr::compress
