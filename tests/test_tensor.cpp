#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <set>
#include <vector>

#include "sim/rng.h"
#include "tensor/blocks.h"
#include "tensor/coo.h"
#include "tensor/dense.h"
#include "tensor/generators.h"
#include "tensor/index_codec.h"

namespace omr::tensor {
namespace {

TEST(DenseTensor, BasicOps) {
  DenseTensor t(4);
  t[0] = 1.0f;
  t[2] = -2.0f;
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.nnz(), 2u);
  EXPECT_DOUBLE_EQ(t.sparsity(), 0.5);
  EXPECT_NEAR(t.l2_norm(), std::sqrt(5.0), 1e-9);
}

TEST(DenseTensor, AddInplace) {
  DenseTensor a(std::vector<float>{1, 2, 3});
  DenseTensor b(std::vector<float>{10, 20, 30});
  a.add_inplace(b);
  EXPECT_EQ(a, DenseTensor(std::vector<float>{11, 22, 33}));
  DenseTensor c(2);
  EXPECT_THROW(a.add_inplace(c), std::invalid_argument);
}

TEST(DenseTensor, Axpy) {
  DenseTensor a(std::vector<float>{1, 2});
  DenseTensor b(std::vector<float>{4, 8});
  a.axpy_inplace(0.5f, b);
  EXPECT_EQ(a, DenseTensor(std::vector<float>{3, 6}));
}

TEST(DenseTensor, ReferenceSum) {
  std::vector<DenseTensor> ts;
  ts.emplace_back(std::vector<float>{1, 0, 2});
  ts.emplace_back(std::vector<float>{0, 3, 4});
  ts.emplace_back(std::vector<float>{5, 0, 0});
  DenseTensor sum = reference_sum(ts);
  EXPECT_EQ(sum, DenseTensor(std::vector<float>{6, 3, 6}));
}

TEST(DenseTensor, MaxAbsDiff) {
  DenseTensor a(std::vector<float>{1, 2, 3});
  DenseTensor b(std::vector<float>{1, 2.5f, 3});
  EXPECT_NEAR(max_abs_diff(a, b), 0.5, 1e-9);
}

TEST(DenseTensor, MaxAbsDiffSeesNaN) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const double unbounded = std::numeric_limits<double>::infinity();
  const DenseTensor ones(std::vector<float>(4, 1.0f));
  EXPECT_EQ(max_abs_diff(DenseTensor(std::vector<float>(4, nan)), ones),
            unbounded);
  EXPECT_EQ(max_abs_diff(ones, DenseTensor(std::vector<float>{1, 1, nan, 1})),
            unbounded);
  // NaN on both sides and equal infinities are no difference at all.
  const DenseTensor a(std::vector<float>{nan, inf, -inf, 2.0f});
  const DenseTensor b(std::vector<float>{nan, inf, -inf, 2.5f});
  EXPECT_EQ(max_abs_diff(a, b), 0.5);
  EXPECT_EQ(max_abs_diff(a, DenseTensor(std::vector<float>{nan, -inf, -inf,
                                                           2.0f})),
            unbounded);
  // A NaN at the last element, and the largest difference in different
  // positions.
  const DenseTensor six(std::vector<float>(6, 1.0f));
  EXPECT_EQ(max_abs_diff(six, DenseTensor(std::vector<float>{1, 1, 1, 1, 1,
                                                             nan})),
            unbounded);
  EXPECT_EQ(max_abs_diff(six, DenseTensor(std::vector<float>{1, 2, 1, 5, 1,
                                                             3})),
            4.0);
  EXPECT_EQ(max_abs_diff(six, DenseTensor(std::vector<float>{1, 2, 1, 1, 1,
                                                             7})),
            6.0);
}

TEST(Coo, RoundTrip) {
  DenseTensor t(std::vector<float>{0, 1, 0, 0, -2, 0, 3});
  CooTensor c = dense_to_coo(t);
  EXPECT_EQ(c.nnz(), 3u);
  EXPECT_EQ(c.keys, (std::vector<std::int32_t>{1, 4, 6}));
  EXPECT_EQ(c.wire_bytes(), 24u);
  DenseTensor back = coo_to_dense(c);
  EXPECT_EQ(back, t);
}

TEST(Coo, DenseToCooMatchesNaiveLoop) {
  // The conversion keeps exactly the elements with x != 0.0f, in index
  // order: -0.0f drops, NaN and denormals stay. Lengths straddle the
  // 64-element groups; fills cover all-zero, fully dense and mixed inputs.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float specials[] = {0.0f, -0.0f, nan, denorm, -1e-40f, 1.0f, -3.5f};
  sim::Rng rng(0xc00);
  for (std::size_t n : {0, 1, 63, 64, 65, 127, 128, 130, 1000, 4099}) {
    for (int fill = 0; fill < 4; ++fill) {
      DenseTensor t(n);
      for (std::size_t i = 0; i < n; ++i) {
        switch (fill) {
          case 0: break;                                       // all zero
          case 1: t[i] = 1.0f + static_cast<float>(i); break;  // fully dense
          case 2: t[i] = specials[rng.next_below(std::size(specials))]; break;
          default:  // sparse: mostly +/-0 with rare specials
            t[i] = rng.next_below(50) == 0
                       ? specials[rng.next_below(std::size(specials))]
                       : (rng.next_below(2) == 0 ? 0.0f : -0.0f);
        }
      }
      std::vector<std::int32_t> keys;
      std::vector<std::uint32_t> bits;
      for (std::size_t i = 0; i < n; ++i) {
        if (t[i] != 0.0f) {
          keys.push_back(static_cast<std::int32_t>(i));
          bits.push_back(std::bit_cast<std::uint32_t>(t[i]));
        }
      }
      const CooTensor c = dense_to_coo(t);
      EXPECT_EQ(c.dim, n);
      EXPECT_EQ(c.keys, keys) << "n=" << n << " fill=" << fill;
      std::vector<std::uint32_t> got;
      for (float v : c.values) got.push_back(std::bit_cast<std::uint32_t>(v));
      EXPECT_EQ(got, bits) << "n=" << n << " fill=" << fill;
    }
  }
}

TEST(SparseRangeAccumulator, MergesSortedUnion) {
  CooTensor a{8, {1, 3, 5}, {1.f, 1.f, 1.f}};
  CooTensor b{8, {0, 3, 7}, {2.f, 2.f, 2.f}};
  SparseRangeAccumulator acc(0, 8);
  acc.add(a);
  acc.add(b);
  EXPECT_EQ(acc.size(), 5u);
  CooTensor s;
  acc.emit(s);
  EXPECT_EQ(s.keys, (std::vector<std::int32_t>{0, 1, 3, 5, 7}));
  EXPECT_EQ(s.values, (std::vector<float>{2.f, 1.f, 3.f, 1.f, 2.f}));
  EXPECT_EQ(acc.size(), 0u);
}

TEST(SparseRangeAccumulator, AddsInCallOrderAndKeepsZeroSums) {
  // (1e8 + 1) - 1e8 == 0 in float but 1e8 - 1e8 + 1 == 1: the order of
  // the calls is the order of the additions.
  SparseRangeAccumulator acc(100, 104);
  acc.add(101, 1e8f);
  acc.add(101, 1.0f);
  acc.add(101, -1e8f);
  acc.add(103, -1e8f);
  acc.add(103, 1e8f);
  acc.add(103, 1.0f);
  acc.add(102, 2.5f);
  acc.add(102, -2.5f);
  CooTensor s;
  acc.emit(s);
  EXPECT_EQ(s.keys, (std::vector<std::int32_t>{101, 102, 103}));
  EXPECT_EQ(s.values, (std::vector<float>{0.0f, 0.0f, 1.0f}));
}

TEST(SparseRangeAccumulator, SlicesInputsToItsRangeAndIsReusable) {
  CooTensor t{200, {3, 64, 65, 127, 128, 190}, {1, 2, 3, 4, 5, 6}};
  SparseRangeAccumulator acc(64, 128);
  acc.add(t);
  CooTensor s;
  acc.emit(s);
  EXPECT_EQ(s.keys, (std::vector<std::int32_t>{64, 65, 127}));
  // Emitting appends and leaves the accumulator empty for the next round.
  acc.add(t);
  acc.emit(s);
  EXPECT_EQ(s.nnz(), 6u);
  acc.reset(128, 200);
  acc.add(t);
  acc.emit(s);
  EXPECT_EQ(s.keys.back(), 190);
  EXPECT_EQ(coo_key_range(t, 64, 128),
            (std::pair<std::size_t, std::size_t>{1, 4}));
  EXPECT_THROW(acc.reset(5, 4), std::invalid_argument);
}

TEST(Coo, ConversionCostScalesWithSize) {
  EXPECT_GT(conversion_cost(1 << 20, 1 << 10), conversion_cost(1 << 10, 1 << 4));
  EXPECT_GT(conversion_cost(1 << 20, 1 << 19), conversion_cost(1 << 20, 0));
}

TEST(Blocks, NumBlocks) {
  EXPECT_EQ(num_blocks(1024, 256), 4u);
  EXPECT_EQ(num_blocks(1025, 256), 5u);
  EXPECT_EQ(num_blocks(0, 256), 0u);
  EXPECT_THROW(num_blocks(10, 0), std::invalid_argument);
}

TEST(Blocks, BitmapMarksNonzeroBlocks) {
  DenseTensor t(1024);
  t[300] = 1.0f;  // block 1
  t[900] = 2.0f;  // block 3
  BlockBitmap bm(t.span(), 256);
  ASSERT_EQ(bm.size(), 4u);
  EXPECT_FALSE(bm.nonzero(0));
  EXPECT_TRUE(bm.nonzero(1));
  EXPECT_FALSE(bm.nonzero(2));
  EXPECT_TRUE(bm.nonzero(3));
  EXPECT_EQ(bm.nonzero_count(), 2u);
  EXPECT_DOUBLE_EQ(bm.block_sparsity(), 0.5);
}

TEST(Blocks, NextNonzero) {
  DenseTensor t(1024);
  t[300] = 1.0f;
  t[900] = 2.0f;
  BlockBitmap bm(t.span(), 256);
  EXPECT_EQ(bm.next_nonzero(0), 1);
  EXPECT_EQ(bm.next_nonzero(1), 1);
  EXPECT_EQ(bm.next_nonzero(2), 3);
  EXPECT_EQ(bm.next_nonzero(4), kNoBlock);
}

TEST(Blocks, NextNonzeroInColumn) {
  // 8 blocks, stride 4: columns {0,4}, {1,5}, {2,6}, {3,7}.
  DenseTensor t(8 * 16);
  t[4 * 16] = 1.0f;  // block 4, column 0
  t[5 * 16] = 1.0f;  // block 5, column 1
  BlockBitmap bm(t.span(), 16);
  EXPECT_EQ(bm.next_nonzero_in_column(0, 0, 4), 4);
  EXPECT_EQ(bm.next_nonzero_in_column(5, 0, 4), kNoBlock);
  EXPECT_EQ(bm.next_nonzero_in_column(0, 1, 4), 5);
  EXPECT_EQ(bm.next_nonzero_in_column(0, 2, 4), kNoBlock);
}

TEST(Blocks, PartialLastBlock) {
  DenseTensor t(300);  // blocks: [0,256), [256,300)
  t[299] = 5.0f;
  BlockBitmap bm(t.span(), 256);
  ASSERT_EQ(bm.size(), 2u);
  EXPECT_FALSE(bm.nonzero(0));
  EXPECT_TRUE(bm.nonzero(1));
}

TEST(Blocks, DensityWithinBlocks) {
  DenseTensor t(512);
  for (int i = 0; i < 128; ++i) t[static_cast<size_t>(i)] = 1.0f;  // half of block 0
  EXPECT_DOUBLE_EQ(density_within_blocks(t, 256), 0.5);
  EXPECT_DOUBLE_EQ(block_sparsity(t, 256), 0.5);
  DenseTensor z(512);
  EXPECT_DOUBLE_EQ(density_within_blocks(z, 256), 0.0);
}

// The packed scan must agree with the plain definition — a block is
// non-zero iff some element compares `!= 0.0f` — on every value class the
// bit trick treats specially, at every offset of a vector-width loop.
TEST(Blocks, BitmapMatchesNaiveScan) {
  const float specials[] = {-0.0f,
                            std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::infinity(),
                            1.0f};
  sim::Rng rng(31);
  BlockBitmap reused;
  for (std::size_t bs : {1u, 3u, 4u, 16u, 256u, 300u}) {
    for (std::size_t n : {bs * 7, bs * 7 + bs / 2 + 1, std::size_t{1000}}) {
      // Mostly +0.0f / -0.0f so that many blocks are zero; each special
      // value then lands at a random position.
      DenseTensor t(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.next_double() < 0.5) t[i] = -0.0f;
      }
      for (float v : specials) {
        if (rng.next_double() < 0.5) t[rng.next_below(n)] = v;
      }
      const BlockBitmap bm(t.span(), bs);
      reused.rebuild(t.span(), bs);
      ASSERT_EQ(bm.size(), num_blocks(n, bs));
      EXPECT_EQ(reused.words(), bm.words()) << "bs=" << bs << " n=" << n;
      for (std::size_t b = 0; b < bm.size(); ++b) {
        bool nonzero = false;
        for (std::size_t i = b * bs; i < std::min(n, (b + 1) * bs); ++i) {
          nonzero = nonzero || t[i] != 0.0f;
        }
        EXPECT_EQ(bm.nonzero(static_cast<BlockIndex>(b)), nonzero)
            << "bs=" << bs << " n=" << n << " block " << b;
      }
    }
  }
}


TEST(IndexCodec, CrossoverAtDimOver32) {
  // Raw keys cost 4*nnz; a bitmask costs dim/8. Equal at nnz = dim/32.
  const std::size_t dim = 32000;
  EXPECT_EQ(choose_index_encoding(999, dim), IndexEncoding::kRawKeys);
  EXPECT_EQ(choose_index_encoding(1001, dim), IndexEncoding::kBitmask);
}

TEST(IndexCodec, ByteCounts) {
  EXPECT_EQ(index_bytes(IndexEncoding::kRawKeys, 10, 1000), 40u);
  EXPECT_EQ(index_bytes(IndexEncoding::kBitmask, 10, 1000), 125u);
  // Compressed wire bytes never exceed the raw COO encoding.
  for (std::size_t nnz : {0u, 5u, 100u, 500u, 1000u}) {
    EXPECT_LE(coo_wire_bytes_compressed(nnz, 1000), nnz * 8 + 125);
    EXPECT_LE(coo_wire_bytes_compressed(nnz, 1000), nnz * 8 > 0 ? nnz * 8 : 125u);
  }
}

TEST(IndexCodec, DenseTensorPrefersBitmask) {
  const std::size_t dim = 1 << 20;
  const std::size_t nnz = dim / 2;
  EXPECT_EQ(choose_index_encoding(nnz, dim), IndexEncoding::kBitmask);
  EXPECT_EQ(coo_wire_bytes_compressed(nnz, dim), nnz * 4 + dim / 8);
}

TEST(Generators, BlockSparseHitsTarget) {
  sim::Rng rng(1);
  DenseTensor t = make_block_sparse(256 * 1000, 256, 0.9, rng);
  EXPECT_NEAR(block_sparsity(t, 256), 0.9, 0.01);
}

TEST(Generators, BlockSparseExtremes) {
  sim::Rng rng(2);
  DenseTensor dense = make_block_sparse(256 * 100, 256, 0.0, rng);
  EXPECT_DOUBLE_EQ(block_sparsity(dense, 256), 0.0);
  DenseTensor empty = make_block_sparse(256 * 100, 256, 1.0, rng);
  EXPECT_EQ(empty.nnz(), 0u);
  EXPECT_THROW(make_block_sparse(100, 10, 1.5, rng), std::invalid_argument);
}

TEST(Generators, OverlapAll) {
  sim::Rng rng(3);
  auto ts = make_multi_worker(4, 256 * 100, 256, 0.8, OverlapMode::kAll, rng);
  ASSERT_EQ(ts.size(), 4u);
  BlockBitmap ref(ts[0].span(), 256);
  for (const auto& t : ts) {
    BlockBitmap bm(t.span(), 256);
    EXPECT_EQ(bm.bits(), ref.bits());
  }
}

TEST(Generators, OverlapNoneIsDisjoint) {
  sim::Rng rng(4);
  auto ts = make_multi_worker(4, 256 * 100, 256, 0.8, OverlapMode::kNone, rng);
  std::vector<int> owners(100, 0);
  for (const auto& t : ts) {
    BlockBitmap bm(t.span(), 256);
    for (std::size_t b = 0; b < bm.size(); ++b) {
      if (bm.nonzero(static_cast<BlockIndex>(b))) ++owners[b];
    }
  }
  for (int o : owners) EXPECT_LE(o, 1);
}

TEST(Generators, OverlapNoneThrowsWhenInfeasible) {
  sim::Rng rng(5);
  EXPECT_THROW(
      make_multi_worker(8, 256 * 10, 256, 0.0, OverlapMode::kNone, rng),
      std::invalid_argument);
}

TEST(Generators, ElementSparseApproximatesTarget) {
  sim::Rng rng(6);
  DenseTensor t = make_element_sparse(100000, 0.3, rng);
  EXPECT_NEAR(t.sparsity(), 0.3, 0.01);
  // i.i.d. zeros at 30%: every 256-block is almost surely non-zero.
  EXPECT_DOUBLE_EQ(block_sparsity(t, 256), 0.0);
}

TEST(Generators, EmbeddingGradientIsRowClustered) {
  sim::Rng rng(7);
  const std::size_t n = 1 << 20;
  DenseTensor t = make_embedding_gradient(n, n, 1024, 50, 0.0, rng);
  // 50 rows of 1024 non-zeros.
  EXPECT_EQ(t.nnz(), 50u * 1024u);
  // Those rows are aligned: they cover exactly 50 * 4 blocks of 256.
  BlockBitmap bm(t.span(), 256);
  EXPECT_EQ(bm.nonzero_count(), 200u);
}

TEST(Generators, EmbeddingGradientDenseTail) {
  sim::Rng rng(8);
  const std::size_t n = 100000;
  DenseTensor t = make_embedding_gradient(n, 0, 64, 0, 1.0, rng);
  EXPECT_EQ(t.nnz(), n);  // dense tail fully dense
}

TEST(Generators, MultiWorkerEmbeddingHotRowsOverlap) {
  sim::Rng rng(9);
  const std::size_t n = 1 << 18;
  auto ts = make_multi_worker_embedding(8, n, n, 256, 64, 8, 1.0, 0.0, rng);
  // hot_fraction=1 with 8 hot rows and 64 requested rows per worker: each
  // worker activates only hot rows (at most 8 distinct), so every non-zero
  // block is shared by all workers.
  std::set<std::vector<std::uint8_t>> distinct;
  for (const auto& t : ts) distinct.insert(BlockBitmap(t.span(), 256).bits());
  EXPECT_EQ(distinct.size(), 1u);
}

}  // namespace
}  // namespace omr::tensor
