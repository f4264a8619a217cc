#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <set>
#include <vector>

#include "sim/rng.h"
#include "tensor/blocks.h"
#include "tensor/coo.h"
#include "tensor/dense.h"
#include "tensor/generators.h"

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

// The scalar loop max_abs_diff ran before it had a vector body: the
// oracle for every length, value class and NaN placement.
double scalar_max_abs_diff(const DenseTensor& a, const DenseTensor& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::abs(static_cast<double>(a[i]) - b[i]);
    if (d > m) {
      m = d;
    } else if (std::isnan(d) && std::isnan(a[i]) != std::isnan(b[i])) {
      return std::numeric_limits<double>::infinity();
    }
  }
  return m;
}

TEST(Tensor, MaxAbsDiffMatchesScalarReference) {
  using lim = std::numeric_limits<float>;
  const float nan = lim::quiet_NaN();
  const float inf = lim::infinity();
  const double unbounded = std::numeric_limits<double>::infinity();
  // Infinities last, so that finite draws can leave them out: with them,
  // most long pairs differ by inf somewhere, and with +-FLT_MAX by
  // 2 * FLT_MAX. Plain draws leave out the whole pool.
  const float pool[] = {0.0f,  -0.0f,          1.0f,  -1.0f,
                        0.5f,  -3.25f,         1e-30f, 7e20f,
                        lim::denorm_min(),     -lim::denorm_min(),
                        lim::min() / 4.0f,     -lim::min() / 3.0f,
                        lim::max(),            -lim::max(),
                        inf,   -inf};
  sim::Rng rng(0x3a5dULL);
  enum Draw { kPlain, kFinite, kAny };
  auto random_tensor = [&](std::size_t n, Draw draw = kAny) {
    const std::size_t kinds = std::size(pool) - (draw == kAny ? 0 : 2);
    DenseTensor t(n);
    for (std::size_t i = 0; i < n; ++i) {
      t[i] = draw == kPlain || rng.next_bool(0.3)
                 ? rng.next_float(-2.0f, 2.0f)
                 : pool[rng.next_below(kinds)];
    }
    return t;
  };
  // Every length up to eight vector steps plus every tail length.
  for (std::size_t n = 0; n <= 67; ++n) {
    SCOPED_TRACE("n " + std::to_string(n));
    for (int rep = 0; rep < 24; ++rep) {
      const auto draw = static_cast<Draw>(rep % 3);
      const DenseTensor a = random_tensor(n, draw);
      const DenseTensor b = rep % 8 == 1 ? a : random_tensor(n, draw);
      ASSERT_EQ(max_abs_diff(a, b), scalar_max_abs_diff(a, b));
      ASSERT_EQ(max_abs_diff(b, a), scalar_max_abs_diff(b, a));
    }
    // One NaN at each position, in the vector body and in the tail: on
    // one side only it is unbounded, on both sides (any sign) it is
    // ignored, as is inf - inf.
    const DenseTensor base = random_tensor(n);
    for (std::size_t p = 0; p < n; ++p) {
      SCOPED_TRACE("position " + std::to_string(p));
      DenseTensor a = base;
      DenseTensor b = base;
      b[p] = 0.25f;
      a[p] = nan;
      ASSERT_EQ(max_abs_diff(a, b), unbounded);
      ASSERT_EQ(max_abs_diff(b, a), unbounded);
      a[p] = -nan;
      ASSERT_EQ(max_abs_diff(a, b), unbounded);
      ASSERT_EQ(max_abs_diff(b, a), unbounded);
      b[p] = nan;
      ASSERT_EQ(max_abs_diff(a, b), scalar_max_abs_diff(a, b));
      ASSERT_EQ(max_abs_diff(a, b), max_abs_diff(base, base));
      a[p] = inf;
      b[p] = inf;
      ASSERT_EQ(max_abs_diff(a, b), scalar_max_abs_diff(a, b));
      ASSERT_EQ(max_abs_diff(a, b), max_abs_diff(base, base));
      b[p] = -inf;
      ASSERT_EQ(max_abs_diff(a, b), unbounded);
    }
  }
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

/// The naive conversion: every element with x != 0.0f, in index order, as
/// (key, value bits).
std::pair<std::vector<std::int32_t>, std::vector<std::uint32_t>> naive_coo(
    const DenseTensor& t) {
  std::pair<std::vector<std::int32_t>, std::vector<std::uint32_t>> out;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i] != 0.0f) {
      out.first.push_back(static_cast<std::int32_t>(i));
      out.second.push_back(std::bit_cast<std::uint32_t>(t[i]));
    }
  }
  return out;
}

TEST(Coo, DenseToCooMatchesNaiveLoopOnMixedGroups) {
  // Each 64-element group is full (no zero at all), nearly full (one +-0
  // at a random lane), partial, or empty (+-0 only), in random order, and
  // the tensor ends in a tail of 1-63 elements. The non-zero values
  // include NaN, denormals and -1e-40f; nonzero_mask must agree with the
  // scalar test on every group and on every tail length.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float nonzeros[] = {nan, denorm, -denorm, -1e-40f, 1.0f, -3.5f, 7e30f};
  const float zeros[] = {0.0f, -0.0f};
  sim::Rng rng(0x64b175);
  const auto any_nonzero = [&] {
    return nonzeros[rng.next_below(std::size(nonzeros))];
  };
  const auto any_zero = [&] { return zeros[rng.next_below(2)]; };
  for (std::size_t tail = 0; tail < 64; ++tail) {
    const std::size_t groups = 1 + rng.next_below(9);
    DenseTensor t(groups * 64 + tail);
    for (std::size_t i = 0; i < t.size(); i += 64) {
      const std::size_t len = std::min<std::size_t>(64, t.size() - i);
      const std::uint64_t kind = rng.next_below(4);
      const std::size_t hole = rng.next_below(len);
      for (std::size_t j = 0; j < len; ++j) {
        switch (kind) {
          case 0: t[i + j] = any_nonzero(); break;
          case 1: t[i + j] = j == hole ? any_zero() : any_nonzero(); break;
          case 2:
            t[i + j] = rng.next_below(2) == 0 ? any_zero() : any_nonzero();
            break;
          default: t[i + j] = any_zero();
        }
      }
      std::uint64_t mask = 0;
      for (std::size_t j = 0; j < len; ++j) {
        mask |= static_cast<std::uint64_t>(t[i + j] != 0.0f) << j;
      }
      EXPECT_EQ(nonzero_mask(t.values().data() + i, len), mask)
          << "tail=" << tail << " group at " << i;
    }
    const auto [keys, bits] = naive_coo(t);
    const CooTensor c = dense_to_coo(t);
    EXPECT_EQ(c.dim, t.size());
    EXPECT_EQ(c.keys, keys) << "tail=" << tail;
    std::vector<std::uint32_t> got;
    for (float v : c.values) got.push_back(std::bit_cast<std::uint32_t>(v));
    EXPECT_EQ(got, bits) << "tail=" << tail;
  }
}

TEST(Coo, CooToDenseIntoAnExistingTensorAndEveryWorker) {
  // Keyed elements take their values; every other element, including the
  // ones past dim, becomes +0 whatever it held; the size is kept.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const CooTensor c{130, {0, 63, 64, 65, 129}, {-0.0f, nan, 2.0f, -3.0f, 4.0f}};
  DenseTensor out(std::vector<float>(200, nan));
  out[1] = -0.0f;
  coo_to_dense(c, out);
  ASSERT_EQ(out.size(), 200u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto it = std::find(c.keys.begin(), c.keys.end(),
                              static_cast<std::int32_t>(i));
    const float want =
        it == c.keys.end() ? 0.0f : c.values[static_cast<std::size_t>(
                                        it - c.keys.begin())];
    EXPECT_EQ(std::bit_cast<std::uint32_t>(out[i]),
              std::bit_cast<std::uint32_t>(want))
        << "i=" << i;
  }
  DenseTensor shorter(129);
  EXPECT_THROW(coo_to_dense(c, shorter), std::invalid_argument);

  // reduce_as_coo hands the workers' COO to the collective and writes its
  // merged result, bit for bit, into every worker's tensor.
  std::vector<DenseTensor> workers(
      3, DenseTensor(std::vector<float>(130, 1.0f)));
  const int reported = reduce_as_coo(
      workers, [&](const std::vector<CooTensor>& inputs, CooTensor& merged) {
        EXPECT_EQ(inputs.size(), 3u);
        EXPECT_EQ(inputs.front().nnz(), 130u);
        merged = c;
        return 7;
      });
  EXPECT_EQ(reported, 7);
  const DenseTensor fresh = coo_to_dense(c);
  for (const DenseTensor& w : workers) {
    ASSERT_EQ(w.size(), fresh.size());
    EXPECT_EQ(0, std::memcmp(w.values().data(), fresh.values().data(),
                             fresh.size() * sizeof(float)));
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

/// The per-key accumulator every word-run fast path must reproduce: a
/// dense slab over [lo, hi) and a touched flag per key; the first
/// contribution to a key stores its value, later ones add in call order,
/// and emit lists the touched keys in ascending order.
class PerKeyAccumulator {
 public:
  PerKeyAccumulator(std::int64_t lo, std::int64_t hi)
      : lo_(lo), sums_(static_cast<std::size_t>(hi - lo)),
        touched_(sums_.size(), false) {}
  void add(std::int32_t key, float value) {
    const auto i = static_cast<std::size_t>(key - lo_);
    if (touched_[i]) {
      sums_[i] += value;
    } else {
      touched_[i] = true;
      sums_[i] = value;
      ++size_;
    }
  }
  std::size_t size() const { return size_; }
  void emit(CooTensor& out) {
    for (std::size_t i = 0; i < sums_.size(); ++i) {
      if (!touched_[i]) continue;
      out.keys.push_back(
          static_cast<std::int32_t>(lo_ + static_cast<std::int64_t>(i)));
      out.values.push_back(sums_[i]);
      touched_[i] = false;
    }
    size_ = 0;
  }

 private:
  std::int64_t lo_;
  std::vector<float> sums_;
  std::vector<bool> touched_;
  std::size_t size_ = 0;
};

std::vector<std::uint32_t> value_bits(const CooTensor& t) {
  std::vector<std::uint32_t> bits;
  for (float v : t.values) bits.push_back(std::bit_cast<std::uint32_t>(v));
  return bits;
}

TEST(SparseRangeAccumulator, WordRunsMatchPerKeyAdds) {
  // lo = 37 is not a multiple of 64, so the slab's words start at keys
  // 37 + 64w. Each input is sorted and unique and mixes dense runs that
  // start on a word boundary of the slab, runs that start anywhere (in
  // absolute keys, both), and scattered keys; several inputs in a row make
  // words untouched, partly touched and full when a run reaches them.
  // Values include +-0 and NaN, and sums cancel to +-0. Inputs are fed
  // whole, through add(CooTensor), and in pointer chunks cut at random
  // points, as the sparse PS receives them; the accumulator is reused
  // after each emit and emits append.
  const std::int64_t lo = 37;
  const std::int64_t hi = lo + 64 * 24 + 13;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {0.0f, -0.0f, nan, 1e8f, -1e8f, 1.0f, -2.5f};
  sim::Rng rng(0x5eed64);
  const auto value = [&] {
    return rng.next_below(4) == 0
               ? specials[rng.next_below(std::size(specials))]
               : rng.next_float(-4.0f, 4.0f);
  };
  const auto make_input = [&] {
    std::set<std::int32_t> keys;
    const std::uint64_t runs = rng.next_below(4);
    for (std::uint64_t r = 0; r < runs; ++r) {
      const std::int64_t len =
          1 + static_cast<std::int64_t>(rng.next_below(200));
      const std::int64_t start =
          rng.next_below(2) == 0
              ? lo + 64 * static_cast<std::int64_t>(rng.next_below(24))
              : lo + static_cast<std::int64_t>(
                         rng.next_below(static_cast<std::uint64_t>(hi - lo)));
      for (std::int64_t k = start; k < std::min(hi, start + len); ++k) {
        keys.insert(static_cast<std::int32_t>(k));
      }
    }
    const std::uint64_t scattered = rng.next_below(60);
    for (std::uint64_t k = 0; k < scattered; ++k) {
      keys.insert(static_cast<std::int32_t>(
          lo + static_cast<std::int64_t>(
                   rng.next_below(static_cast<std::uint64_t>(hi - lo)))));
    }
    CooTensor t;
    t.dim = static_cast<std::size_t>(hi + 5);
    t.keys.assign(keys.begin(), keys.end());
    for (std::size_t i = 0; i < t.keys.size(); ++i) t.values.push_back(value());
    return t;
  };

  SparseRangeAccumulator acc(lo, hi);
  for (int trial = 0; trial < 300; ++trial) {
    PerKeyAccumulator ref(lo, hi);
    CooTensor want;
    CooTensor got;
    // Emits append: start both outputs with the same entry.
    want.keys.push_back(-1);
    want.values.push_back(-0.0f);
    got = want;
    for (int round = 0; round < 2; ++round) {
      const std::uint64_t inputs = 1 + rng.next_below(6);
      for (std::uint64_t k = 0; k < inputs; ++k) {
        const CooTensor t = make_input();
        for (std::size_t j = 0; j < t.nnz(); ++j) {
          ref.add(t.keys[j], t.values[j]);
        }
        switch (rng.next_below(3)) {
          case 0: acc.add(t.keys.data(), t.values.data(), t.nnz()); break;
          case 1: acc.add(t); break;
          default:
            for (std::size_t off = 0; off < t.nnz();) {
              const std::size_t len = std::min<std::size_t>(
                  t.nnz() - off, 1 + rng.next_below(150));
              acc.add(t.keys.data() + off, t.values.data() + off, len);
              off += len;
            }
        }
        ASSERT_EQ(acc.size(), ref.size()) << "trial " << trial;
      }
      ref.emit(want);
      acc.emit(got);
      ASSERT_EQ(acc.size(), 0u);
      ASSERT_EQ(got.keys, want.keys) << "trial " << trial;
      ASSERT_EQ(value_bits(got), value_bits(want)) << "trial " << trial;
    }
  }
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
  // Out of [0, 1], NaN included, is refused before any block count is
  // derived from it, in every overlap mode.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), -0.1, 1.5}) {
    EXPECT_THROW(make_block_sparse(100, 10, bad, rng), std::invalid_argument)
        << bad;
    for (OverlapMode mode :
         {OverlapMode::kRandom, OverlapMode::kAll, OverlapMode::kNone}) {
      EXPECT_THROW(make_multi_worker(2, 100, 10, bad, mode, rng),
                   std::invalid_argument)
          << bad;
    }
  }
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

TEST(Generators, MultiWorkerEmbeddingHotRowsOverlap) {
  sim::Rng rng(9);
  const std::size_t n = 1 << 18;
  auto ts = make_multi_worker_embedding(8, n, n, 256, 64, 8, 1.0, 0.0, rng);
  // hot_fraction=1 with 8 hot rows and 64 requested rows per worker: each
  // worker activates only hot rows (at most 8 distinct), so every non-zero
  // block is shared by all workers.
  std::set<std::vector<std::uint8_t>> distinct;
  for (const auto& t : ts) {
    const BlockBitmap bm(t.span(), 256);
    distinct.insert(bm.bits());
    // Rows are row-aligned runs: every non-zero 256-block is a full row.
    EXPECT_EQ(t.nnz(), 256u * bm.nonzero_count());
  }
  EXPECT_EQ(distinct.size(), 1u);

  // No embedding rows and a tail density of 1: every element is non-zero.
  const std::size_t m = 100000;
  for (const auto& t : make_multi_worker_embedding(2, m, 0, 64, 0, 0, 0.0,
                                                   1.0, rng)) {
    EXPECT_EQ(t.nnz(), m);
  }
}

}  // namespace
}  // namespace omr::tensor
