// Inline wire-codec layer: blockwise FP8/Q8/Q6/Q4 codecs on both legs of
// the collective. Contracts pinned here:
//   - per-codec round-trip error bounds and exact wire payload sizes,
//   - quantized-domain folds are exact (order-independent integer sums),
//   - codec-encoded allreduces verify within the analytic slack,
//   - codec disabled == byte-identical to the seed goldens,
//   - codec enabled == replay-bit-identical, including the serialized
//     RunReport,
//   - the online selector scores codec lanes and flips at the size
//     crossover (setup cost vs. wire shrink).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/zoo.h"
#include "compress/wire_codec.h"
#include "core/algorithm.h"
#include "core/cluster.h"
#include "core/engine.h"
#include "core/selector.h"
#include "sim/rng.h"
#include "telemetry/report.h"
#include "tensor/generators.h"

namespace omr::core {
namespace {

using compress::EncodedBlock;
using compress::QuantAccumulator;
using compress::WireCodec;
using compress::kCodecGroup;

const WireCodec kAllCodecs[] = {WireCodec::kFp8, WireCodec::kQ8,
                                WireCodec::kQ6, WireCodec::kQ4};

std::vector<float> random_values(std::size_t n, double scale, sim::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) {
    x = static_cast<float>((rng.next_double() * 2.0 - 1.0) * scale);
  }
  return v;
}

TEST(WireCodec, NamesRoundTrip) {
  const auto names = compress::codec_names();
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names.front(), "none");
  for (const auto& name : names) {
    EXPECT_EQ(compress::codec_name(compress::codec_from_name(name)), name);
  }
  EXPECT_THROW(compress::codec_from_name("zstd"), std::invalid_argument);
}

TEST(WireCodec, PayloadBytesMatchWireFormat) {
  // Per full 32-element group: fp8 = 2B scale + 32 codes = 34; q8 = 4B
  // scale+zero + 32 = 36; q6 = 4 + 24 = 28; q4 = 4 + 16 = 20. kNone is
  // raw fp32.
  EXPECT_EQ(compress::codec_payload_bytes(WireCodec::kNone, 32), 128u);
  EXPECT_EQ(compress::codec_payload_bytes(WireCodec::kFp8, 32), 34u);
  EXPECT_EQ(compress::codec_payload_bytes(WireCodec::kQ8, 32), 36u);
  EXPECT_EQ(compress::codec_payload_bytes(WireCodec::kQ6, 32), 28u);
  EXPECT_EQ(compress::codec_payload_bytes(WireCodec::kQ4, 32), 20u);
  // A 256-element engine block carries 8 groups.
  for (WireCodec c : kAllCodecs) {
    EXPECT_EQ(compress::codec_payload_bytes(c, 256),
              8 * compress::codec_payload_bytes(c, 32));
  }
  // Partial trailing group: packed code bytes round up, metadata in full.
  EXPECT_EQ(compress::codec_payload_bytes(WireCodec::kQ4, 33),
            20u + 4u + 1u);
  // Asymptotic bits per element match the exact accounting.
  for (WireCodec c : kAllCodecs) {
    const std::size_t n = 1 << 16;
    const double bits =
        8.0 * static_cast<double>(compress::codec_payload_bytes(c, n)) /
        static_cast<double>(n);
    EXPECT_NEAR(bits, compress::codec_bits_per_element(c), 1e-9)
        << compress::codec_name(c);
  }
}

TEST(WireCodec, RoundTripRespectsErrorBound) {
  sim::Rng rng(2024);
  for (WireCodec c : kAllCodecs) {
    SCOPED_TRACE(compress::codec_name(c));
    for (std::size_t n : {std::size_t{32}, std::size_t{256},
                          std::size_t{77}}) {  // incl. a partial group
      const std::vector<float> x = random_values(n, 3.7, rng);
      EncodedBlock e;
      compress::encode_block(x.data(), n, c, e);
      std::vector<float> y(n);
      compress::decode_block(e, y.data());
      for (std::size_t g = 0; g * kCodecGroup < n; ++g) {
        const std::size_t lo = g * kCodecGroup;
        const std::size_t hi = std::min(n, lo + kCodecGroup);
        float amax = 0.0f;
        for (std::size_t i = lo; i < hi; ++i) {
          amax = std::max(amax, std::fabs(x[i]));
        }
        const double bound =
            compress::codec_rel_error_bound(c) * static_cast<double>(amax);
        for (std::size_t i = lo; i < hi; ++i) {
          EXPECT_LE(std::fabs(static_cast<double>(x[i]) - y[i]), bound)
              << "element " << i;
        }
      }
    }
  }
}

TEST(WireCodec, ZeroAndConstantBlocksAreExact) {
  for (WireCodec c : kAllCodecs) {
    SCOPED_TRACE(compress::codec_name(c));
    std::vector<float> zeros(64, 0.0f);
    compress::codec_roundtrip(zeros.data(), zeros.size(), c);
    for (float v : zeros) EXPECT_EQ(v, 0.0f);
  }
}

// fp16_round against an oracle in double: the nearest binary16 value, ties
// to even, saturating at ±65504 (the wire has no half infinities). The
// sweep strides over every float bit pattern and adds the range edges.
TEST(WireCodec, Fp16RoundIsNearestEven) {
  const auto oracle = [](float x) {
    if (std::isnan(x)) return x;
    const double a = std::fabs(static_cast<double>(x));
    double r = 65504.0;
    if (a < 65520.0) {
      int e = 0;
      std::frexp(a, &e);  // a in [2^(e-1), 2^e)
      const double step = std::ldexp(1.0, std::max(e - 1, -14) - 10);
      r = std::nearbyint(a / step) * step;
    }
    return std::copysign(static_cast<float>(r), x);
  };
  std::vector<std::uint32_t> patterns;
  for (std::uint64_t b = 0; b <= 0xffffffffu; b += 16411) {
    patterns.push_back(static_cast<std::uint32_t>(b));
  }
  for (std::uint32_t edge : {0x33000000u, 0x38800000u, 0x477fe000u,
                             0x477ff000u, 0x7f800000u}) {
    for (std::uint32_t sign : {0u, 0x80000000u}) {
      for (std::uint32_t d : {0u, 1u, 0xfffu, 0x1000u, 0x1001u}) {
        patterns.push_back(sign | (edge - d));
        patterns.push_back(sign | (edge + d));
      }
    }
  }
  for (std::uint32_t p : patterns) {
    float x;
    std::memcpy(&x, &p, sizeof(x));
    const float got = compress::fp16_round(x);
    const float want = oracle(x);
    ASSERT_TRUE(std::memcmp(&got, &want, sizeof(got)) == 0 ||
                (std::isnan(got) && std::isnan(want)))
        << std::hex << "bits 0x" << p << ": got " << got << ", want "
        << want;
  }
}

// An element far past the fp16 range takes the top code and decodes with
// its own sign; the integer conversion must never see an out-of-range
// value (it once turned 3e38 into code 0, decoding to the group's floor).
TEST(WireCodec, SaturatingValuesClampToTheTopCode) {
  for (WireCodec c : {WireCodec::kQ8, WireCodec::kQ6, WireCodec::kQ4}) {
    SCOPED_TRACE(compress::codec_name(c));
    const auto top =
        static_cast<std::int32_t>((1u << compress::codec_code_bits(c)) - 1u);
    std::vector<float> x(kCodecGroup, 0.5f);
    x[0] = -1.0f;
    x[7] = 3e38f;
    EncodedBlock e;
    compress::encode_block(x.data(), x.size(), c, e);
    EXPECT_EQ(e.q[0], 0);
    EXPECT_EQ(e.q[7], top);
    std::vector<float> y(x.size());
    compress::decode_block(e, y.data());
    EXPECT_GT(y[7], 0.0f);
    EXPECT_EQ(y[7], e.scale[0] * static_cast<float>(top) + e.zero[0]);
  }
}

std::uint32_t float_bits(float f) {
  std::uint32_t b;
  std::memcpy(&b, &f, sizeof(b));
  return b;
}

// Bitwise equality, except that any two NaNs match: NaN payloads may
// depend on the operand order the compiler picks for a commutative op.
bool same_float(float a, float b) {
  return float_bits(a) == float_bits(b) || (std::isnan(a) && std::isnan(b));
}

// Inputs for the lane/scalar comparison: random groups, which take the
// lanes, and every kind of group the lanes hand to the scalar kernel.
std::vector<std::vector<float>> codec_kernel_cases(std::size_t n,
                                                   sim::Rng& rng) {
  std::vector<std::vector<float>> cases;
  const auto add = [&](auto value) {
    std::vector<float> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = value(i % kCodecGroup);
    cases.push_back(std::move(v));
  };
  const auto uniform = [&](double lo, double hi) {
    return static_cast<float>(lo + (hi - lo) * rng.next_double());
  };
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  add([&](std::size_t) { return uniform(-3.7, 3.7); });
  add([&](std::size_t) { return uniform(-2e6, 1e6); });
  add([](std::size_t) { return 0.0f; });
  add([](std::size_t j) { return j % 3 == 0 ? -0.0f : 0.0f; });
  // Min is ±0: -0 at the first element, +0 later.
  add([&](std::size_t j) {
    return j == 0 ? -0.0f : (j == 9 ? 0.0f : uniform(0.5, 2.0));
  });
  // Max is ±0: +0 and -0 both past the first element.
  add([&](std::size_t j) {
    return j == 5 ? 0.0f : (j == 17 ? -0.0f : uniform(-2.0, -0.5));
  });
  // Zeros inside the range: the lanes still take these groups.
  add([&](std::size_t j) {
    return j == 4 ? 0.0f : (j == 11 ? -0.0f : uniform(-1.0, 1.0));
  });
  add([](std::size_t) { return 1.25f; });
  add([&](std::size_t) { return uniform(-1e-39, 1e-39); });  // denormals
  add([&](std::size_t j) { return j == 0 ? nan : uniform(-1.0, 1.0); });
  add([&](std::size_t j) { return j == 13 ? nan : uniform(-1.0, 1.0); });
  add([&](std::size_t j) {
    return j == 3 ? inf : (j == 20 ? -inf : uniform(-1.0, 1.0));
  });
  add([&](std::size_t j) { return j == 30 ? inf : uniform(-1.0, 1.0); });
  add([&](std::size_t j) {
    return j == 7 ? 3e38f : (j == 30 ? -3e38f : uniform(-1.0, 1.0));
  });
  add([&](std::size_t j) { return j == 1 ? 3e38f : uniform(-1.0, 1.0); });
  return cases;
}

// The one-pass encode_in_place, whose full groups run in SSE2 lanes where
// built, must match encode_block followed by decode_block bit for bit:
// scales, zeros, codes, representatives, and the error stream the worker
// folds into its residual.
TEST(WireCodec, VectorMatchesScalarReference) {
  sim::Rng rng(31);
  for (WireCodec c : {WireCodec::kQ8, WireCodec::kQ6, WireCodec::kQ4}) {
    for (std::size_t n : {1, 3, 31, 32, 33, 255, 256, 257}) {
      const auto cases = codec_kernel_cases(n, rng);
      for (std::size_t k = 0; k < cases.size(); ++k) {
        SCOPED_TRACE(std::string(compress::codec_name(c)) + " n=" +
                     std::to_string(n) + " case " + std::to_string(k));
        const std::vector<float>& x = cases[k];
        EncodedBlock ref;
        compress::encode_block(x.data(), n, c, ref);
        std::vector<float> ref_dec(n);
        compress::decode_block(ref, ref_dec.data());

        // One pass: representatives in place, errors for all but the last
        // element (a partial error window), squared errors over all n.
        std::vector<float> y = x;
        std::vector<float> err(n, 42.0f);
        compress::CodecResidual res{err.data(), n - 1, 0.5};
        EncodedBlock fused;
        compress::encode_in_place(y.data(), n, c, fused, &res);
        EXPECT_EQ(fused.codec, c);
        EXPECT_EQ(fused.n, n);
        ASSERT_EQ(fused.scale.size(), ref.scale.size());
        ASSERT_EQ(fused.zero.size(), ref.zero.size());
        for (std::size_t g = 0; g < ref.scale.size(); ++g) {
          EXPECT_TRUE(same_float(fused.scale[g], ref.scale[g]))
              << "group " << g;
          EXPECT_TRUE(same_float(fused.zero[g], ref.zero[g]))
              << "group " << g;
        }
        EXPECT_EQ(fused.q, ref.q);
        double sq = 0.5;
        for (std::size_t i = 0; i < n; ++i) {
          const float e = x[i] - ref_dec[i];
          sq += static_cast<double>(e) * e;
          EXPECT_TRUE(same_float(y[i], ref_dec[i])) << "element " << i;
          if (i + 1 < n) {
            EXPECT_TRUE(same_float(err[i], e)) << "element " << i;
          }
        }
        EXPECT_EQ(err[n - 1], 42.0f);
        EXPECT_TRUE(res.sq == sq || (std::isnan(res.sq) && std::isnan(sq)));
      }
    }
  }
}

// Workers whose per-group (min, max) agree produce bitwise-equal fp16
// scales/zeros, so the aggregator folds integer codes: the decoded sum
// must equal scale * sum(q) + k * zero evaluated in double, exactly.
TEST(WireCodec, QuantizedFoldIsExactAndOrderIndependent) {
  constexpr std::size_t kN = 64;  // two groups
  constexpr std::size_t kWorkers = 4;
  sim::Rng rng(7);
  std::vector<EncodedBlock> blocks(kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    std::vector<float> x = random_values(kN, 2.0, rng);
    for (std::size_t g = 0; g * kCodecGroup < kN; ++g) {
      x[g * kCodecGroup] = -2.0f;     // pin the group min...
      x[g * kCodecGroup + 1] = 6.0f;  // ...and max across workers
    }
    compress::encode_block(x.data(), kN, WireCodec::kQ8, blocks[w]);
  }

  QuantAccumulator acc;
  acc.reset();
  for (const auto& b : blocks) EXPECT_TRUE(acc.fold(&b));
  ASSERT_TRUE(acc.active);
  EXPECT_EQ(acc.k, kWorkers);
  std::vector<float> sum(kN);
  acc.decode(sum.data(), kN);

  for (std::size_t i = 0; i < kN; ++i) {
    const std::size_t g = i / kCodecGroup;
    double ref = 0.0;
    for (const auto& b : blocks) {
      ref += static_cast<double>(b.scale[g]) * b.q[i];
    }
    ref += static_cast<double>(kWorkers) *
           static_cast<double>(blocks[0].zero[g]);
    EXPECT_EQ(sum[i], static_cast<float>(ref)) << "element " << i;
  }

  // Integer sums commute: reversed fold order is bit-identical.
  QuantAccumulator rev;
  rev.reset();
  for (auto it = blocks.rbegin(); it != blocks.rend(); ++it) {
    EXPECT_TRUE(rev.fold(&*it));
  }
  std::vector<float> sum_rev(kN);
  rev.decode(sum_rev.data(), kN);
  EXPECT_EQ(sum, sum_rev);
}

TEST(WireCodec, IncompatibleContributionsDeactivateTheAccumulator) {
  sim::Rng rng(9);
  const std::vector<float> a = random_values(32, 1.0, rng);
  const std::vector<float> b = random_values(32, 100.0, rng);  // new scale
  EncodedBlock ea, eb, efp;
  compress::encode_block(a.data(), a.size(), WireCodec::kQ8, ea);
  compress::encode_block(b.data(), b.size(), WireCodec::kQ8, eb);
  compress::encode_block(a.data(), a.size(), WireCodec::kFp8, efp);

  QuantAccumulator acc;
  acc.reset();
  EXPECT_TRUE(acc.fold(&ea));
  EXPECT_FALSE(acc.fold(&eb));  // mismatched scales -> float-domain fallback
  EXPECT_FALSE(acc.active);

  acc.reset();
  EXPECT_FALSE(acc.fold(&efp));  // e4m3 codes are not additive
  EXPECT_FALSE(acc.active);

  acc.reset();
  EXPECT_TRUE(acc.fold(&ea));
  EXPECT_FALSE(acc.fold(nullptr));  // raw fp32 contribution
  EXPECT_FALSE(acc.active);
}

struct RunSetup {
  Config cfg;
  ClusterSpec cluster;
  std::size_t n_workers = 4;
  std::size_t elements = 65536;
  double sparsity = 0.85;
};

RunSetup make_setup(Transport transport, double loss_rate) {
  RunSetup s;
  s.cfg = Config::for_transport(transport);
  FabricConfig fabric;
  fabric.loss_rate = loss_rate;
  fabric.seed = 7;
  s.cluster = ClusterSpec::dedicated(4, fabric);
  return s;
}

std::vector<tensor::DenseTensor> make_tensors(const RunSetup& s) {
  sim::Rng rng(42);
  return tensor::make_multi_worker(s.n_workers, s.elements, s.cfg.block_size,
                                   s.sparsity, tensor::OverlapMode::kRandom,
                                   rng);
}

RunStats run_once(const RunSetup& s, bool verify = false,
                  std::vector<tensor::DenseTensor>* out = nullptr) {
  auto tensors = make_tensors(s);
  RunStats stats = run_allreduce(tensors, s.cfg, s.cluster, verify);
  if (out != nullptr) *out = std::move(tensors);
  return stats;
}

void expect_identical(const RunStats& a, const RunStats& b) {
  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.worker_finish, b.worker_finish);
  EXPECT_EQ(a.worker_data_bytes, b.worker_data_bytes);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.dropped_messages, b.dropped_messages);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.acks, b.acks);
  EXPECT_EQ(a.duplicate_resends, b.duplicate_resends);
  EXPECT_EQ(a.codec, b.codec);
  EXPECT_EQ(a.codec_saved_bytes, b.codec_saved_bytes);
  EXPECT_EQ(a.codec_exact_folds, b.codec_exact_folds);
  EXPECT_EQ(a.codec_requant_folds, b.codec_requant_folds);
  EXPECT_EQ(a.codec_residual_l2, b.codec_residual_l2);
}

// The codec-disabled default must reproduce the seed goldens bit-exactly
// (same pins as test_determinism — re-asserted under the codec label so a
// codec-layer regression cannot hide behind a suite filter).

TEST(CodecDisabled, RdmaMatchesSeedGolden) {
  const RunStats a = run_once(make_setup(Transport::kRdma, 0.0));
  EXPECT_EQ(a.completion_time, 467621);
  EXPECT_EQ(a.worker_data_bytes,
            (std::vector<std::uint64_t>{38912, 38912, 38912, 38912}));
  EXPECT_EQ(a.total_messages, 1176u);
  EXPECT_EQ(a.rounds, 375u);
  EXPECT_TRUE(a.codec.empty());
  EXPECT_EQ(a.codec_saved_bytes, 0u);
}

TEST(CodecDisabled, LossyDpdkMatchesSeedGolden) {
  const RunStats a = run_once(make_setup(Transport::kDpdk, 0.01));
  EXPECT_EQ(a.completion_time, 1353163);
  EXPECT_EQ(a.retransmissions, 78u);
  EXPECT_EQ(a.dropped_messages, 32u);
  EXPECT_EQ(a.acks, 324u);
  EXPECT_EQ(a.duplicate_resends, 38u);
  EXPECT_TRUE(a.codec.empty());
}

TEST(CodecDisabled, ReportJsonHasNoCodecSection) {
  RunSetup s = make_setup(Transport::kRdma, 0.0);
  auto tensors = make_tensors(s);
  telemetry::RunReport report =
      core::run_allreduce_report(tensors, s.cfg, s.cluster, /*verify=*/true);
  std::ostringstream os;
  report.write_json(os);
  EXPECT_EQ(os.str().find("\"codec\""), std::string::npos);
}

TEST(CodecEnabled, EveryCodecVerifiesAndShrinksTheWire) {
  const RunStats base = run_once(make_setup(Transport::kRdma, 0.0));
  for (WireCodec c : kAllCodecs) {
    SCOPED_TRACE(compress::codec_name(c));
    RunSetup s = make_setup(Transport::kRdma, 0.0);
    s.cfg.codec.codec = c;
    const RunStats a = run_once(s, /*verify=*/true);
    EXPECT_TRUE(a.verified) << "max_error " << a.max_error;
    EXPECT_EQ(a.codec, compress::codec_name(c));
    EXPECT_GT(a.codec_saved_bytes, 0u);
    EXPECT_GT(a.codec_residual_l2, 0.0);
    // Payload accounting reflects the encoded wire size on both legs.
    for (std::size_t w = 0; w < a.worker_data_bytes.size(); ++w) {
      EXPECT_LT(a.worker_data_bytes[w], base.worker_data_bytes[w]);
    }
  }
}

TEST(CodecEnabled, IdenticalWorkerTensorsFoldInTheQuantizedDomain) {
  // Bitwise-equal inputs produce bitwise-equal (scale, zero) per group, so
  // every aggregator fold stays in the integer domain.
  RunSetup s = make_setup(Transport::kRdma, 0.0);
  s.cfg.codec.codec = WireCodec::kQ8;
  sim::Rng rng(42);
  auto tensors = tensor::make_multi_worker(1, s.elements, s.cfg.block_size,
                                           s.sparsity,
                                           tensor::OverlapMode::kRandom, rng);
  std::vector<tensor::DenseTensor> replicated(4, tensors.front());
  const RunStats a =
      run_allreduce(replicated, s.cfg, s.cluster, /*verify=*/true);
  EXPECT_TRUE(a.verified);
  EXPECT_GT(a.codec_exact_folds, 0u);
  EXPECT_EQ(a.codec_requant_folds, 0u);
}

TEST(CodecEnabled, RandomTensorsTakeTheRequantFallback) {
  RunSetup s = make_setup(Transport::kRdma, 0.0);
  s.cfg.codec.codec = WireCodec::kQ8;
  const RunStats a = run_once(s, /*verify=*/true);
  EXPECT_TRUE(a.verified);
  EXPECT_GT(a.codec_requant_folds, 0u);
}

TEST(CodecEnabled, EncodedRunsReplayBitIdentically) {
  for (Transport t : {Transport::kRdma, Transport::kDpdk}) {
    SCOPED_TRACE(t == Transport::kRdma ? "rdma" : "dpdk+loss");
    RunSetup s = make_setup(t, t == Transport::kDpdk ? 0.01 : 0.0);
    s.cfg.codec.codec = WireCodec::kQ4;
    std::vector<tensor::DenseTensor> ra, rb;
    const RunStats a = run_once(s, /*verify=*/false, &ra);
    const RunStats b = run_once(s, /*verify=*/false, &rb);
    expect_identical(a, b);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t w = 0; w < ra.size(); ++w) {
      EXPECT_TRUE(ra[w] == rb[w]) << "worker " << w;  // bitwise
    }
  }
}

TEST(CodecEnabled, ReportJsonCarriesTheCodecLane) {
  RunSetup s = make_setup(Transport::kRdma, 0.0);
  s.cfg.codec.codec = WireCodec::kQ6;
  auto tensors = make_tensors(s);
  telemetry::RunReport report =
      core::run_allreduce_report(tensors, s.cfg, s.cluster, /*verify=*/true);
  std::ostringstream os;
  report.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"codec\":{\"name\":\"q6\""), std::string::npos);
  EXPECT_NE(json.find("\"saved_bytes\""), std::string::npos);
  // Serialized form replays byte-identically too.
  auto tensors2 = make_tensors(s);
  telemetry::RunReport again =
      core::run_allreduce_report(tensors2, s.cfg, s.cluster, /*verify=*/true);
  std::ostringstream os2;
  again.write_json(os2);
  EXPECT_EQ(json, os2.str());
}

TEST(CodecEnabled, AlgorithmsWithoutCodecSupportAreRejected) {
  Config cfg = Config::for_transport(Transport::kRdma);
  cfg.codec.codec = WireCodec::kQ8;
  ClusterSpec cluster = ClusterSpec::dedicated(4);
  sim::Rng rng(1);
  auto tensors = tensor::make_multi_worker(4, 4096, cfg.block_size, 0.5,
                                           tensor::OverlapMode::kRandom, rng);
  baselines::register_zoo();
  EXPECT_THROW(run_collective("ring", tensors, cfg, cluster,
                              /*verify=*/false),
               std::invalid_argument);
  const AlgoCapabilities ring_caps =
      CollectiveRegistry::global().at("ring").capabilities();
  EXPECT_FALSE(capabilities_allow(ring_caps, cfg, cluster));
  // The engine algorithms accept the same Config.
  for (const char* name : {"omnireduce", "switchml"}) {
    const AlgoCapabilities caps =
        CollectiveRegistry::global().at(name).capabilities();
    EXPECT_TRUE(capabilities_allow(caps, cfg, cluster)) << name;
  }
}

TEST(CodecSelector, LanesFlipAtTheSizeCrossover) {
  SelectorConfig sel_cfg;
  sel_cfg.candidates = {"omnireduce"};
  sel_cfg.codecs = compress::codec_names();
  OnlineSelector selector(sel_cfg);
  const Config cfg = Config::for_transport(Transport::kRdma);
  FabricConfig fabric;
  fabric.worker_bandwidth_bps = 10e9;
  fabric.aggregator_bandwidth_bps = 10e9;
  const ClusterSpec cluster = ClusterSpec::dedicated(8, fabric);

  // Small tensor: the one-time codec setup dwarfs the wire savings.
  const SelectorDecision small =
      selector.choose(8, 1024, 1.0, cfg, cluster);
  EXPECT_EQ(small.codec, "none");

  // Large tensor: wire shrink dominates; some codec lane must win.
  const SelectorDecision large =
      selector.choose(8, std::size_t{1} << 22, 1.0, cfg, cluster);
  EXPECT_NE(large.codec, "none");
  EXPECT_LT(large.predicted_seconds,
            selector.choose(8, std::size_t{1} << 22, 1.0, cfg, cluster)
                    .corrected_seconds +
                1e-12);

  // Lane-level feedback is relative: unobserved lanes inherit the mean of
  // the observed ratios (the model's error is mostly lane-independent), so
  // a switch needs contrast — punish the winning lane AND calibrate a
  // rival at face value, and the selector must move to the rival.
  const std::string rival = large.codec == "q4" ? "q6" : "q4";
  selector.observe("omnireduce", large.codec, std::size_t{1} << 22, 1.0,
                   large.predicted_seconds, large.predicted_seconds * 100.0);
  selector.observe("omnireduce", rival, std::size_t{1} << 22, 1.0,
                   large.predicted_seconds, large.predicted_seconds);
  const SelectorDecision after =
      selector.choose(8, std::size_t{1} << 22, 1.0, cfg, cluster);
  EXPECT_EQ(after.codec, rival);
}

TEST(CodecSelector, AutoRunVerifiesAndReportsTheLane) {
  SelectorConfig sel_cfg;
  sel_cfg.candidates = {"omnireduce"};
  sel_cfg.codecs = compress::codec_names();
  OnlineSelector selector(sel_cfg);
  RunSetup s = make_setup(Transport::kRdma, 0.0);
  auto tensors = make_tensors(s);
  SelectorDecision decision;
  const RunStats st =
      selector.run(tensors, s.cfg, s.cluster, &decision, /*verify=*/true);
  EXPECT_TRUE(st.verified);
  EXPECT_EQ(decision.algorithm, "omnireduce");
  EXPECT_FALSE(decision.codec.empty());
  if (decision.codec != "none") {
    EXPECT_EQ(st.codec, decision.codec);
  } else {
    EXPECT_TRUE(st.codec.empty());
  }
}

}  // namespace
}  // namespace omr::core
