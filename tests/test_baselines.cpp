#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/agsparse.h"
#include "baselines/oktopk.h"
#include "baselines/parameter_server.h"
#include "baselines/ring.h"
#include "baselines/sketch_reducer.h"
#include "baselines/sparcml.h"
#include "baselines/zoo.h"
#include "core/algorithm.h"
#include "sim/rng.h"
#include "tensor/coo.h"
#include "tensor/generators.h"

namespace omr::baselines {
namespace {

// These tests pin the baseline implementations themselves; callers go
// through the CollectiveRegistry adapters (see test_algorithms.cpp).
using namespace detail;

using tensor::DenseTensor;

BaselineConfig fast_cfg() {
  BaselineConfig cfg;
  cfg.bandwidth_bps = 10e9;
  cfg.one_way_latency = sim::microseconds(5);
  cfg.chunk_elements = 1024;
  return cfg;
}

std::vector<DenseTensor> inputs(std::size_t n_workers, std::size_t n,
                                double sparsity, std::uint64_t seed) {
  sim::Rng rng(seed);
  return tensor::make_multi_worker(n_workers, n, 16, sparsity,
                                   tensor::OverlapMode::kRandom, rng);
}

// Every worker's in-place result matches the serial sum within the
// float-reassociation tolerance the registry applies to exact algorithms.
bool matches_sum(const std::vector<DenseTensor>& results,
                 const DenseTensor& expect) {
  double err = 0.0;
  for (const auto& t : results) {
    err = std::max(err, tensor::max_abs_diff(t, expect));
  }
  return err <= 1e-4 * static_cast<double>(results.size());
}

// ---------------------------------------------------------------------------
// Ring AllReduce
// ---------------------------------------------------------------------------

TEST(Ring, CorrectAcrossWorkerCounts) {
  for (std::size_t n : {1u, 2u, 3u, 4u, 8u}) {
    auto ts = inputs(n, 4096, 0.5, n);
    const DenseTensor expect = tensor::reference_sum(ts);
    ring_allreduce(ts, fast_cfg());
    EXPECT_TRUE(n == 1 || matches_sum(ts, expect)) << n << " workers";
  }
}

TEST(Ring, TensorSmallerThanWorkers) {
  auto ts = inputs(8, 4, 0.0, 3);
  const DenseTensor expect = tensor::reference_sum(ts);
  ring_allreduce(ts, fast_cfg());
  EXPECT_TRUE(matches_sum(ts, expect));
}

TEST(Ring, TimeMatchesAnalyticModel) {
  // T_ring = 2(N-1)(alpha + S/(N*B)); generous 15% tolerance for chunking
  // and header overheads.
  const std::size_t n_elem = 1 << 20;  // 4 MB
  auto ts = inputs(8, n_elem, 0.0, 4);
  BaselineConfig cfg = fast_cfg();
  BaselineStats st = ring_allreduce(ts, cfg);
  const double alpha = sim::to_seconds(cfg.one_way_latency);
  const double expect =
      2.0 * 7.0 * (alpha + n_elem * 4.0 * 8.0 / (8.0 * cfg.bandwidth_bps));
  EXPECT_NEAR(sim::to_seconds(st.completion_time), expect, expect * 0.15);
}

TEST(Ring, ScalesWithWorkers) {
  // Per the model, total time grows with N for fixed S.
  const std::size_t n_elem = 1 << 20;
  auto t2 = inputs(2, n_elem, 0.0, 5);
  auto t8 = inputs(8, n_elem, 0.0, 5);
  const auto s2 = ring_allreduce(t2, fast_cfg());
  const auto s8 = ring_allreduce(t8, fast_cfg());
  // 2(N-1)/N: N=2 -> 1.0, N=8 -> 1.75.
  const double ratio = static_cast<double>(s8.completion_time) /
                       static_cast<double>(s2.completion_time);
  EXPECT_NEAR(ratio, 1.75, 0.1);
}

TEST(Ring, WireBytesMatchTheory) {
  const std::size_t n_elem = 1 << 16;
  auto ts = inputs(4, n_elem, 0.0, 6);
  BaselineStats st = ring_allreduce(ts, fast_cfg());
  // Each worker transmits 2(N-1)/N * S bytes of payload (plus headers).
  const double payload = 4.0 * 2.0 * 3.0 / 4.0 * n_elem * 4.0;
  EXPECT_GE(static_cast<double>(st.total_tx_bytes), payload);
  EXPECT_LE(static_cast<double>(st.total_tx_bytes), payload * 1.1);
}

// ---------------------------------------------------------------------------
// AGsparse
// ---------------------------------------------------------------------------

TEST(AgSparse, ReducesCorrectly) {
  auto dense = inputs(4, 4096, 0.9, 10);
  std::vector<tensor::CooTensor> coo;
  for (const auto& t : dense) coo.push_back(tensor::dense_to_coo(t));
  tensor::CooTensor out;
  BaselineStats st = agsparse_allreduce(coo, out, fast_cfg());
  DenseTensor expect = tensor::reference_sum(dense);
  EXPECT_LE(tensor::max_abs_diff(tensor::coo_to_dense(out), expect), 1e-4);
  EXPECT_GT(st.completion_time, 0);
}

TEST(AgSparse, GlooSlowerThanNccl) {
  auto dense = inputs(8, 1 << 18, 0.9, 11);
  std::vector<tensor::CooTensor> coo;
  for (const auto& t : dense) coo.push_back(tensor::dense_to_coo(t));
  tensor::CooTensor o1, o2;
  const auto nccl = agsparse_allreduce(coo, o1, fast_cfg(), AgStack::kNccl);
  const auto gloo = agsparse_allreduce(coo, o2, fast_cfg(), AgStack::kGloo);
  EXPECT_GT(gloo.completion_time, nccl.completion_time);
}

TEST(AgSparse, TimeGrowsWithWorkers) {
  // AGsparse gathers N copies: poor scalability (§3.4).
  sim::Time prev = 0;
  for (std::size_t n : {2u, 4u, 8u}) {
    auto dense = inputs(n, 1 << 18, 0.9, 12);
    std::vector<tensor::CooTensor> coo;
    for (const auto& t : dense) coo.push_back(tensor::dense_to_coo(t));
    tensor::CooTensor out;
    const auto st = agsparse_allreduce(coo, out, fast_cfg());
    EXPECT_GT(st.completion_time, prev);
    prev = st.completion_time;
  }
}

TEST(RingAllgatherBytes, HandlesUnevenPayloads) {
  const std::vector<std::size_t> payloads{1000, 0, 500000, 20};
  const BaselineStats st = ring_allgather_bytes(payloads, fast_cfg());
  EXPECT_GT(st.completion_time, 0);
  // Every worker forwards every other worker's payload once: (N-1) * sum.
  std::size_t sum = 0;
  for (auto p : payloads) sum += p;
  EXPECT_GE(st.total_tx_bytes, 3 * sum);
}

TEST(RingAllgatherBytes, SingleWorkerInstant) {
  EXPECT_EQ(ring_allgather_bytes({12345}, fast_cfg()).completion_time, 0);
}

/// Wire bytes of one flow of `bytes` payload bytes: max(1, ceil(bytes /
/// chunk)) chunks, each with a 64-byte header.
std::uint64_t flow_wire_bytes(std::size_t bytes) {
  const std::size_t chunk = fast_cfg().chunk_elements * 4;
  const std::size_t chunks =
      std::max<std::size_t>(1, (bytes + chunk - 1) / chunk);
  return chunks * 64 + bytes;
}

TEST(RingAllgatherBytes, ExactWireBytesWhenEveryPayloadIsNonEmpty) {
  // Each payload travels N-1 hops as one chunked flow per hop.
  const std::vector<std::size_t> payloads{1000, 4096, 500000, 20, 8193};
  std::uint64_t expect = 0;
  for (std::size_t b : payloads) {
    expect += (payloads.size() - 1) * flow_wire_bytes(b);
  }
  EXPECT_EQ(ring_allgather_bytes(payloads, fast_cfg()).total_tx_bytes, expect);
}

TEST(AllToAllBytes, ExactWireBytesOnUnevenMatrix) {
  // Every off-diagonal entry is one chunked flow, an empty one included.
  const std::vector<std::vector<std::size_t>> matrix = {
      {0, 1000, 0, 70000},
      {4096, 0, 4097, 1},
      {0, 0, 0, 123456},
      {8, 16384, 9, 0},
  };
  std::uint64_t expect = 0;
  for (std::size_t w = 0; w < matrix.size(); ++w) {
    for (std::size_t p = 0; p < matrix.size(); ++p) {
      if (p != w) expect += flow_wire_bytes(matrix[w][p]);
    }
  }
  const BaselineStats st = all_to_all_bytes(matrix, fast_cfg());
  EXPECT_EQ(st.total_tx_bytes, expect);
  EXPECT_GT(st.completion_time, 0);
}

// ---------------------------------------------------------------------------
// SparCML
// ---------------------------------------------------------------------------

TEST(Sparcml, SsarCorrect) {
  auto dense = inputs(4, 8192, 0.95, 13);
  std::vector<tensor::CooTensor> coo;
  for (const auto& t : dense) coo.push_back(tensor::dense_to_coo(t));
  tensor::CooTensor result;
  BaselineStats st = sparcml_allreduce(coo, result, fast_cfg(),
                                       SparcmlVariant::kSsarSplitAllgather);
  DenseTensor expect = tensor::reference_sum(dense);
  EXPECT_LE(tensor::max_abs_diff(tensor::coo_to_dense(result), expect), 1e-4);
  EXPECT_GT(st.completion_time, 0);
}

TEST(Sparcml, DsarCorrectAndCheaperWhenDense) {
  // Low sparsity: the reduced partitions exceed rho, DSAR's dense switch
  // must beat pure sparse representation.
  auto dense = inputs(8, 1 << 16, 0.2, 14);
  std::vector<tensor::CooTensor> coo;
  for (const auto& t : dense) coo.push_back(tensor::dense_to_coo(t));
  tensor::CooTensor r1, r2;
  const auto ssar = sparcml_allreduce(coo, r1, fast_cfg(),
                                      SparcmlVariant::kSsarSplitAllgather);
  const auto dsar = sparcml_allreduce(coo, r2, fast_cfg(),
                                      SparcmlVariant::kDsarSplitAllgather);
  EXPECT_LT(dsar.completion_time, ssar.completion_time);
}

TEST(Sparcml, RecursiveDoublingCorrect) {
  auto dense = inputs(4, 4096, 0.98, 15);
  std::vector<tensor::CooTensor> coo;
  for (const auto& t : dense) coo.push_back(tensor::dense_to_coo(t));
  tensor::CooTensor result;
  BaselineStats st = sparcml_allreduce(coo, result, fast_cfg(),
                                       SparcmlVariant::kSsarRecursiveDoubling);
  DenseTensor expect = tensor::reference_sum(dense);
  EXPECT_LE(tensor::max_abs_diff(tensor::coo_to_dense(result), expect), 1e-4);
  EXPECT_GT(st.completion_time, 0);
}

TEST(Sparcml, DispatchPicksRdForTinyInputs) {
  EXPECT_EQ(sparcml_choose_variant(1 << 20, 100, 8),
            SparcmlVariant::kSsarRecursiveDoubling);
  EXPECT_EQ(sparcml_choose_variant(1 << 20, 1 << 16, 8),
            SparcmlVariant::kSsarSplitAllgather);
  EXPECT_EQ(sparcml_choose_variant(1 << 20, 1 << 19, 8),
            SparcmlVariant::kDsarSplitAllgather);
  // Recursive doubling needs a power-of-two N: tiny inputs over 6 workers
  // take sparse split-allgather, and the chosen variant runs.
  EXPECT_EQ(sparcml_choose_variant(1 << 20, 100, 6),
            SparcmlVariant::kSsarSplitAllgather);
  auto dense = inputs(6, 4096, 0.99, 41);
  std::vector<tensor::CooTensor> coo;
  std::size_t max_nnz = 0;
  for (const auto& t : dense) {
    coo.push_back(tensor::dense_to_coo(t));
    max_nnz = std::max(max_nnz, coo.back().nnz());
  }
  tensor::CooTensor result;
  EXPECT_NO_THROW(sparcml_allreduce(
      coo, result, fast_cfg(), sparcml_choose_variant(4096, max_nnz, 6)));
}

// ---------------------------------------------------------------------------
// Parameter server
// ---------------------------------------------------------------------------

TEST(PsDense, CorrectDedicatedAndColocated) {
  for (bool colocated : {false, true}) {
    auto ts = inputs(4, 8192, 0.3, 16);
    const DenseTensor expect = tensor::reference_sum(ts);
    ps_dense_allreduce(ts, fast_cfg(), 4, colocated);
    EXPECT_TRUE(matches_sum(ts, expect))
        << (colocated ? "colocated" : "dedicated");
  }
}

TEST(PsDense, SingleServerBottleneck) {
  auto a = inputs(4, 1 << 18, 0.0, 17);
  auto b = a;
  const auto many = ps_dense_allreduce(a, fast_cfg(), 4, false);
  const auto one = ps_dense_allreduce(b, fast_cfg(), 1, false);
  EXPECT_GT(one.completion_time, many.completion_time);
}

TEST(PsSparse, ReducesCorrectly) {
  auto dense = inputs(4, 8192, 0.9, 18);
  std::vector<tensor::CooTensor> coo;
  for (const auto& t : dense) coo.push_back(tensor::dense_to_coo(t));
  tensor::CooTensor result;
  BaselineStats st = ps_sparse_allreduce(coo, result, fast_cfg(), 4, false);
  DenseTensor expect = tensor::reference_sum(dense);
  EXPECT_LE(tensor::max_abs_diff(tensor::coo_to_dense(result), expect), 1e-4);
  EXPECT_GT(st.completion_time, 0);
}

TEST(PsSparse, EmptyWorker) {
  std::vector<tensor::CooTensor> coo(3);
  for (auto& t : coo) t.dim = 1024;
  coo[1].keys = {5, 700};
  coo[1].values = {1.0f, 2.0f};
  tensor::CooTensor result;
  ps_sparse_allreduce(coo, result, fast_cfg(), 2, false);
  EXPECT_EQ(result.nnz(), 2u);
}

TEST(Parallax, PicksCheaperPath) {
  // Very sparse input: the sparse PS path must win over dense ring.
  auto sparse = inputs(4, 1 << 18, 0.99, 19);
  std::vector<tensor::CooTensor> coo;
  for (const auto& t : sparse) coo.push_back(tensor::dense_to_coo(t));
  tensor::CooTensor r;
  const auto ps = ps_sparse_allreduce(coo, r, fast_cfg(), 4, false);
  auto ring_copy = sparse;
  const auto ring = ring_allreduce(ring_copy, fast_cfg());
  const auto oracle = parallax_allreduce(sparse, fast_cfg());
  EXPECT_EQ(oracle.completion_time,
            std::min(ps.completion_time, ring.completion_time));
  // Dense input: ring must win.
  auto dense = inputs(4, 1 << 18, 0.0, 20);
  auto ring_copy2 = dense;
  const auto ring2 = ring_allreduce(ring_copy2, fast_cfg());
  const auto oracle2 = parallax_allreduce(dense, fast_cfg());
  EXPECT_EQ(oracle2.completion_time, ring2.completion_time);
}

// ---------------------------------------------------------------------------
// SwitchML*
// ---------------------------------------------------------------------------

TEST(SwitchMl, DenseStreamingCorrect) {
  auto ts = inputs(4, 16384, 0.9, 21);
  core::FabricConfig fabric;
  fabric.worker_bandwidth_bps = 10e9;
  fabric.aggregator_bandwidth_bps = 10e9;
  fabric.one_way_latency = sim::microseconds(5);
  // The registry adapter forces dense_mode and gdr = false itself.
  core::RunStats st = core::run_collective(
      "switchml", ts, core::Config::for_transport(core::Transport::kRdma),
      core::ClusterSpec::dedicated(4, fabric), /*verify=*/true);
  EXPECT_TRUE(st.verified);
  // Dense mode: full tensor transmitted regardless of sparsity.
  EXPECT_EQ(st.worker_data_bytes[0], 16384u * 4u);
}


// ---------------------------------------------------------------------------
// Registry dispatch: worker tensors
// ---------------------------------------------------------------------------

TEST(RunCollective, RejectsNoWorkersAndUnequalSizesAcrossTheRegistry) {
  register_zoo();
  for (const std::string& name : core::CollectiveRegistry::global().names()) {
    std::vector<DenseTensor> ragged = inputs(4, 4096, 0.5, 40);
    ragged[1] = DenseTensor(1024);
    try {
      core::run_collective(name, ragged, {}, core::ClusterSpec{});
      ADD_FAILURE() << name << " accepted unequal tensor sizes";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("differ in size"),
                std::string::npos)
          << name << ": " << e.what();
    }
    std::vector<DenseTensor> none;
    EXPECT_THROW(core::run_collective(name, none, {}, core::ClusterSpec{}),
                 std::invalid_argument)
        << name;
  }
}

TEST(RunCollective, AllZeroInputsComplete) {
  // Every worker empty: sparse payloads, partitions and allgather steps are
  // all empty, and every algorithm still completes with a zero result.
  register_zoo();
  for (const std::string& name : core::CollectiveRegistry::global().names()) {
    std::vector<DenseTensor> ts(4, DenseTensor(4096));
    const core::RunStats st =
        core::run_collective(name, ts, {}, core::ClusterSpec{});
    EXPECT_TRUE(st.completed()) << name;
    EXPECT_TRUE(st.verified) << name;
    for (const auto& t : ts) EXPECT_EQ(t.nnz(), 0u) << name;
  }
}

// ---------------------------------------------------------------------------
// Pins: every zoo algorithm through the registry
// ---------------------------------------------------------------------------
//
// Recorded from the original per-message ring, map-based sparse PS,
// pairwise COO merges and per-worker dense sketches. Any rewrite of the
// baseline kernels must reproduce every simulated output bit for bit: the
// result tensors, the completion time and the per-worker wire bytes. Never
// re-record these values.

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t fnv_tensor(std::uint64_t h, const DenseTensor& t) {
  return fnv(h, t.values().data(), t.size() * sizeof(float));
}

std::uint64_t fnv_coo(std::uint64_t h, const tensor::CooTensor& t) {
  h = fnv(h, t.keys.data(), t.keys.size() * sizeof(std::int32_t));
  return fnv(h, t.values.data(), t.values.size() * sizeof(float));
}

template <typename T>
std::uint64_t fnv_value(std::uint64_t h, const T& v) {
  return fnv(h, &v, sizeof(v));
}

struct PinCase {
  std::size_t workers;
  std::size_t dim;
  double sparsity;
  bool zero_worker;  // the last worker contributes nothing
};

/// The pinned shapes: N in {1, 3, 5, 8}; a dimension that is not a
/// multiple of the 256-element block; a tensor smaller than N; one large
/// enough that ring segments and sketch payloads span several chunks (and
/// that 99% block sparsity still leaves non-zero blocks); each with and
/// without an all-zero worker.
std::vector<PinCase> pin_cases() {
  std::vector<PinCase> cases;
  for (std::size_t n : {1u, 3u, 5u, 8u}) {
    for (bool z : {false, true}) {
      cases.push_back({n, 4099, 0.5, z});
      cases.push_back({n, 4099, 0.9, z});
      cases.push_back({n, 3, 0.5, z});
      cases.push_back({n, 40009, 0.99, z});
    }
    cases.push_back({n, 40009, 0.5, false});
  }
  return cases;
}

std::vector<DenseTensor> pin_inputs(const PinCase& c) {
  sim::Rng rng(1000003 * c.workers + 7 * c.dim +
               static_cast<std::uint64_t>(c.sparsity * 100) +
               (c.zero_worker ? 5 : 0));
  auto ts = tensor::make_multi_worker(c.workers, c.dim, 256, c.sparsity,
                                      tensor::OverlapMode::kRandom, rng);
  if (c.zero_worker) ts.back() = DenseTensor(c.dim);
  return ts;
}

struct AlgoPin {
  const char* algo;
  std::uint64_t result;  // FNV-1a of every case's result bits
  std::uint64_t time;    // FNV-1a of every case's completion_time
  std::uint64_t bytes;   // FNV-1a of every case's worker_data_bytes
};

constexpr AlgoPin kAlgoPins[] = {
    {"agsparse", 0x2c836c7565909bedULL, 0xb6595f1791f07911ULL,
     0x1dcbaa5dbe17b105ULL},
    {"agsparse_gloo", 0x2c836c7565909bedULL, 0x9e1911a79054482dULL,
     0x1dcbaa5dbe17b105ULL},
    {"oktopk", 0x2c836c7565909bedULL, 0x5be04a6c97ec5641ULL,
     0x7d27ebe86d3d0771ULL},
    {"parallax", 0x2c836c7565909bedULL, 0xee99eb2da0f73421ULL,
     0x9b93167c89b78835ULL},
    {"ps", 0x2c836c7565909bedULL, 0x3b3b120acc674730ULL,
     0xeae859dc2aa31a8eULL},
    {"ps_sparse", 0x2c836c7565909bedULL, 0x5bfaa4b43c64b5d8ULL,
     0xc5648aad181e5cb6ULL},
    {"ring", 0x79bcdf1171a3ce61ULL, 0xca17f42f8631bf45ULL,
     0xea9b3d34256b4abdULL},
    {"sketch", 0xe7f76740b91262b5ULL, 0xd93514f76ebc8379ULL,
     0xfdb5f781bd9d1005ULL},
    {"sparcml", 0x2c836c7565909bedULL, 0xa746f075b2457515ULL,
     0xb591d9e52a3c8e31ULL},
    {"sparcml_dsar", 0x2c836c7565909bedULL, 0xd575499d8bc9471dULL,
     0xe064bb19ff7882a9ULL},
    {"sparcml_ssar", 0x2c836c7565909bedULL, 0x448deeaf61325d61ULL,
     0xf88ccdb8efdc73e5ULL},
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(BaselinePins, EveryZooAlgorithmBitIdentical) {
  register_zoo();
  const std::vector<PinCase> cases = pin_cases();
  const std::vector<core::ClusterSpec> clusters = {
      core::ClusterSpec::dedicated(3), core::ClusterSpec::colocated()};
  for (const AlgoPin& pin : kAlgoPins) {
    const std::string algo = pin.algo;
    std::uint64_t result = kFnvBasis, time = kFnvBasis, bytes = kFnvBasis;
    for (const core::ClusterSpec& cluster : clusters) {
      for (const PinCase& c : cases) {
        auto ts = pin_inputs(c);
        const core::RunStats st = core::run_collective(algo, ts, {}, cluster);
        EXPECT_TRUE(st.verified) << algo << " N=" << c.workers
                                 << " dim=" << c.dim;
        for (const auto& t : ts) result = fnv_tensor(result, t);
        time = fnv_value(time, st.completion_time);
        bytes = fnv(bytes, st.worker_data_bytes.data(),
                    st.worker_data_bytes.size() * sizeof(std::uint64_t));
      }
    }
    EXPECT_EQ(result, pin.result) << algo << " result";
    EXPECT_EQ(time, pin.time) << algo << " completion_time";
    EXPECT_EQ(bytes, pin.bytes) << algo << " worker_data_bytes";
    if (result != pin.result || time != pin.time || bytes != pin.bytes) {
      std::printf("    {\"%s\", %s, %s, %s},\n", pin.algo, hex(result).c_str(),
                  hex(time).c_str(), hex(bytes).c_str());
    }
  }
}

TEST(BaselinePins, OkTopkThresholdAndPartitions) {
  // k > 0 sparsifies: the threshold and the balanced partition loads are
  // outputs of their own.
  for (std::size_t n : {5u, 8u}) {
    const auto dense = pin_inputs({n, 4099, 0.5, true});
    std::vector<tensor::CooTensor> coo;
    for (const auto& t : dense) coo.push_back(tensor::dense_to_coo(t));
    OkTopkOptions opts;
    opts.k = 1500;
    const OkTopkResult r = oktopk_allreduce(coo, fast_cfg(), opts);
    std::uint64_t h = fnv_coo(kFnvBasis, r.result);
    h = fnv_value(h, r.threshold);
    h = fnv(h, r.partition_pairs.data(),
            r.partition_pairs.size() * sizeof(std::size_t));
    h = fnv_value(h, r.stats.completion_time);
    h = fnv_value(h, r.stats.total_tx_bytes);
    const std::uint64_t expect = n == 5 ? 0x5c524150cc4e2c19ULL
                                           : 0x385fc62e5c8aa137ULL;
    EXPECT_EQ(h, expect) << "N=" << n << " actual " << hex(h);
  }
}

TEST(BaselinePins, SketchWidthAndPayload) {
  struct Expect {
    std::size_t n, dim, width, payload;
    std::uint64_t digest;
  };
  const Expect expects[] = {
      {3, 4099, 15372, 46133, 0x7c6bfe51e1ebc393ULL},
      {8, 40009, 157988, 474121, 0x5ee6e26b8eed2b33ULL},
  };
  for (const Expect& e : expects) {
    const auto dense = pin_inputs({e.n, e.dim, 0.5, true});
    SketchOptions opts;
    opts.seed = 7;
    const SketchResult r = sketch_allreduce(dense, fast_cfg(), opts);
    EXPECT_EQ(r.sketch_width, e.width) << "N=" << e.n;
    EXPECT_EQ(r.payload_elements, e.payload) << "N=" << e.n;
    std::uint64_t h = fnv_tensor(kFnvBasis, r.result);
    h = fnv_value(h, r.stats.completion_time);
    h = fnv_value(h, r.stats.total_tx_bytes);
    EXPECT_EQ(h, e.digest) << "N=" << e.n << " width " << r.sketch_width
                           << " payload " << r.payload_elements << " actual "
                           << hex(h);
  }
}

// ---------------------------------------------------------------------------
// Count sketch against a naive reference
// ---------------------------------------------------------------------------

/// Naive count-sketch AllReduce, written from the protocol rather than the
/// kernel. Each worker builds a dense rows x width sketch by adding
/// sign * v for its non-zeros in index order. The packed buffer
/// [sketch | block occupancy] is cut into ring segments
/// [payload*g/N, payload*(g+1)/N); segment g is folded left from its owner:
/// buf_g + buf_{g+1} + ... + buf_{g+N-1} (mod N). Every index of an
/// occupied block is recovered as the stable median of its row estimates.
DenseTensor naive_sketch(const std::vector<DenseTensor>& ts,
                         const SketchOptions& opts, std::size_t* width_out) {
  const std::size_t n = ts.size();
  const std::size_t dim = ts.front().size();
  const std::size_t rows = opts.rows;
  const std::size_t block = opts.block_elements;
  const std::size_t n_blocks = (dim + block - 1) / block;
  std::vector<char> occupied(dim, 0);
  std::size_t union_nnz = 0;
  for (const auto& t : ts) {
    for (std::size_t i = 0; i < dim; ++i) {
      if (t[i] != 0.0f && !occupied[i]) {
        occupied[i] = 1;
        ++union_nnz;
      }
    }
  }
  const std::size_t width = std::max<std::size_t>(
      16, static_cast<std::size_t>(std::llround(
              opts.width_factor * static_cast<double>(union_nnz))));
  *width_out = width;
  const std::size_t payload = rows * width + n_blocks;

  auto probe = [&](std::size_t r, std::size_t i, float* sign) {
    std::uint64_t h = opts.seed ^ (r * 0x100000001b3ULL) ^
                      (static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL);
    h += 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    h ^= h >> 31;
    *sign = (h >> 32 & 1) != 0 ? 1.0f : -1.0f;
    return r * width + h % width;
  };

  std::vector<std::vector<float>> sketches(
      n, std::vector<float>(rows * width, 0.0f));
  for (std::size_t w = 0; w < n; ++w) {
    for (std::size_t i = 0; i < dim; ++i) {
      if (ts[w][i] == 0.0f) continue;
      for (std::size_t r = 0; r < rows; ++r) {
        float sign;
        const std::size_t c = probe(r, i, &sign);
        sketches[w][c] += sign * ts[w][i];
      }
    }
  }
  std::vector<float> merged(rows * width);
  for (std::size_t g = 0; g < n; ++g) {
    const std::size_t end = std::min(payload * (g + 1) / n, rows * width);
    for (std::size_t c = payload * g / n; c < end; ++c) {
      float acc = sketches[g][c];
      for (std::size_t j = 1; j < n; ++j) acc += sketches[(g + j) % n][c];
      merged[c] = acc;
    }
  }

  DenseTensor out(dim);
  std::vector<float> est(rows);
  for (std::size_t i = 0; i < dim; ++i) {
    const std::size_t b = i / block;
    bool block_occupied = false;
    for (std::size_t k = b * block; k < std::min(dim, (b + 1) * block); ++k) {
      block_occupied = block_occupied || occupied[k];
    }
    if (!block_occupied) continue;
    for (std::size_t r = 0; r < rows; ++r) {
      float sign;
      const std::size_t c = probe(r, i, &sign);
      est[r] = sign * merged[c];
    }
    std::stable_sort(est.begin(), est.end());
    out[i] = est[rows / 2];
  }
  return out;
}

/// Inputs that exercise every rule the sketch's fold must keep: about half
/// of each worker's entries non-zero with magnitudes over 2^-12..2^12 (so
/// addition order shows in the low bits), one entry in eight -0.0f, and
/// (when N allows) an all-zero worker plus two workers holding x and -x
/// at every third index.
std::vector<DenseTensor> sketch_inputs(std::size_t n, std::size_t dim,
                                       std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<DenseTensor> ts(n, DenseTensor(dim));
  for (auto& t : ts) {
    for (std::size_t i = 0; i < dim; ++i) {
      const std::uint64_t kind = rng.next_below(8);
      if (kind == 0) {
        t[i] = -0.0f;
      } else if (kind < 4) {
        t[i] = std::ldexp(rng.next_float(-1.0f, 1.0f),
                          static_cast<int>(rng.next_below(25)) - 12);
      }
    }
  }
  if (n >= 2) {
    const std::size_t zero = n >= 3 ? seed % n : n;  // none when N = 2
    const std::size_t a = (seed + 1) % n;
    const std::size_t b = (seed + 2) % n;
    for (std::size_t i = 0; i < dim; i += 3) {
      const float x = std::ldexp(rng.next_float(0.5f, 1.0f),
                                 static_cast<int>(rng.next_below(9)) - 4);
      ts[a][i] = x;
      ts[b][i] = -x;
    }
    if (zero < n) ts[zero] = DenseTensor(dim);
  }
  return ts;
}

void expect_sketch_matches_reference(const std::vector<DenseTensor>& ts,
                                     const SketchOptions& opts,
                                     const std::string& label) {
  std::size_t width = 0;
  const DenseTensor expect = naive_sketch(ts, opts, &width);
  const SketchResult r = sketch_allreduce(ts, fast_cfg(), opts);
  ASSERT_EQ(r.sketch_width, width) << label;
  const std::size_t dim = ts.front().size();
  ASSERT_EQ(r.payload_elements,
            opts.rows * width + (dim + opts.block_elements - 1) /
                                    opts.block_elements)
      << label;
  ASSERT_EQ(r.result.size(), dim) << label;
  for (std::size_t i = 0; i < dim; ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(r.result[i]),
              std::bit_cast<std::uint32_t>(expect[i]))
        << label << " index " << i << ": " << r.result[i] << " vs "
        << expect[i];
  }
}

TEST(Sketch, MatchesNaiveReference) {
  std::uint64_t seed = 0;
  for (std::size_t rows : {1u, 2u, 3u, 5u}) {
    for (std::size_t n : {1u, 2u, 3u, 5u, 8u, 13u}) {
      for (std::size_t dim : {1u, 3u, 255u, 4099u}) {
        for (std::size_t block : {std::size_t{1}, std::size_t{256}, dim + 1}) {
          ++seed;
          SketchOptions opts;
          opts.rows = rows;
          opts.block_elements = block;
          opts.seed = seed;
          // A crowded sketch as well as the default width: more counters
          // hold several entries, and more sums cancel exactly.
          for (double factor : {4.0, 0.25}) {
            opts.width_factor = factor;
            expect_sketch_matches_reference(
                sketch_inputs(n, dim, seed), opts,
                "rows=" + std::to_string(rows) + " N=" + std::to_string(n) +
                    " dim=" + std::to_string(dim) +
                    " block=" + std::to_string(block) +
                    " factor=" + std::to_string(factor));
          }
        }
      }
    }
  }
  // Sketches wide enough that each ring segment spans many cache-sized
  // runs of counters.
  for (std::size_t n : {2u, 13u}) {
    for (std::size_t rows : {1u, 3u}) {
      SketchOptions opts;
      opts.rows = rows;
      opts.seed = ++seed;
      expect_sketch_matches_reference(
          sketch_inputs(n, 100003, seed), opts,
          "rows=" + std::to_string(rows) + " N=" + std::to_string(n) +
              " dim=100003");
    }
  }
}

/// Row r's counter (bucket) of index i, as naive_sketch's probe hashes it.
std::size_t sketch_bucket(const SketchOptions& opts, std::size_t width,
                          std::size_t r, std::size_t i) {
  std::uint64_t h = opts.seed ^ (r * 0x100000001b3ULL) ^
                    (static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL);
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h % width;
}

TEST(Sketch, FoldKernelMatchesReferenceAtEveryWorkerCount) {
  // The fold is compiled per worker count up to 16, with a loop over a
  // run-time count above that, so N runs over both sides of the boundary.
  // A counter hit by one candidate is folded in registers and a crowded
  // one through per-worker sums: a table wide enough that every counter
  // is hit once (40 candidates), the default width and 16 counters a row,
  // where every counter is crowded (300 candidates).
  struct Shape {
    std::size_t dim;
    double width_factor;
  };
  constexpr Shape kShapes[] = {{40, 4096.0}, {300, 4.0}, {300, 1e-9}};
  std::uint64_t seed = 9000;
  for (std::size_t n = 1; n <= 17; ++n) {
    for (const Shape& shape : kShapes) {
      std::vector<std::vector<DenseTensor>> cases = {
          sketch_inputs(n, shape.dim, ++seed)};
      // sketch_inputs zeroes a worker only when N >= 3.
      if (n <= 2) {
        cases.push_back(cases.front());
        cases.back().back() = DenseTensor(shape.dim);
        if (n == 1) cases.back().back()[shape.dim / 2] = -0.0f;
      }
      for (const auto& ts : cases) {
        for (std::size_t rows : {1u, 3u}) {
          SketchOptions opts;
          opts.rows = rows;
          opts.seed = seed;
          opts.width_factor = shape.width_factor;
          const std::string label =
              "N=" + std::to_string(n) + " rows=" + std::to_string(rows) +
              " dim=" + std::to_string(shape.dim) +
              " factor=" + std::to_string(shape.width_factor) +
              " zeroed=" + std::to_string(&ts != &cases.front());
          expect_sketch_matches_reference(ts, opts, label);
          const std::size_t width =
              sketch_allreduce(ts, fast_cfg(), opts).sketch_width;
          if (shape.width_factor < 1.0) {
            EXPECT_EQ(width, 16u) << label;
            continue;
          }
          // The wide table really is wide: no two candidates share a
          // counter in any row (an all-zero input has no candidates).
          if (shape.width_factor < 4096.0 || width == 16) continue;
          for (std::size_t r = 0; r < rows; ++r) {
            std::vector<std::size_t> buckets;
            for (std::size_t i = 0; i < shape.dim; ++i) {
              buckets.push_back(sketch_bucket(opts, width, r, i));
            }
            std::sort(buckets.begin(), buckets.end());
            EXPECT_EQ(std::adjacent_find(buckets.begin(), buckets.end()),
                      buckets.end())
                << label << " row " << r;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Ok-Topk's partition bounds against the histogram walk
// ---------------------------------------------------------------------------

/// Ok-Topk's bounds as a dim-sized histogram of the survivors' keys walked
/// in key order: bound p is the first key whose run starts at or after
/// total*p/N, or dim when no key's run does. Counts into `inside_run` the
/// targets total*p/N that fall strictly inside some key's run.
std::vector<std::int32_t> histogram_walk_bounds(
    const std::vector<tensor::CooTensor>& kept, std::size_t dim,
    std::size_t& inside_run) {
  const std::size_t n = kept.size();
  std::vector<std::uint32_t> key_count(dim, 0);
  std::size_t total = 0;
  for (const auto& kt : kept) {
    for (std::int32_t k : kt.keys) ++key_count[static_cast<std::size_t>(k)];
    total += kt.nnz();
  }
  std::vector<std::int32_t> bounds(n + 1, static_cast<std::int32_t>(dim));
  bounds[0] = 0;
  std::size_t p = 1;
  std::size_t run_start = 0;
  for (std::size_t k = 0; k < dim && p < n; ++k) {
    if (key_count[k] == 0) continue;
    while (p < n && run_start >= total * p / n) {
      bounds[p++] = static_cast<std::int32_t>(k);
    }
    run_start += key_count[k];
    for (std::size_t q = p; q < n && total * q / n < run_start; ++q) {
      ++inside_run;
    }
  }
  return bounds;
}

/// Worker inputs over `dim` keys: each worker is empty with probability
/// `empty`, else holds each of the `hot` keys {0, dim/2, dim/2+1, dim-1}
/// (which every such worker shares, so their runs are long) with
/// probability 0.9 and any other key with probability `density`.
std::vector<tensor::CooTensor> oktopk_inputs(std::size_t n, std::size_t dim,
                                             double density, double empty,
                                             std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<tensor::CooTensor> ts(n);
  for (auto& t : ts) {
    t.dim = dim;
    if (rng.next_double() < empty) continue;
    for (std::size_t k = 0; k < dim; ++k) {
      const bool hot = k == 0 || k == dim / 2 || k == dim / 2 + 1 ||
                       k + 1 == dim;
      if (rng.next_double() < (hot ? 0.9 : density)) {
        t.keys.push_back(static_cast<std::int32_t>(k));
        t.values.push_back(rng.next_float(0.5f, 1.0f) *
                           (rng.next_below(2) == 0 ? 1.0f : -1.0f));
      }
    }
  }
  return ts;
}

TEST(OkTopk, BoundsMatchHistogramWalk) {
  // Bounds are always present keys (or dim), so two different sets of
  // bounds route different survivor counts to some owner: equal partition
  // loads mean equal bounds. N is a power of two, where the reduced
  // partitions are allgathered by recursive doubling: the ring allgather
  // used otherwise never finishes when some but not all partitions are
  // empty, as tiny inputs make them.
  std::uint64_t seed = 0;
  std::size_t cases = 0;
  std::size_t fewer_than_n = 0;  // cases with total < N survivors
  std::size_t inside_run = 0;
  for (std::size_t n : {1u, 2u, 4u, 8u, 16u}) {
    for (std::size_t dim : {1u, 2u, 63u, 100u, 1000u}) {
      // Dense, sparse (often total < N), duplicate-heavy (hot keys only),
      // and with some workers empty.
      for (double density : {0.5, 0.01, 0.0}) {
        for (double empty : {0.0, 0.4}) {
          for (std::size_t k : {std::size_t{0}, std::size_t{7}}) {
            const auto inputs = oktopk_inputs(n, dim, density, empty, ++seed);
            OkTopkOptions opts;
            opts.k = k;
            const OkTopkResult r = oktopk_allreduce(inputs, fast_cfg(), opts);
            // The survivors as Ok-Topk filters them.
            std::vector<tensor::CooTensor> kept = inputs;
            for (auto& t : kept) {
              tensor::CooTensor f;
              f.dim = t.dim;
              for (std::size_t i = 0; i < t.nnz(); ++i) {
                if (std::abs(static_cast<double>(t.values[i])) >=
                    r.threshold) {
                  f.keys.push_back(t.keys[i]);
                  f.values.push_back(t.values[i]);
                }
              }
              t = f;
            }
            const std::vector<std::int32_t> bounds =
                histogram_walk_bounds(kept, dim, inside_run);
            std::size_t total = 0;
            for (const auto& t : kept) total += t.nnz();
            fewer_than_n += total < n;
            std::vector<std::size_t> expect(n, 0);
            for (std::size_t p = 0; p < n; ++p) {
              for (const auto& t : kept) {
                const auto [begin, end] =
                    tensor::coo_key_range(t, bounds[p], bounds[p + 1]);
                expect[p] += end - begin;
              }
            }
            EXPECT_EQ(r.partition_pairs, expect)
                << "N=" << n << " dim=" << dim << " density=" << density
                << " empty=" << empty << " k=" << k;
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 300u);
  EXPECT_GT(fewer_than_n, 0u);
  EXPECT_GT(inside_run, 0u);
}

}  // namespace
}  // namespace omr::baselines
