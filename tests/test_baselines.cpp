#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "baselines/agsparse.h"
#include "baselines/parameter_server.h"
#include "baselines/ring.h"
#include "baselines/sparcml.h"
#include "baselines/switchml.h"
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

TEST(RecursiveDoubling, Correct) {
  for (std::size_t n : {2u, 4u, 8u}) {
    auto ts = inputs(n, 2048, 0.3, 7);
    const DenseTensor expect = tensor::reference_sum(ts);
    recursive_doubling_allreduce(ts, fast_cfg());
    EXPECT_TRUE(matches_sum(ts, expect)) << n << " workers";
  }
}

TEST(RecursiveDoubling, RejectsNonPowerOfTwo) {
  auto ts = inputs(3, 256, 0.0, 8);
  EXPECT_THROW(recursive_doubling_allreduce(ts, fast_cfg()),
               std::invalid_argument);
}

TEST(RecursiveDoubling, LowerLatencyThanRingForTinyInput) {
  // log2(N) alpha terms vs 2(N-1): for tiny tensors RD wins.
  auto a = inputs(8, 64, 0.0, 9);
  auto b = a;
  const auto ring = ring_allreduce(a, fast_cfg());
  const auto rd = recursive_doubling_allreduce(b, fast_cfg());
  EXPECT_LT(rd.completion_time, ring.completion_time);
}

// ---------------------------------------------------------------------------
// AGsparse
// ---------------------------------------------------------------------------

TEST(AgSparse, ReducesCorrectly) {
  auto dense = inputs(4, 4096, 0.9, 10);
  std::vector<tensor::CooTensor> coo;
  for (const auto& t : dense) coo.push_back(tensor::dense_to_coo(t));
  std::vector<tensor::CooTensor> outs;
  BaselineStats st = agsparse_allreduce(coo, outs, fast_cfg());
  DenseTensor expect = tensor::reference_sum(dense);
  EXPECT_LE(tensor::max_abs_diff(tensor::coo_to_dense(outs[0]), expect), 1e-4);
  EXPECT_GT(st.completion_time, 0);
}

TEST(AgSparse, GlooSlowerThanNccl) {
  auto dense = inputs(8, 1 << 18, 0.9, 11);
  std::vector<tensor::CooTensor> coo;
  for (const auto& t : dense) coo.push_back(tensor::dense_to_coo(t));
  std::vector<tensor::CooTensor> o1, o2;
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
    std::vector<tensor::CooTensor> outs;
    const auto st = agsparse_allreduce(coo, outs, fast_cfg());
    EXPECT_GT(st.completion_time, prev);
    prev = st.completion_time;
  }
}

TEST(RingAllgatherBytes, HandlesUnevenPayloads) {
  const std::vector<std::size_t> payloads{1000, 0, 500000, 20};
  std::uint64_t tx = 0;
  const sim::Time t = ring_allgather_bytes(payloads, fast_cfg(), &tx);
  EXPECT_GT(t, 0);
  // Every worker forwards every other worker's payload once: (N-1) * sum.
  std::size_t sum = 0;
  for (auto p : payloads) sum += p;
  EXPECT_GE(tx, 3 * sum);
}

TEST(RingAllgatherBytes, SingleWorkerInstant) {
  EXPECT_EQ(ring_allgather_bytes({12345}, fast_cfg()), 0);
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
  core::RunStats st = switchml_allreduce(ts, fabric, 4);
  EXPECT_TRUE(st.verified);
  // Dense mode: full tensor transmitted regardless of sparsity.
  EXPECT_EQ(st.worker_data_bytes[0], 16384u * 4u);
}

}  // namespace
}  // namespace omr::baselines
