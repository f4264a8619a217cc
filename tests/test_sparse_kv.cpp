// Focused tests for the Algorithm-3 key-value extension, including the
// range-sharded (stream-parallel) instantiation.
#include <gtest/gtest.h>

#include "core/sparse_kv.h"
#include "sim/rng.h"
#include "tensor/coo.h"
#include "tensor/generators.h"

namespace omr::core {
namespace {

FabricConfig fabric() {
  FabricConfig f;
  f.one_way_latency = sim::microseconds(5);
  return f;
}

std::vector<tensor::CooTensor> random_coo(std::size_t workers,
                                          std::size_t dim, double sparsity,
                                          std::uint64_t seed,
                                          std::vector<tensor::DenseTensor>*
                                              dense_out = nullptr) {
  sim::Rng rng(seed);
  auto dense = tensor::make_multi_worker(workers, dim, 8, sparsity,
                                         tensor::OverlapMode::kRandom, rng);
  std::vector<tensor::CooTensor> coo;
  for (const auto& t : dense) coo.push_back(tensor::dense_to_coo(t));
  if (dense_out != nullptr) *dense_out = std::move(dense);
  return coo;
}

TEST(SparseKvSharded, MatchesReferenceAcrossShardCounts) {
  std::vector<tensor::DenseTensor> dense;
  auto coo = random_coo(4, 1 << 14, 0.95, 1, &dense);
  const tensor::DenseTensor expect = tensor::reference_sum(dense);
  for (std::size_t aggs : {1u, 2u, 7u, 32u}) {
    SparseRunStats st = run_sparse_allreduce(coo, fabric(), 64, aggs);
    EXPECT_LE(tensor::max_abs_diff(tensor::coo_to_dense(st.result), expect),
              1e-4)
        << aggs << " shards";
    // Result keys must be globally sorted and unique.
    for (std::size_t i = 1; i < st.result.nnz(); ++i) {
      EXPECT_LT(st.result.keys[i - 1], st.result.keys[i]);
    }
  }
}

TEST(SparseKvSharded, ShardingReducesCompletionTime) {
  auto coo = random_coo(4, 1 << 16, 0.9, 2);
  const SparseRunStats one = run_sparse_allreduce(coo, fabric(), 256, 1);
  const SparseRunStats many =
      run_sparse_allreduce(coo, fabric(), 256, 32);
  EXPECT_LT(many.completion_time, one.completion_time);
}

TEST(SparseKvSharded, EmptyRangesHandled) {
  // All keys live in the first quarter of the space: 3 of 4 shards idle.
  std::vector<tensor::CooTensor> coo(3);
  for (auto& t : coo) t.dim = 4096;
  coo[0].keys = {1, 2, 3};
  coo[0].values = {1.f, 1.f, 1.f};
  coo[2].keys = {2, 900};
  coo[2].values = {2.f, 5.f};
  SparseRunStats st = run_sparse_allreduce(coo, fabric(), 16, 4);
  ASSERT_EQ(st.result.nnz(), 4u);
  EXPECT_FLOAT_EQ(st.result.values[1], 3.0f);  // key 2 merged
  EXPECT_FLOAT_EQ(st.result.values[3], 5.0f);  // key 900
}

TEST(SparseKv, TinyBlocks) {
  std::vector<tensor::DenseTensor> dense;
  auto coo = random_coo(3, 2048, 0.9, 3, &dense);
  const tensor::DenseTensor expect = tensor::reference_sum(dense);
  // One pair per packet: maximal round count, still correct.
  SparseRunStats st = run_sparse_allreduce(coo, fabric(), 1, 1);
  EXPECT_LE(tensor::max_abs_diff(tensor::coo_to_dense(st.result), expect),
            1e-4);
  EXPECT_GE(st.rounds, expect.nnz() / 3);
}

TEST(SparseKv, SingleWorkerEchoesInput) {
  std::vector<tensor::CooTensor> coo(1);
  coo[0].dim = 100;
  coo[0].keys = {5, 50, 99};
  coo[0].values = {1.f, 2.f, 3.f};
  SparseRunStats st = run_sparse_allreduce(coo, fabric(), 2);
  EXPECT_EQ(st.result.keys, coo[0].keys);
  EXPECT_EQ(st.result.values, coo[0].values);
}

TEST(SparseKv, PairBytesMatchInputVolume) {
  std::vector<tensor::DenseTensor> dense;
  auto coo = random_coo(4, 1 << 12, 0.9, 4, &dense);
  std::size_t pairs = 0;
  for (const auto& t : coo) pairs += t.nnz();
  SparseRunStats st = run_sparse_allreduce(coo, fabric(), 64);
  EXPECT_EQ(st.pair_bytes_sent, pairs * 8);
}

TEST(SparseKv, RejectsZeroAggregators) {
  std::vector<tensor::CooTensor> coo(1);
  coo[0].dim = 10;
  EXPECT_THROW(run_sparse_allreduce(coo, fabric(), 16, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace omr::core
