// Allocation law for the OmniReduce protocol: a Session's steady-state
// collective allocates nothing per stream, round, block or packet. Workers
// keep their packets, block buffers and codec sidecars, and aggregators
// their slot tables, across collectives — as the real system preallocates
// its slots and packet buffers.
//
// This binary replaces the global operator new to count calls, so it is an
// executable of its own.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/session.h"
#include "sim/rng.h"
#include "tensor/generators.h"

namespace {
bool g_counting = false;
std::size_t g_news = 0;

void* counted_alloc(std::size_t n, std::size_t align) {
  if (g_counting) ++g_news;
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n);
  } else if (posix_memalign(&p, align, n) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

// The nothrow and array forms of the standard library forward to these.
void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc(n, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace omr::core {
namespace {

constexpr std::size_t kWorkers = 8;

/// operator new calls made by the second of two identical allreduce calls
/// on one Session (the first warms every pool).
std::size_t second_collective_allocations(const Config& cfg, std::size_t n) {
  Session session(cfg, kWorkers, ClusterSpec::dedicated(2));
  sim::Rng rng(5);
  const auto inputs = tensor::make_multi_worker(
      kWorkers, n, cfg.block_size, 0.9, tensor::OverlapMode::kRandom, rng);
  auto first = inputs;
  session.allreduce(first, /*verify=*/false);
  auto second = inputs;
  g_news = 0;
  g_counting = true;
  session.allreduce(second, /*verify=*/false);
  g_counting = false;
  return g_news;
}

struct LawCase {
  const char* name;
  Config cfg;
};

std::vector<LawCase> law_cases() {
  Config rdma = Config::for_transport(Transport::kRdma);
  Config dpdk = Config::for_transport(Transport::kDpdk);  // lossless fabric
  Config q8 = rdma;
  q8.codec.codec = compress::WireCodec::kQ8;
  return {{"rdma", rdma}, {"dpdk_lossless", dpdk}, {"rdma_q8", q8}};
}

// 64K -> 1M elements multiplies the work of a collective by 16 along one
// axis per layout: with the transports' 256 streams, blocks per stream
// (and, at Block Fusion width 1, rounds); with 16 streams, rounds; with one
// stream per block, streams. The allocation count must not move.
TEST(AllocationLaw, SecondCollectiveAllocatesIndependentlyOfSize) {
  for (const LawCase& c : law_cases()) {
    for (std::size_t streams : {c.cfg.num_streams, std::size_t{16},
                                std::size_t{1} << 12}) {
      Config cfg = c.cfg;
      cfg.num_streams = streams;
      const std::size_t small = second_collective_allocations(cfg, 1 << 16);
      const std::size_t large = second_collective_allocations(cfg, 1 << 20);
      EXPECT_EQ(small, large) << c.name << " streams=" << streams;
      std::printf("%s streams=%zu: %zu allocations at 64K, %zu at 1M\n",
                  c.name, streams, small, large);
    }
  }
}

}  // namespace
}  // namespace omr::core
