#include "hostspeed.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <functional>

namespace perfbench {

namespace {

constexpr std::size_t kHeapCap = 4096;         // 32 KB of event times
constexpr std::size_t kTableSlots = 1u << 15;  // 512 KB of key/count pairs
constexpr int kEventSteps = 120000;
constexpr std::size_t kMapBytes = std::size_t{4} << 20;
constexpr int kStreamPasses = 16;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::uint64_t lcg(std::uint64_t& x) {
  x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return x;
}

}  // namespace

HostSpeed::HostSpeed() : keys_(kTableSlots), counts_(kTableSlots) {
  heap_.reserve(kHeapCap + 1);
  sample();  // warm-up: code, tables and page tables
}

double HostSpeed::sample() {
  const Clock::time_point t0 = Clock::now();

  // Event-queue part: a bounded min-heap of random times and a
  // linear-probing table of counters keyed by the time's top bits.
  heap_.clear();
  std::fill(keys_.begin(), keys_.end(), 0);
  std::uint64_t x = 12345;
  for (int i = 0; i < kEventSteps; ++i) {
    heap_.push_back(lcg(x) >> 8);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    const std::uint64_t key = (x >> 50) | 1;
    std::size_t slot = (key * 0x9e3779b97f4a7c15ULL) >> 49;
    while (keys_[slot] != 0 && keys_[slot] != key) {
      slot = (slot + 1) & (kTableSlots - 1);
    }
    keys_[slot] = key;
    counts_[slot] += static_cast<std::uint64_t>(i);
    if (heap_.size() > kHeapCap) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      sink_ += heap_.back();
      heap_.pop_back();
    }
  }

  void* p = mmap(nullptr, kMapBytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) return ms_since(t0);
  auto* words = static_cast<std::uint64_t*>(p);

  // Fault part: first touch of every page of the fresh mapping.
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  for (std::size_t i = 0; i < kMapBytes; i += page) {
    words[i / sizeof(std::uint64_t)] = i;
  }

  // Stream part: read every cache line of the mapping, a few times over.
  std::uint64_t acc = 0;
  for (int pass = 0; pass < kStreamPasses; ++pass) {
    for (std::size_t i = 0; i < kMapBytes / sizeof(std::uint64_t); i += 8) {
      acc += words[i];
    }
    asm volatile("" : "+r"(acc) : : "memory");  // keep every pass
  }
  sink_ += acc;
  munmap(p, kMapBytes);
  return ms_since(t0);
}

}  // namespace perfbench
