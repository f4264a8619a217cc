#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "core/cluster.h"

namespace omr::serve {

/// Fixed-capacity hot-embedding cache with LRU or LFU eviction, used by
/// each PsShard as the fast tier over its KV store. Stores only the row's
/// version — the simulator models bytes and time, not values.
///
/// Both policies share one structure: frequency buckets (a std::map from
/// frequency to an intrusive recency list, MRU at the head). LRU pins
/// every entry to frequency 0, so there is a single bucket and eviction
/// takes its tail — textbook LRU, which has the stack (inclusion)
/// property: for the same access sequence a larger LRU cache holds a
/// superset of a smaller one, making hit counts exactly monotone in
/// capacity (the serving torture suite leans on that). LFU increments the
/// frequency per use and evicts the least-recent entry of the minimum
/// frequency; it has no inclusion property, so monotonicity is asserted
/// for LRU only. All operations are O(log #distinct-frequencies) and
/// fully deterministic (no hash-order iteration).
///
/// Keys find their node through a flat open-addressed index: linear
/// probing from the home slot (the low bits of ShardMap::mix64(key)) in a
/// power-of-two table of at least twice the capacity, with backward-shift
/// erase, so no tombstones build up. Eviction order comes from the
/// buckets alone, never from the index layout.
class EmbeddingCache {
 public:
  using Policy = core::ServeSpec::CachePolicy;

  EmbeddingCache(Policy policy, std::size_t capacity);

  /// Hit test. On a hit: refreshes recency/frequency, writes the cached
  /// version to `version_out` (if non-null) and returns true. A miss
  /// changes nothing (fills are the caller's put()).
  bool lookup(std::uint64_t key, std::uint32_t* version_out = nullptr);

  /// Start loading `key`'s home index slot into the CPU cache, so that a
  /// lookup() or put() of it soon after probes without a miss. Changes
  /// nothing.
  void prefetch(std::uint64_t key) const;

  /// Insert or overwrite `key` (miss fill or write-through update); counts
  /// as a use. Evicts per policy when full. No-op at capacity 0.
  void put(std::uint64_t key, std::uint32_t version);

  std::size_t size() const { return nodes_.size() - free_.size(); }
  std::size_t capacity() const { return capacity_; }
  Policy policy() const { return policy_; }
  std::uint64_t evictions() const { return evictions_; }

  /// Resident keys in eviction order (next victim first). For tests.
  std::vector<std::uint64_t> resident_keys() const;

 private:
  struct Node {
    std::uint64_t key = 0;
    std::uint32_t version = 0;
    std::uint64_t freq = 0;
    int prev = -1;
    int next = -1;
  };
  struct Bucket {
    int head = -1;  // most recently used
    int tail = -1;  // eviction end
  };

  struct Slot {
    std::uint64_t key = 0;
    int node = -1;  // -1: empty
  };

  void detach(int i);
  void push_front(std::uint64_t freq, int i);
  void bump(int i);

  std::size_t home(std::uint64_t key) const;
  /// Index slot holding `key`, or the empty slot ending its probe run.
  std::size_t probe(std::uint64_t key) const;
  void erase_slot(std::size_t s);

  Policy policy_;
  std::size_t capacity_;
  std::uint64_t evictions_ = 0;
  std::vector<Node> nodes_;
  std::vector<int> free_;
  std::map<std::uint64_t, Bucket> buckets_;
  std::vector<Slot> slots_;
};

}  // namespace omr::serve
