#include "serve/cache.h"

#include <algorithm>
#include <bit>

#include "serve/shard_map.h"

namespace omr::serve {

EmbeddingCache::EmbeddingCache(Policy policy, std::size_t capacity)
    : policy_(policy), capacity_(capacity) {
  nodes_.reserve(capacity_);
  // Load factor <= 1/2 keeps probe runs short and leaves an empty slot to
  // end every probe; capacity 0 still gets one (always empty) slot.
  slots_.resize(std::bit_ceil(std::max<std::size_t>(1, 2 * capacity_)));
}

std::size_t EmbeddingCache::home(std::uint64_t key) const {
  return ShardMap::mix64(key) & (slots_.size() - 1);
}

std::size_t EmbeddingCache::probe(std::uint64_t key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = home(key);
  while (slots_[s].node >= 0 && slots_[s].key != key) s = (s + 1) & mask;
  return s;
}

void EmbeddingCache::erase_slot(std::size_t s) {
  // Backward shift: pull each later entry of the run into the hole unless
  // its home lies cyclically in (hole, entry], which would put it before
  // its own home.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = (s + 1) & mask; slots_[j].node >= 0;
       j = (j + 1) & mask) {
    if (((j - home(slots_[j].key)) & mask) >= ((j - s) & mask)) {
      slots_[s] = slots_[j];
      s = j;
    }
  }
  slots_[s].node = -1;
}

void EmbeddingCache::detach(int i) {
  Node& n = nodes_[static_cast<std::size_t>(i)];
  const auto it = buckets_.find(n.freq);
  Bucket& b = it->second;
  if (n.prev >= 0) {
    nodes_[static_cast<std::size_t>(n.prev)].next = n.next;
  } else {
    b.head = n.next;
  }
  if (n.next >= 0) {
    nodes_[static_cast<std::size_t>(n.next)].prev = n.prev;
  } else {
    b.tail = n.prev;
  }
  n.prev = n.next = -1;
  if (b.head < 0) buckets_.erase(it);
}

void EmbeddingCache::push_front(std::uint64_t freq, int i) {
  Node& n = nodes_[static_cast<std::size_t>(i)];
  n.freq = freq;
  Bucket& b = buckets_[freq];
  n.prev = -1;
  n.next = b.head;
  if (b.head >= 0) nodes_[static_cast<std::size_t>(b.head)].prev = i;
  b.head = i;
  if (b.tail < 0) b.tail = i;
}

void EmbeddingCache::bump(int i) {
  const std::uint64_t freq =
      policy_ == Policy::kLfu ? nodes_[static_cast<std::size_t>(i)].freq + 1
                              : 0;
  detach(i);
  push_front(freq, i);
}

bool EmbeddingCache::lookup(std::uint64_t key, std::uint32_t* version_out) {
  const int i = slots_[probe(key)].node;
  if (i < 0) return false;
  if (version_out != nullptr) {
    *version_out = nodes_[static_cast<std::size_t>(i)].version;
  }
  bump(i);
  return true;
}

void EmbeddingCache::put(std::uint64_t key, std::uint32_t version) {
  if (capacity_ == 0) return;
  std::size_t s = probe(key);
  if (slots_[s].node >= 0) {
    nodes_[static_cast<std::size_t>(slots_[s].node)].version = version;
    bump(slots_[s].node);
    return;
  }
  if (size() == capacity_) {
    // Victim: least-recent entry of the minimum frequency bucket.
    const int victim = buckets_.begin()->second.tail;
    erase_slot(probe(nodes_[static_cast<std::size_t>(victim)].key));
    detach(victim);
    free_.push_back(victim);
    ++evictions_;
    s = probe(key);  // the erase may have shifted key's probe run
  }
  int i;
  if (!free_.empty()) {
    i = free_.back();
    free_.pop_back();
  } else {
    i = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
  }
  Node& n = nodes_[static_cast<std::size_t>(i)];
  n.key = key;
  n.version = version;
  push_front(policy_ == Policy::kLfu ? 1 : 0, i);
  slots_[s] = {key, i};
}

std::vector<std::uint64_t> EmbeddingCache::resident_keys() const {
  std::vector<std::uint64_t> keys;
  keys.reserve(size());
  for (const auto& [freq, bucket] : buckets_) {
    for (int i = bucket.tail; i >= 0;
         i = nodes_[static_cast<std::size_t>(i)].prev) {
      keys.push_back(nodes_[static_cast<std::size_t>(i)].key);
    }
  }
  return keys;
}

}  // namespace omr::serve
