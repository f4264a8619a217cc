#include "serve/traffic.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <mutex>
#include <stdexcept>

namespace omr::serve {

/// Cumulative weights cum[i] = sum_{j <= i} (j + 1)^-alpha plus the guide.
/// bucket(x) = min(floor(max(x * scale, 0)), buckets - 1) is monotone in
/// x, and guide[b] counts the ranks i with bucket(cum[i]) < b. Every u
/// with bucket(u) = b therefore has its upper_bound in
/// [guide[b], guide[b + 1]] (guide[buckets] being n), and the search
/// checks that before trusting it.
struct ZipfTable {
  std::vector<double> cum;
  std::vector<std::uint32_t> guide;
  double scale = 0.0;

  std::size_t bucket(double x) const {
    // Written so that any x, even negative or NaN, gives a valid bucket.
    const double s = x * scale;
    const std::size_t last = guide.size() - 1;
    if (!(s > 0.0)) return 0;
    return s < static_cast<double>(last) ? static_cast<std::size_t>(s) : last;
  }

  std::size_t upper_bound(double u) const {
    const std::size_t n = cum.size();
    const std::size_t b = bucket(u);
    const double* lo = cum.data() + guide[b];
    const double* hi = cum.data() + (b + 1 < guide.size() ? guide[b + 1] : n);
    auto i = static_cast<std::size_t>(std::upper_bound(lo, hi, u) -
                                      cum.data());
    if ((i > 0 && cum[i - 1] > u) || (i < n && cum[i] <= u)) {
      i = static_cast<std::size_t>(
          std::upper_bound(cum.data(), cum.data() + n, u) - cum.data());
    }
    return i;
  }
};

namespace {

/// Ranks per guide bucket: ~n/8 guide entries (4 bytes each) against the
/// 8-byte cum entries keeps the guide at 1/16 of the table.
constexpr std::size_t kRanksPerBucket = 8;

using TablePtr = std::shared_ptr<const ZipfTable>;

std::shared_ptr<ZipfTable> build_table(std::size_t n, double alpha) {
  auto t = std::make_shared<ZipfTable>();
  t->cum.resize(n);
  double c = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    c += std::pow(static_cast<double>(i + 1), -alpha);
    t->cum[i] = c;
  }
  const std::size_t buckets = (n + kRanksPerBucket - 1) / kRanksPerBucket;
  t->guide.resize(buckets);
  t->scale = static_cast<double>(buckets) / c;
  std::size_t i = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    while (i < n && t->bucket(t->cum[i]) < b) ++i;
    t->guide[b] = static_cast<std::uint32_t>(i);
  }
  return t;
}

/// The process-wide (n, alpha) -> table memo. Entries are replaced oldest
/// first; a generator keeps its table alive after eviction.
struct Memo {
  struct Entry {
    std::size_t n = 0;
    double alpha = 0.0;
    TablePtr table;
  };
  std::mutex mu;
  std::array<Entry, ZipfGenerator::kMaxSharedTables> entries;  // guarded
  std::size_t next = 0;                                        // guarded

  TablePtr find(std::size_t n, double alpha) const {
    for (const Entry& e : entries) {
      if (e.table != nullptr && e.n == n && e.alpha == alpha) return e.table;
    }
    return nullptr;
  }
};

Memo& memo() {
  static Memo m;
  return m;
}

TablePtr shared_table(std::size_t n, double alpha) {
  Memo& m = memo();
  {
    std::lock_guard<std::mutex> lock(m.mu);
    if (TablePtr t = m.find(n, alpha)) return t;
  }
  // Build outside the lock so other shapes are not held up; if another
  // thread published this shape meanwhile, use its (identical) table.
  TablePtr built = build_table(n, alpha);
  std::lock_guard<std::mutex> lock(m.mu);
  if (TablePtr t = m.find(n, alpha)) return t;
  m.entries[m.next] = {n, alpha, built};
  m.next = (m.next + 1) % m.entries.size();
  return built;
}

}  // namespace

ZipfGenerator::ZipfGenerator(std::size_t n, double alpha)
    : n_(n), alpha_(alpha) {
  if (n_ == 0) throw std::invalid_argument("zipf over an empty key space");
  if (std::isnan(alpha_) || alpha_ < 0.0) {
    throw std::invalid_argument("zipf alpha must be >= 0");
  }
  if (alpha_ == 0.0) return;  // uniform: no table
  if (n_ > (std::size_t{1} << 32)) {
    throw std::invalid_argument("zipf table over more than 2^32 keys");
  }
  table_ = shared_table(n_, alpha_);
}

std::uint64_t ZipfGenerator::next(sim::Rng& rng) const {
  if (table_ == nullptr) return rng.next_below(n_);
  return rank_at(rng.next_double() * table_->cum.back());
}

std::uint64_t ZipfGenerator::rank_at(double u) const {
  if (table_ == nullptr) {
    throw std::logic_error("rank_at on a uniform zipf generator");
  }
  const std::size_t idx = table_->upper_bound(u);
  return idx < n_ ? idx : n_ - 1;
}

void ZipfGenerator::ranks_at(const double* u, std::uint64_t* out,
                             std::size_t n) const {
  if (table_ == nullptr) {
    throw std::logic_error("ranks_at on a uniform zipf generator");
  }
  const ZipfTable& t = *table_;
  const std::uint32_t* guide = t.guide.data();
  const double* cum = t.cum.data();
  // Pass 1: each variate's bucket, parked in out[], and its guide entry.
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t b = t.bucket(u[j]);
    out[j] = b;
    __builtin_prefetch(guide + b);
  }
  // Pass 2: the table entries the search reads: both ends of the bucket's
  // rank range (and the rank before it, which the check reads) and the
  // first probe in between.
  const std::size_t last = t.guide.size() - 1;
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t b = out[j];
    const std::size_t lo = std::min<std::size_t>(guide[b], n_ - 1);
    const std::size_t hi =
        std::min<std::size_t>(b < last ? guide[b + 1] : n_, n_ - 1);
    __builtin_prefetch(cum + (lo > 0 ? lo - 1 : 0));
    __builtin_prefetch(cum + lo + (hi - lo) / 2);
    __builtin_prefetch(cum + hi);
  }
  // Pass 3: the searches themselves, exactly as rank_at runs them.
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t idx = t.upper_bound(u[j]);
    out[j] = idx < n_ ? idx : n_ - 1;
  }
}

double ZipfGenerator::total_weight() const {
  if (table_ == nullptr) {
    throw std::logic_error("total_weight of a uniform zipf generator");
  }
  return table_->cum.back();
}

std::size_t ZipfGenerator::shared_tables() {
  Memo& m = memo();
  std::lock_guard<std::mutex> lock(m.mu);
  std::size_t count = 0;
  for (const auto& e : m.entries) count += e.table != nullptr ? 1 : 0;
  return count;
}

}  // namespace omr::serve
