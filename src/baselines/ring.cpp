#include "baselines/ring.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace omr::baselines {

namespace {

using detail::FlatFabric;
using detail::FlatNode;

/// A ring schedule over N ranks and N units: at step s rank r sends unit
/// (r - s) mod N to rank r + 1 in chunks of `chunk_elements * 4` bytes and
/// waits for unit (r - 1 - s) mod N. Only byte counts travel.
struct RingSchedule {
  std::vector<std::size_t> unit_bytes;  // one per rank
  int steps = 0;
  /// Send one empty message for an empty unit (allgather) instead of none
  /// (allreduce segments).
  bool send_empty = false;
};

/// One rank of a ring schedule over N units (allreduce segments or
/// allgather payloads): at step s, rank r sends unit (r - s) mod N to its
/// successor in chunks and waits for unit (r - 1 - s) mod N from its
/// predecessor. Allreduce runs 2(N-1) steps over its segments
/// (reduce-scatter, then allgather, whose step-s segment is the same
/// (r - s) mod N); allgather runs N-1 steps over the owners' payloads.
/// Only chunk sizes travel: ring_allreduce folds the data after the
/// simulation, in the order the ring would have.
class RingNode final : public FlatNode {
 public:
  RingNode(net::Network& net, const BaselineConfig& cfg, int rank,
           const RingSchedule& schedule)
      : FlatNode(net), cfg_(cfg), rank_(rank),
        n_(static_cast<int>(schedule.unit_bytes.size())),
        schedule_(schedule),
        all_empty_(std::all_of(schedule.unit_bytes.begin(),
                               schedule.unit_bytes.end(),
                               [](std::size_t b) { return b == 0; })) {}

  void start(net::EndpointId successor) {
    succ_ = successor;
    if (schedule_.steps == 0) {
      finish();
      return;
    }
    send_step(0);
  }

  void on_message(net::EndpointId /*from*/,
                  const net::MessagePtr& msg) override {
    const auto* c = net::message_cast<detail::ByteChunk>(msg.get());
    if (c == nullptr) throw std::logic_error("unexpected ring message");
    // An empty allgather step completes on send, so its empty message can
    // arrive after the rank's last step. The schedule then steps on past
    // its end: those extra sends reach the wire and count in tx bytes, but
    // never move a finish time. With every unit empty that would never
    // end, so there the late message is dropped.
    if (done() && all_empty_) return;
    recv_remaining_ -= c->bytes;
    if (recv_remaining_ == 0) advance();
  }

 private:
  std::size_t unit(int offset) const {
    return schedule_.unit_bytes[static_cast<std::size_t>(
        ((rank_ - offset) % n_ + n_) % n_)];
  }

  void advance() {
    step_ += 1;
    if (step_ == schedule_.steps) {
      finish();
    } else {
      send_step(step_);
    }
  }

  void send_step(int step) {
    recv_remaining_ = unit(step + 1);
    const std::size_t total = unit(step);
    if (total > 0 || schedule_.send_empty) {
      detail::send_chunked(net_, self_, succ_, total, cfg_);
    }
    // Nothing to receive this step: advance immediately.
    if (recv_remaining_ == 0) advance();
  }

  const BaselineConfig& cfg_;
  int rank_;
  int n_;
  const RingSchedule& schedule_;
  bool all_empty_;
  net::EndpointId succ_ = -1;
  int step_ = 0;
  std::size_t recv_remaining_ = 0;
};

/// Segment g of an `elements`-long buffer split over `n` ring ranks.
std::size_t segment_begin(std::size_t elements, std::size_t n,
                          std::size_t g) {
  return elements * g / n;
}

/// Simulate `schedule` over one NIC per rank; returns the latest finish
/// and the total transmitted bytes.
BaselineStats run_ring_schedule(const RingSchedule& schedule,
                                const BaselineConfig& cfg) {
  const std::size_t n = schedule.unit_bytes.size();
  if (n == 0) throw std::invalid_argument("no workers");
  FlatFabric fabric(cfg);
  std::vector<std::unique_ptr<RingNode>> nodes;
  std::vector<net::EndpointId> eps;
  for (std::size_t r = 0; r < n; ++r) {
    nodes.push_back(std::make_unique<RingNode>(
        fabric.network(), cfg, static_cast<int>(r), schedule));
    eps.push_back(fabric.attach(*nodes.back()));
  }
  for (std::size_t r = 0; r < n; ++r) nodes[r]->start(eps[(r + 1) % n]);
  return fabric.run(nodes, "ring schedule");
}

}  // namespace

BaselineStats detail::ring_allreduce_schedule(std::size_t elements,
                                              std::size_t n,
                                              const BaselineConfig& cfg) {
  if (n == 0) throw std::invalid_argument("no workers");
  RingSchedule schedule;
  schedule.unit_bytes.resize(n);
  for (std::size_t g = 0; g < n; ++g) {
    schedule.unit_bytes[g] = (segment_begin(elements, n, g + 1) -
                              segment_begin(elements, n, g)) * 4;
  }
  schedule.steps = 2 * (static_cast<int>(n) - 1);
  return run_ring_schedule(schedule, cfg);
}

BaselineStats detail::ring_allreduce(std::vector<tensor::DenseTensor>& tensors,
                                     const BaselineConfig& cfg) {
  if (tensors.empty()) throw std::invalid_argument("no workers");
  const std::size_t n = tensors.size();
  const std::size_t size = tensors.front().size();
  for (const auto& t : tensors) {
    if (t.size() != size) throw std::invalid_argument("tensor size mismatch");
  }
  const BaselineStats stats = ring_allreduce_schedule(size, n, cfg);
  if (n == 1) return stats;

  // The ring reduces segment g as it travels from rank g around to rank
  // g - 1: the left fold t_g + t_{g+1} + ... + t_{g+N-1} (indices mod N).
  // The allgather then copies that fold to every rank. Compute it directly,
  // tile by tile, in that order.
  constexpr std::size_t kTile = 4096;
  std::vector<float> acc(kTile);
  for (std::size_t g = 0; g < n; ++g) {
    const std::size_t hi = segment_begin(size, n, g + 1);
    for (std::size_t lo = segment_begin(size, n, g); lo < hi; lo += kTile) {
      const std::size_t len = std::min(kTile, hi - lo);
      const float* first = tensors[g].values().data() + lo;
      std::copy(first, first + len, acc.begin());
      for (std::size_t k = 1; k < n; ++k) {
        const float* src = tensors[(g + k) % n].values().data() + lo;
        for (std::size_t j = 0; j < len; ++j) acc[j] += src[j];
      }
      for (auto& t : tensors) {
        std::copy(acc.begin(), acc.begin() + static_cast<std::ptrdiff_t>(len),
                  t.values().begin() + static_cast<std::ptrdiff_t>(lo));
      }
    }
  }
  return stats;
}

BaselineStats detail::ring_allgather_bytes(
    const std::vector<std::size_t>& payload_bytes, const BaselineConfig& cfg) {
  RingSchedule schedule;
  schedule.unit_bytes = payload_bytes;
  schedule.steps = static_cast<int>(payload_bytes.size()) - 1;
  // Every step sends at least one (possibly empty) message.
  schedule.send_empty = true;
  return run_ring_schedule(schedule, cfg);
}

}  // namespace omr::baselines
