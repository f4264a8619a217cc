#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A fixed amount of reference work whose host time tracks how fast the
/// host runs this process right now. On a shared VM the host's speed
/// shifts by 20-40% over seconds to minutes with the load of other tenants;
/// dividing a host time by the reference time taken at the same moment
/// removes that shift and keeps what the simulator itself costs.
///
/// The work has three parts, after where the simulator spends host time:
/// binary-heap and hash-table updates on an L2-sized working set (event
/// queue and per-key state; about 60% of the time, because the
/// event-driven ops slow most when the host is busy), first-touch page
/// faults on a fresh 4 MB mapping (large transient allocations), and reads
/// of that mapping (tensor sweeps). It allocates nothing through the
/// process heap, so neither the simulator's code nor its allocation
/// pattern can change it; only the host can.
class HostSpeed {
 public:
  /// Typical host time of the reference work on a 4-vCPU Xeon VM (ms).
  /// Host-time metrics are reported scaled to this speed.
  static constexpr double kReferenceMs = 12.0;

  HostSpeed();

  /// Run the reference work once and return its host time (ms).
  double sample();

  /// `raw` host time (any unit) scaled to the reference speed, given the
  /// reference time measured beside it.
  static double at_reference(double raw, double reference_ms) {
    return reference_ms > 0.0 ? raw * kReferenceMs / reference_ms : raw;
  }

 private:
  std::vector<std::uint64_t> heap_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t sink_ = 0;
};

}  // namespace perfbench
