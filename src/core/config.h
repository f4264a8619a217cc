#pragma once

#include <cstddef>
#include <cstdint>

#include "compress/wire_codec.h"
#include "sim/time.h"

namespace omr::core {

/// One-time per-collective per-worker cost of arming the codec path
/// (kernel launch / ring buffer registration). Dominates at small tensors,
/// which is what makes `none` win the small-message cells.
inline constexpr double kCodecSetupNs = 5000.0;
/// Per-element encode+decode compute charged on the packet critical path
/// (per packet: elements * kCodecNsPerElement + kCodecPacketOverheadNs).
inline constexpr double kCodecNsPerElement = 0.25;
inline constexpr double kCodecPacketOverheadNs = 100.0;

/// Inline wire-compression configuration (QuickReduce-style). With
/// codec == kNone every cost term is zero and the packet path is
/// byte-identical to the uncompressed engine. Workers always carry the
/// quantization error as a residual added into the next collective's input
/// (error feedback), which preserves convergence under
/// dequant-fold-requant.
struct CodecSpec {
  compress::WireCodec codec = compress::WireCodec::kNone;

  bool enabled() const { return codec != compress::WireCodec::kNone; }
  /// Codec compute time for one packet carrying `elements` data elements.
  sim::Time packet_cost(std::size_t elements) const {
    if (!enabled() || elements == 0) return 0;
    return static_cast<sim::Time>(
        static_cast<double>(elements) * kCodecNsPerElement +
        kCodecPacketOverheadNs);
  }
};

/// Transport flavour: decides header overhead, message capacity and which
/// protocol variant runs (Algorithm 1 over a reliable fabric, Algorithm 2
/// with acks/timers/versioned slots over a lossy one).
enum class Transport {
  kDpdk,  // UDP over kernel-bypass: MTU-sized packets, lossy, Algorithm 2
  kRdma,  // RoCE RC: large messages, reliable in-order, Algorithm 1
};

/// Where aggregator processes run (§3, §6.1).
enum class Deployment {
  kDedicated,  // separate CPU machines, one NIC each
  kColocated,  // aggregator shards share the workers' NICs
};

/// Reduction operator. Sum is the DDL default. Min/max follow sparse
/// semantics: blocks that no worker transmits (all-zero everywhere) stay
/// zero, and within contributed blocks the op is applied element-wise over
/// the contributing workers only — i.e., absent blocks are transparent, as
/// in sparse-tensor reductions. (With sum this coincides with plain
/// AllReduce.)
enum class ReduceOp {
  kSum,
  kMin,
  kMax,
};

/// Scale factor of fixed-point aggregation (value * scale rounded to
/// int32). 2^20 keeps ~6 decimal digits for gradients in [-1000, 1000].
inline constexpr double kFixedPointScale = 1048576.0;

/// Tuning knobs of the OmniReduce engine. Defaults follow §5/§6: 256-element
/// blocks, 256 outstanding slots, MTU-sized DPDK packets.
struct Config {
  /// Elements per block (the unit of sparsity detection). Paper default 256.
  std::size_t block_size = 256;
  /// Max data elements a packet/message may carry; the Block Fusion width is
  /// w = max(1, packet_elements / block_size). DPDK: 256 elements fills an
  /// MTU frame; RDMA messages are larger (default set by transport helper).
  std::size_t packet_elements = 256;
  /// Number of independent aggregation streams (slots in flight). The paper
  /// uses 256 outstanding packets per worker.
  std::size_t num_streams = 256;
  /// Disable sparsity skipping: every block is treated as non-zero. This
  /// turns the engine into a SwitchML*-style streaming dense aggregator.
  bool dense_mode = false;
  /// Run Algorithm 2 (acks + retransmission timers + versioned slots).
  /// Implied by Transport::kDpdk when the fabric loss rate is nonzero, but
  /// can be forced for testing.
  bool loss_recovery = false;
  /// Floor of Algorithm 2's retransmission timeout. Each collective arms
  /// max(this, 1.5 x the predicted slot round); see
  /// core::size_retransmit_timeout.
  sim::Time retransmit_timeout = sim::milliseconds(1);
  /// Per-message protocol + transport header bytes.
  std::size_t header_bytes = 64;
  /// Bytes per element on the wire (c_v in the paper's cost model): 4 for
  /// fp32, 2 for fp16/bf16 mixed-precision gradients. Affects transmission
  /// time only; slot arithmetic stays fp32 (values are converted at the
  /// NIC, as GDR-capable NICs do for mixed-precision payloads).
  std::size_t value_bytes = 4;
  /// Include the GPU bitmap computation in the measured time.
  bool charge_bitmap_cost = true;
  /// The aggregator multicasts results via the switch data plane (one TX
  /// serialization total) instead of per-worker unicast. Only an in-network
  /// aggregator (§7) can do this.
  bool switch_multicast = false;
  /// Aggregate in fixed-point (int32-scaled) arithmetic with saturation, as
  /// programmable switch ASICs must (§7: the P4 aggregator inherits the
  /// SwitchML numeric-representation limitation), at kFixedPointScale.
  bool fixed_point = false;
  /// Reduction operator (sum/min/max). Fixed-point slots require kSum.
  ReduceOp op = ReduceOp::kSum;
  /// Numeric reproducibility (§7): the aggregator buffers each round's
  /// contributions and folds them in worker-id order at round completion,
  /// so the floating-point result is bit-identical regardless of packet
  /// arrival order. Costs one block of buffering per worker per slot;
  /// throughput is unaffected (the fold happens off the critical wire path).
  bool deterministic_reduction = false;
  /// Inline wire codec for packet payloads (kNone = uncompressed, the
  /// byte-identical default).
  CodecSpec codec;

  /// Block Fusion width.
  std::size_t fusion_width() const {
    return packet_elements >= block_size ? packet_elements / block_size : 1;
  }

  /// Paper-faithful defaults for a transport at a given line rate.
  static Config for_transport(Transport t);
};

inline Config Config::for_transport(Transport t) {
  Config c;
  switch (t) {
    case Transport::kDpdk:
      c.packet_elements = 256;  // one 1 KB block per MTU frame at bs=256
      c.header_bytes = 64;      // Eth+IP+UDP + OmniReduce header
      c.loss_recovery = true;
      c.num_streams = 256;
      break;
    case Transport::kRdma:
      c.packet_elements = 4096;  // 16 KB messages; slot == message (§5)
      c.header_bytes = 60;       // RoCE v2 + 32-bit immediate
      c.loss_recovery = false;   // RC mode is reliable
      c.num_streams = 256;
      break;
  }
  return c;
}

}  // namespace omr::core
