#include "perfmodel/perfmodel.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace omr::perfmodel {

namespace {
double bits(double bytes) { return bytes * 8.0; }

double ceil_log2(std::size_t n) {
  double steps = 0.0;
  std::size_t reach = 1;
  while (reach < n) {
    reach *= 2;
    steps += 1.0;
  }
  return steps;
}
}  // namespace

double union_density(const ModelParams& p) {
  return 1.0 - std::pow(1.0 - p.density, static_cast<double>(p.n_workers));
}

double t_ring(const ModelParams& p) {
  const double n = static_cast<double>(p.n_workers);
  return 2.0 * (n - 1.0) *
         (p.alpha_s + bits(p.tensor_bytes) / (n * p.bandwidth_bps));
}

double t_agsparse(const ModelParams& p) {
  const double n = static_cast<double>(p.n_workers);
  return (n - 1.0) *
         (p.alpha_s + 2.0 * p.density * bits(p.tensor_bytes) / p.bandwidth_bps);
}

namespace {
/// Codec-aware engine time: the bandwidth term scales with the codec's
/// wire bits per element, encode/decode compute overlaps the wire
/// pipeline (max, not sum — per-stream parallelism hides the smaller of
/// the two), and the one-time setup lands on the latency term. With the
/// default (no-codec) ModelParams this is exactly alpha + wire.
double t_engine(const ModelParams& p, double wire_factor) {
  const double wire = wire_factor * p.density * bits(p.tensor_bytes) /
                      p.bandwidth_bps * (p.codec_bits_per_element / 32.0);
  const double compute = p.density * (p.tensor_bytes / 4.0) *
                         p.codec_ns_per_element * 1e-9;
  return p.alpha_s + p.codec_setup_s + std::max(wire, compute);
}
}  // namespace

double t_omnireduce(const ModelParams& p) { return t_engine(p, 1.0); }

double t_omnireduce_colocated(const ModelParams& p) {
  return t_engine(p, 2.0);
}

SlotRound slot_round(const SlotRoundParams& p) {
  const double n = static_cast<double>(p.n_workers);
  const double s = static_cast<double>(p.streams_on_node);
  const double carriers = p.dense ? n : 1.0;
  const double ingress = s * (n * p.header_bytes + carriers * p.payload_bytes);
  const double egress =
      s * (p.multicast ? 1.0 : n) * (p.header_bytes + p.payload_bytes);
  const double nic_bits = bits(std::max(ingress, egress));
  SlotRound r;
  r.nic_s = nic_bits / p.nic_bandwidth_bps;
  if (p.cross_rack_fraction > 0.0 && p.uplink_bandwidth_bps > 0.0) {
    r.spine_s = p.cross_rack_fraction * nic_bits / p.uplink_bandwidth_bps;
  }
  r.rtt_s = 2.0 * p.alpha_s;
  return r;
}

double predict_seconds(const std::string& algo, const ModelParams& p) {
  const double n = static_cast<double>(p.n_workers);
  const double S = p.tensor_bytes;
  const double B = p.bandwidth_bps;
  const double D = p.density;
  const double Du = union_density(p);
  const double logn = ceil_log2(p.n_workers);

  if (algo == "ring") return t_ring(p);
  if (algo == "omnireduce") {
    return p.colocated ? t_omnireduce_colocated(p) : t_omnireduce(p);
  }
  if (algo == "switchml") {
    // Dense streaming aggregation: OmniReduce at density 1.
    ModelParams dense = p;
    dense.density = 1.0;
    return dense.colocated ? t_omnireduce_colocated(dense)
                           : t_omnireduce(dense);
  }
  if (algo == "agsparse") return t_agsparse(p);
  if (algo == "agsparse_gloo") {
    // NCCL-flavour gather plus the host copy per received byte (~6 GB/s).
    return t_agsparse(p) + 2.0 * D * S * (n - 1.0) / 6e9;
  }
  if (algo == "sparcml" || algo == "sparcml_ssar" || algo == "sparcml_dsar") {
    // Phase 1 all-to-all of owner partitions, phase 2 ring allgather of
    // the reduced (union-density) partitions.
    return (p.alpha_s + 2.0 * D * bits(S) / B * (n - 1.0) / n) +
           (n - 1.0) * (p.alpha_s + 2.0 * Du * bits(S) / (n * B));
  }
  if (algo == "ps") {
    return 2.0 * p.alpha_s + (p.colocated ? 4.0 : 2.0) * bits(S) / B;
  }
  if (algo == "ps_sparse" || algo == "parallax") {
    const double ps = 2.0 * p.alpha_s + (p.colocated ? 2.0 : 1.0) *
                                            (2.0 * D + 2.0 * Du) * bits(S) / B;
    return algo == "parallax" ? std::min(t_ring(p), ps) : ps;
  }
  if (algo == "oktopk") {
    // Threshold-estimation rounds + balanced all-to-all of 8-byte pairs +
    // recursive-doubling allgather of the reduced union.
    return (1.0 + 2.0 * logn) * p.alpha_s +
           (2.0 * D + 2.0 * Du) * bits(S) / B * (n - 1.0) / n;
  }
  if (algo == "sketch") {
    // Dense ring over the packed [sketch | occupancy] payload (rows = 3,
    // width = 4x union non-zeros, 4-byte counters => 12 * Du * S bytes)
    // plus build/recovery memory touches.
    ModelParams packed = p;
    packed.density = 1.0;
    packed.tensor_bytes = 12.0 * Du * S + S / 256.0;
    return t_ring(packed) + 3.0 * (D + Du) * S / 12e9;
  }
  throw std::invalid_argument("no cost model for algorithm '" + algo + "'");
}

}  // namespace omr::perfmodel
