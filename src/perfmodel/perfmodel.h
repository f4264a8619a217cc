#pragma once

#include <cstddef>
#include <string>

namespace omr::perfmodel {

/// Closed-form communication models of §3.4 (after Patarasuk & Yuan).
/// Times are in seconds; they ignore local-reduction cost, exactly as the
/// paper's analysis does. `bench_model_validation` cross-checks these
/// against the discrete-event simulation.
struct ModelParams {
  std::size_t n_workers = 8;
  double bandwidth_bps = 10e9;   // full-duplex per-worker bandwidth B
  double alpha_s = 10e-6;        // one-way latency
  double tensor_bytes = 100e6;   // S (bytes)
  double density = 1.0;          // D in [0, 1]
  /// Aggregator/server shards colocated on the worker NICs: each NIC
  /// carries both roles, halving effective bandwidth for OmniReduce and
  /// doubling per-NIC parameter-server volume.
  bool colocated = false;
  /// Inline wire-codec cost terms (mirror of core::CodecSpec). Defaults
  /// are the no-codec identity — 32 wire bits per fp32 element, zero
  /// setup/compute — which leaves every prediction exactly as before.
  /// With a codec: the bandwidth term scales by codec_bits/32, encode +
  /// decode compute overlaps the (shrunk) wire time, and the one-time
  /// setup adds to the latency term.
  double codec_bits_per_element = 32.0;
  double codec_setup_s = 0.0;
  double codec_ns_per_element = 0.0;
};

/// Expected union density across n_workers independent supports with
/// per-worker density D: 1 - (1 - D)^N. The volume sparse split-allreduce
/// algorithms (SparCML phase 2, Ok-Topk allgather, the count-sketch
/// payload) actually carry.
double union_density(const ModelParams& p);

/// Ring AllReduce: T = 2(N-1)(alpha + S/(N*B)).
double t_ring(const ModelParams& p);

/// AGsparse AllReduce: T = (N-1)(alpha + 2*D*S/B) — gathers D*S keys and
/// D*S values from every worker.
double t_agsparse(const ModelParams& p);

/// OmniReduce, dedicated aggregation with aggregate bandwidth N*B:
/// T = alpha + D*S/B (pipelining masks intermediate latency).
double t_omnireduce(const ModelParams& p);

/// OmniReduce with the aggregator sharded across workers: each NIC carries
/// both roles, halving effective bandwidth: T = alpha + 2*D*S/B.
double t_omnireduce_colocated(const ModelParams& p);

/// One Algorithm 2 slot round on one aggregator node (§5), in the §3.4
/// style: the bytes a round puts on each stage of the result path divided
/// by that stage's bandwidth, summed over the stages, plus a round trip.
/// Per round every worker sends the node one packet per slot and the node
/// answers each slot with one full result per worker (one per slot under
/// switch multicast). A worker packet carries a block only when the worker
/// holds the requested one: every worker in dense mode, at least one in a
/// sparse round.
struct SlotRoundParams {
  std::size_t n_workers = 8;
  std::size_t streams_on_node = 1;  // slots the node owns
  double header_bytes = 72.0;       // packet header + per-column next/request
  double payload_bytes = 1024.0;    // one full fused block
  bool dense = false;
  bool multicast = false;
  double nic_bandwidth_bps = 10e9;  // the node's NIC
  /// Share of the workers on the far side of the spine (0 on one switch).
  double cross_rack_fraction = 0.0;
  double uplink_bandwidth_bps = 0.0;  // the node's rack uplink
  double alpha_s = 10e-6;             // one-way latency of the longest path
};

/// The stages of one slot round, in seconds.
struct SlotRound {
  double nic_s = 0.0;    // larger of the node's NIC ingress and egress
  double spine_s = 0.0;  // cross-rack share of those bytes on the uplink
  double rtt_s = 0.0;    // 2 alpha
  double seconds() const { return nic_s + spine_s + rtt_s; }
};

SlotRound slot_round(const SlotRoundParams& p);

/// Algorithm 2 arms its retransmission timer at this multiple of the
/// predicted slot round (floored by core::Config::retransmit_timeout).
inline constexpr double kRtoPerRound = 1.5;

/// Closed-form prediction for a registered collective algorithm — the
/// per-algorithm cost hooks behind core::OnlineSelector's prior. Covers
/// every name core and baselines::register_zoo() register ("ring",
/// "omnireduce", "oktopk", "sketch", "sparcml", ...); throws
/// std::invalid_argument for unknown names. Models follow §3.4's
/// alpha-beta style: latency terms plus bandwidth terms, ignoring local
/// reduction exactly as t_ring/t_agsparse/t_omnireduce do.
double predict_seconds(const std::string& algo, const ModelParams& p);

}  // namespace omr::perfmodel
