#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "sim/time.h"

namespace omr::net {

using NicId = int;
/// Identifies a store-and-forward link inside a Topology.
using LinkId = int;

/// Two-state Markov (Gilbert-Elliott) loss process parameters. The chain
/// advances once per message: Good -> Bad with `p_good_to_bad`, Bad -> Good
/// with `p_bad_to_good`; the message is then dropped with the current
/// state's loss probability. This produces the bursty loss of a flaky
/// cable / congested queue that i.i.d. Bernoulli drops cannot: mean burst
/// length is 1/p_bad_to_good messages.
struct GilbertElliottConfig {
  double p_good_to_bad = 0.0;
  double p_bad_to_good = 0.1;
  double loss_good = 0.0;
  double loss_bad = 1.0;

  bool enabled() const { return p_good_to_bad > 0.0; }
  /// Long-run drop probability (stationary distribution of the chain).
  double steady_state_loss() const {
    const double denom = p_good_to_bad + p_bad_to_good;
    if (denom <= 0.0) return loss_good;
    const double pi_bad = p_good_to_bad / denom;
    return (1.0 - pi_bad) * loss_good + pi_bad * loss_bad;
  }
};

/// Per-message loss process attached to the fabric or to one link.
/// Bernoulli draws exactly one uniform per message — the seed Network's
/// behaviour — so wrapping the legacy loss_rate in a LossProcess keeps
/// existing runs bit-identical. Gilbert-Elliott carries the chain state.
class LossProcess {
 public:
  LossProcess() = default;  // lossless: drop() never draws

  static LossProcess bernoulli(double p) {
    LossProcess lp;
    lp.kind_ = p > 0.0 ? Kind::kBernoulli : Kind::kNone;
    lp.rate_ = p;
    return lp;
  }
  static LossProcess gilbert_elliott(const GilbertElliottConfig& cfg) {
    LossProcess lp;
    lp.kind_ = cfg.enabled() ? Kind::kGilbertElliott : Kind::kNone;
    lp.ge_ = cfg;
    return lp;
  }

  bool lossless() const { return kind_ == Kind::kNone; }
  bool in_burst() const { return bad_; }

  /// One message traversal: advance state (GE), return true when dropped.
  bool drop(sim::Rng& rng) {
    switch (kind_) {
      case Kind::kNone:
        return false;
      case Kind::kBernoulli:
        return rng.next_bool(rate_);
      case Kind::kGilbertElliott: {
        if (bad_) {
          if (rng.next_bool(ge_.p_bad_to_good)) bad_ = false;
        } else {
          if (rng.next_bool(ge_.p_good_to_bad)) bad_ = true;
        }
        return rng.next_bool(bad_ ? ge_.loss_bad : ge_.loss_good);
      }
    }
    return false;
  }

 private:
  enum class Kind : std::uint8_t { kNone, kBernoulli, kGilbertElliott };
  Kind kind_ = Kind::kNone;
  double rate_ = 0.0;
  GilbertElliottConfig ge_;
  bool bad_ = false;  // current GE state
};

/// One unidirectional store-and-forward hop with its own capacity,
/// propagation delay and loss process. NIC-edge serialization stays on the
/// Network's NICs; links model the *interior* of the fabric (ToR uplinks,
/// spine ports).
struct LinkConfig {
  double bandwidth_bps = 10e9;
  /// Propagation delay charged after the link finishes serializing.
  sim::Time latency = 0;
  /// Telemetry lane label, e.g. "rack0.uplink".
  std::string name;
};

/// Per-link traffic accounting, mirroring NicStats.
struct LinkStats {
  std::uint64_t tx_bytes = 0;
  std::uint64_t tx_messages = 0;
  std::uint64_t dropped_messages = 0;
};

struct Link {
  LinkConfig cfg;
  LossProcess loss;
  sim::Rng loss_rng{0};       // reseeded by Network at bind time
  sim::Time busy_until = 0;   // FIFO serialization cursor
  LinkStats stats;
  /// Weighted-fair mode (Network::set_tenants with >= 2 tenants): per
  /// tenant, the end of its booked service (`tenant_busy`, the backlog
  /// other tenants price against), the earliest start of its next message
  /// (`tenant_gate`, its own service end plus capacity pushed onto it by
  /// overlapping tenants), and one counter row. Sized lazily on first
  /// contended use; empty in single-tenant runs, keeping the legacy FIFO
  /// path byte-identical.
  std::vector<sim::Time> tenant_busy;
  std::vector<sim::Time> tenant_gate;
  std::vector<LinkStats> tenant_stats;
  /// Scheduled outage windows [from, until): the link drops every message
  /// reaching it inside one (fault injection; empty = always up).
  std::vector<std::pair<sim::Time, sim::Time>> down;

  bool is_down(sim::Time t) const {
    for (const auto& [from, until] : down) {
      if (t >= from && t < until) return true;
    }
    return false;
  }
};

/// The fabric path between a sender's TX serialization and a receiver's RX
/// serialization: a propagation delay plus an ordered list of
/// store-and-forward links. The Network traverses it per message.
struct Path {
  /// Propagation charged before the first link (and, for link-less paths,
  /// the whole NIC-to-NIC one-way latency).
  sim::Time ingress_latency = 0;
  std::vector<LinkId> links;
};

/// Maps (src NIC, dst NIC) to the Path a message takes across the fabric.
/// Implementations own the interior links; the Network owns NICs,
/// endpoints and loss applied at the ideal-fabric level. Routing must be
/// static (one fixed path per NIC pair) so per-pair FIFO delivery — the
/// RDMA RC ordering contract the protocols rely on — is preserved.
class Topology {
 public:
  virtual ~Topology() = default;

  /// Short kind tag for reports ("ideal_switch", "two_tier").
  virtual const char* kind() const = 0;

  /// Network notifies the topology of every NIC in add order, with its
  /// configured bandwidth (used e.g. to derive uplink capacity).
  virtual void add_nic(NicId nic, double tx_bandwidth_bps,
                       double rx_bandwidth_bps) = 0;

  /// Resolve the path for one message. Called on the hot path; returns a
  /// reference into topology-owned storage.
  virtual const Path& route(NicId src, NicId dst) = 0;

  /// Force lazily-built topologies to materialize their links now (no-op
  /// for eagerly-built ones). Needed before traffic when link ids must be
  /// resolved up front — e.g. to schedule link flaps on rack uplinks.
  virtual void finalize() {}

  /// Schedule an outage window on one link (fault injection): every
  /// message reaching the link during [from, until) is dropped.
  void add_link_flap(LinkId id, sim::Time from, sim::Time until) {
    link(id).down.emplace_back(from, until);
  }

  std::size_t num_links() const { return links_.size(); }
  Link& link(LinkId id) { return links_[static_cast<std::size_t>(id)]; }
  const Link& link(LinkId id) const {
    return links_[static_cast<std::size_t>(id)];
  }
  const LinkStats& link_stats(LinkId id) const { return link(id).stats; }
  const std::string& link_name(LinkId id) const { return link(id).cfg.name; }

  /// Deterministically derive every link's loss RNG from the fabric seed
  /// (applies to links added later too — topologies may build their links
  /// lazily once all NICs are known). Keyed by link index, so loss
  /// decisions are independent of traffic order and of each other.
  void set_link_seed(std::uint64_t seed) {
    link_seed_ = seed;
    for (std::size_t i = 0; i < links_.size(); ++i) {
      links_[i].loss_rng = link_rng(i);
    }
  }

 protected:
  LinkId add_link(LinkConfig cfg, LossProcess loss = {}) {
    links_.push_back(Link{std::move(cfg), loss, link_rng(links_.size()), 0,
                          {}, {}, {}, {}, {}});
    return static_cast<LinkId>(links_.size() - 1);
  }

  sim::Rng link_rng(std::size_t index) const {
    return sim::Rng(link_seed_ ^ (0xd1b54a32d192ed03ULL *
                                  (static_cast<std::uint64_t>(index) + 1)));
  }

  std::vector<Link> links_;
  std::uint64_t link_seed_ = 1;
};

/// Exactly the seed fabric: an ideal non-blocking switch with one uniform
/// one-way latency and no interior links. The default topology; required
/// to reproduce pre-refactor runs bit-identically.
class IdealSwitch final : public Topology {
 public:
  explicit IdealSwitch(sim::Time one_way_latency) {
    path_.ingress_latency = one_way_latency;
  }

  const char* kind() const override { return "ideal_switch"; }
  void add_nic(NicId, double, double) override {}
  const Path& route(NicId, NicId) override { return path_; }
  sim::Time one_way_latency() const { return path_.ingress_latency; }

 private:
  Path path_;
};

/// Racks of NICs under non-blocking ToR switches, joined by a spine whose
/// per-rack uplink/downlink can be oversubscribed. Paths:
///   intra-rack:  NIC -> ToR -> NIC           (2 hops of propagation,
///                no interior serialization — ToRs are non-blocking)
///   inter-rack:  NIC -> ToR -> spine -> ToR -> NIC (4 hops; the message is
///                store-and-forward serialized on the source rack's uplink
///                and the destination rack's downlink)
/// Uplink capacity defaults to (sum of the rack's NIC TX bandwidth) /
/// oversubscription, so ratio 1:1 is full bisection and ratio R:1 squeezes
/// all cross-rack traffic of a rack through 1/R of its edge capacity.
class TwoTierFabric final : public Topology {
 public:
  struct Config {
    std::size_t n_racks = 2;
    /// Per-hop propagation (NIC<->ToR and ToR<->spine). Calibrate against
    /// an IdealSwitch of one-way latency L with hop_latency = L/2:
    /// intra-rack paths then cross the fabric in exactly L.
    sim::Time hop_latency = sim::microseconds(5);
    /// Spine oversubscription ratio (>= 1). 1.0 = full bisection.
    double oversubscription = 1.0;
    /// Explicit per-rack uplink capacity override (0 = derive from the
    /// rack's NIC speeds and the oversubscription ratio).
    double uplink_bandwidth_bps = 0.0;
    /// Rack of each NIC in add order. NICs beyond the vector (or all NICs
    /// when empty) are assigned round-robin: nic % n_racks.
    std::vector<int> rack_of_nic;
    /// Loss process applied independently per spine link (each rack's
    /// uplink and downlink) — e.g. Gilbert-Elliott burst loss on a flaky
    /// inter-rack cable.
    LossProcess spine_loss;
  };

  explicit TwoTierFabric(Config cfg);

  const char* kind() const override { return "two_tier"; }
  void add_nic(NicId nic, double tx_bandwidth_bps,
               double rx_bandwidth_bps) override;
  const Path& route(NicId src, NicId dst) override;
  void finalize() override {
    if (!frozen_) freeze();
  }

  int rack_of(NicId nic) const;
  std::size_t n_racks() const { return cfg_.n_racks; }
  /// Uplink/downlink of one rack (valid after the first route() call).
  LinkId uplink(int rack) const { return uplink_[static_cast<std::size_t>(rack)]; }
  LinkId downlink(int rack) const { return downlink_[static_cast<std::size_t>(rack)]; }

 private:
  void freeze();  // build links + path table from the registered NICs

  Config cfg_;
  std::vector<int> rack_of_nic_;     // resolved per registered NIC
  std::vector<double> rack_edge_bps_;  // sum of NIC TX bandwidth per rack
  std::vector<LinkId> uplink_;
  std::vector<LinkId> downlink_;
  Path intra_;                       // shared by every same-rack pair
  std::vector<Path> inter_;          // [src_rack * n_racks + dst_rack]
  bool frozen_ = false;
};

}  // namespace omr::net
