#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/tenancy.h"
#include "serve/shard_map.h"
#include "serve/traffic.h"
#include "telemetry/report.h"

namespace omr::serve {

/// Sharded parameter-server serving tier running as one custom job of a
/// multi-tenant core::Fabric (ROADMAP open item 1; PetPS-shaped): N
/// PsShard endpoints answer Zipf-skewed embedding lookups and updates
/// issued by open-loop clients, with per-shard hot-embedding caching
/// (LRU/LFU), request batching within a coalescing window, and a serial
/// CPU service model. Each shard's store is the sparse_kv shape — an
/// immutable sorted base run (every row at version 0) overlaid by a write
/// delta — so updates bump per-key versions without touching the base.
///
/// Determinism: clients issue on a fixed absolute schedule (start + i *
/// interarrival) and every cross-machine effect is a Network::send, so
/// serving runs replay byte-identically — the torture suite pins the
/// serialized fabric report across reruns.
///
/// Usage:
///   core::Fabric fabric(spec);
///   serve::ServingJob serving(serve_spec, {0, 1}, {4, 5, 6, 7});
///   fabric.add_custom_job({"serve"}, serving);
///   fabric.add_job(trainer, tensors);  // optional co-tenant
///   fabric.run();
///   const telemetry::ServeReport& r = serving.serve_report();
class ServingJob final : public core::FabricJob {
 public:
  /// Client c runs on fabric machine client_machines[c], shard s on
  /// shard_machines[s] (sizes must equal spec.n_clients / spec.n_shards).
  /// Machines may be shared with each other or with training jobs — the
  /// NIC is then FIFO-shared, like processes on one host.
  ServingJob(const core::ServeSpec& spec,
             std::vector<std::size_t> client_machines,
             std::vector<std::size_t> shard_machines,
             std::string name = "serve");
  ~ServingJob() override;

  ServingJob(const ServingJob&) = delete;
  ServingJob& operator=(const ServingJob&) = delete;

  // --- core::FabricJob -----------------------------------------------------
  void attach(net::Network& net,
              const std::vector<net::NicId>& machine_nics) override;
  std::vector<net::EndpointId> endpoints() const override;
  void kickoff() override;
  bool done() const override;
  void finalize() override;
  void fill_report(telemetry::FabricJobSummary& row,
                   telemetry::FabricReport& out) const override;

  /// Telemetry of the finished run (valid after Fabric::run()).
  const telemetry::ServeReport& serve_report() const { return report_; }

 private:
  class ClientEndpoint;
  class PsShard;
  class Controller;
  friend class ClientEndpoint;
  friend class PsShard;
  friend class Controller;

  net::EndpointId controller_ep() const;

  core::ServeSpec spec_;
  std::string name_;
  std::vector<std::size_t> client_machines_;
  std::vector<std::size_t> shard_machines_;
  ShardMap shard_map_;
  ZipfGenerator zipf_;
  net::Network* net_ = nullptr;
  std::vector<std::unique_ptr<ClientEndpoint>> clients_;
  std::vector<std::unique_ptr<PsShard>> shards_;
  std::unique_ptr<Controller> controller_;
  std::vector<net::EndpointId> shard_eps_;
  std::vector<net::EndpointId> all_eps_;
  telemetry::ServeReport report_;
  bool finalized_ = false;  // finalize() passed its conservation checks
};

}  // namespace omr::serve
