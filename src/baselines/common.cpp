#include "baselines/common.h"

#include <memory>

namespace omr::baselines::detail {

sim::Time exchange_step_time(std::size_t payload_bytes,
                             const BaselineConfig& cfg) {
  return cfg.one_way_latency +
         sim::from_seconds(static_cast<double>(payload_bytes + kHeaderBytes) *
                           8.0 / cfg.bandwidth_bps) *
             2;
}

void send_chunked(net::Network& net, net::EndpointId src, net::EndpointId dst,
                  std::size_t total, const BaselineConfig& cfg) {
  const std::size_t chunk = cfg.chunk_elements * 4;
  std::size_t sent = 0;
  do {
    auto m = std::make_shared<ByteChunk>();
    m->bytes = std::min(chunk, total - sent);
    sent += m->bytes;
    m->last_of_flow = sent >= total;
    net.send(src, dst, std::move(m));
  } while (sent < total);
}

FlatFabric::FlatFabric(const BaselineConfig& cfg)
    : bandwidth_bps_(cfg.bandwidth_bps),
      network_(simulator_, cfg.one_way_latency) {}

net::EndpointId FlatFabric::attach(FlatNode& node, net::NicId nic) {
  node.self_ = network_.attach(&node, nic);
  return node.self_;
}

net::EndpointId FlatFabric::attach(FlatNode& node) {
  return attach(node, network_.add_nic({bandwidth_bps_, bandwidth_bps_}));
}

namespace {

/// One rank of an all-to-all: sends its row of the byte matrix and
/// finishes once the last chunk of every peer's flow has arrived.
class ExchangeNode final : public FlatNode {
 public:
  ExchangeNode(net::Network& net, std::size_t rank)
      : FlatNode(net), rank_(rank) {}

  void start(const std::vector<net::EndpointId>& peers,
             const std::vector<std::size_t>& bytes, const BaselineConfig& cfg) {
    flows_expected_ = peers.size() - 1;
    for (std::size_t p = 0; p < peers.size(); ++p) {
      if (p != rank_) send_chunked(net_, self_, peers[p], bytes[p], cfg);
    }
    if (flows_expected_ == 0) finish();
  }

  void on_message(net::EndpointId /*from*/,
                  const net::MessagePtr& msg) override {
    const auto* c = net::message_cast<ByteChunk>(msg.get());
    if (c == nullptr) throw std::logic_error("unexpected exchange message");
    if (c->last_of_flow && --flows_expected_ == 0) finish();
  }

 private:
  std::size_t rank_;
  std::size_t flows_expected_ = 0;
};

}  // namespace

BaselineStats all_to_all_bytes(
    const std::vector<std::vector<std::size_t>>& bytes_matrix,
    const BaselineConfig& cfg) {
  FlatFabric fabric(cfg);
  std::vector<std::unique_ptr<ExchangeNode>> nodes;
  std::vector<net::EndpointId> eps;
  for (std::size_t r = 0; r < bytes_matrix.size(); ++r) {
    nodes.push_back(std::make_unique<ExchangeNode>(fabric.network(), r));
    eps.push_back(fabric.attach(*nodes.back()));
  }
  for (std::size_t r = 0; r < nodes.size(); ++r) {
    nodes[r]->start(eps, bytes_matrix[r], cfg);
  }
  return fabric.run(nodes, "all-to-all");
}

}  // namespace omr::baselines::detail
