#include "sim/link.hpp"

#include <atomic>
#include <vector>

#include "util/error.hpp"
#include "util/thread_annotations.hpp"

namespace dps {

struct SimFabric::Impl {
  ExecDomain& domain;
  LinkModel link;
  Mutex mu;
  std::vector<BatchHandler> handlers DPS_GUARDED_BY(mu);
  // next instant a node's TX/RX NIC is idle
  std::vector<double> tx_free DPS_GUARDED_BY(mu);
  std::vector<double> rx_free DPS_GUARDED_BY(mu);
  bool down DPS_GUARDED_BY(mu) = false;
  std::atomic<uint64_t> bytes{0};
  std::atomic<uint64_t> messages{0};

  Impl(size_t n, ExecDomain& d, LinkModel l)
      : domain(d), link(l), handlers(n), tx_free(n, 0), rx_free(n, 0) {}
};

SimFabric::SimFabric(size_t node_count, ExecDomain& domain, LinkModel link)
    : impl_(std::make_unique<Impl>(node_count, domain, link)) {}

SimFabric::~SimFabric() = default;

void SimFabric::attach_batch(NodeId self, BatchHandler handler) {
  MutexLock lock(impl_->mu);
  DPS_CHECK(self < impl_->handlers.size(), "attach_batch: node out of range");
  impl_->handlers[self] = std::move(handler);
}

void SimFabric::send(NodeId from, NodeId to, FrameKind kind,
                     std::vector<std::byte> payload) {
  Frame f;
  f.payload = std::move(payload);
  const size_t wire = frame_wire_size(f);
  const double now = impl_->domain.now();

  BatchHandler handler;
  double arrival = 0;
  {
    MutexLock lock(impl_->mu);
    if (impl_->down) return;
    if (to >= impl_->handlers.size() || !impl_->handlers[to]) {
      raise(Errc::kNotFound,
            "no node " + std::to_string(to) + " attached to sim fabric");
    }
    handler = impl_->handlers[to];
    // A NIC whose timeline is still busy means this frame queued behind
    // others: the transport coalesces it into the in-flight writev batch
    // (TX) or the same received chunk (RX), so it pays the reduced burst
    // cost instead of the full per-message overhead. TX and RX are judged
    // independently — a burst can form at either end.
    const bool tx_burst = impl_->tx_free[from] > now;
    const double tx_occ = tx_burst ? impl_->link.occupancy_burst(wire)
                                   : impl_->link.occupancy(wire);
    const double tx_start = std::max(now, impl_->tx_free[from]);
    impl_->tx_free[from] = tx_start + tx_occ;
    const double rx_earliest = tx_start + impl_->link.latency_s;
    const bool rx_burst = impl_->rx_free[to] > rx_earliest;
    const double rx_occ = rx_burst ? impl_->link.occupancy_burst(wire)
                                   : impl_->link.occupancy(wire);
    const double rx_start = std::max(rx_earliest, impl_->rx_free[to]);
    impl_->rx_free[to] = rx_start + rx_occ;
    arrival = rx_start + rx_occ;
  }
  impl_->messages.fetch_add(1, std::memory_order_relaxed);
  impl_->bytes.fetch_add(wire, std::memory_order_relaxed);

  auto batch = std::make_shared<std::vector<NodeMessage>>();
  batch->push_back(NodeMessage{from, kind, std::move(f.payload)});
  impl_->domain.post_event(arrival - now, [handler, batch] {
    handler(std::move(*batch));
  });
}

void SimFabric::shutdown() {
  MutexLock lock(impl_->mu);
  impl_->down = true;
}

uint64_t SimFabric::bytes_sent() const {
  return impl_->bytes.load(std::memory_order_relaxed);
}
uint64_t SimFabric::messages_sent() const {
  return impl_->messages.load(std::memory_order_relaxed);
}

const LinkModel& SimFabric::link() const { return impl_->link; }

}  // namespace dps
