#include "net/inproc_transport.hpp"

#include "util/error.hpp"

namespace dps {

InprocFabric::InprocFabric(size_t node_count) : handlers_(node_count) {}

void InprocFabric::attach_batch(NodeId self, BatchHandler handler) {
  MutexLock lock(mu_);
  DPS_CHECK(self < handlers_.size(), "attach_batch: node out of range");
  handlers_[self] = std::move(handler);
}

void InprocFabric::send(NodeId from, NodeId to, FrameKind kind,
                        std::vector<std::byte> payload) {
  BatchHandler handler;
  {
    MutexLock lock(mu_);
    if (down_) return;
    if (to >= handlers_.size() || !handlers_[to]) {
      raise(Errc::kNotFound,
            "no node " + std::to_string(to) + " attached to fabric");
    }
    handler = handlers_[to];  // copy so delivery runs outside mu_
  }
  messages_.fetch_add(1, std::memory_order_relaxed);
  Frame f;  // accounted like a wire frame for fair benchmark comparisons
  f.payload = std::move(payload);
  bytes_.fetch_add(frame_wire_size(f), std::memory_order_relaxed);
  std::vector<NodeMessage> batch;
  batch.push_back(NodeMessage{from, kind, std::move(f.payload)});
  handler(std::move(batch));
}

void InprocFabric::shutdown() {
  MutexLock lock(mu_);
  down_ = true;
}

uint64_t InprocFabric::bytes_sent() const {
  return bytes_.load(std::memory_order_relaxed);
}
uint64_t InprocFabric::messages_sent() const {
  return messages_.load(std::memory_order_relaxed);
}

}  // namespace dps
