// In-process fabric: serialized handover between thread-group "nodes".
//
// Reproduces the paper's debugging deployment where several DPS kernels run
// on one host: tokens still cross the full serialization path, but the
// bytes move by function call instead of a socket.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "util/thread_annotations.hpp"

#include "net/fabric.hpp"

namespace dps {

class InprocFabric : public Fabric {
 public:
  explicit InprocFabric(size_t node_count);

  /// send() delivers synchronously, on the sender's thread, as a batch of
  /// one.
  void attach_batch(NodeId self, BatchHandler handler) override;
  void send(NodeId from, NodeId to, FrameKind kind,
            std::vector<std::byte> payload) override;
  void shutdown() override;
  uint64_t bytes_sent() const override;
  uint64_t messages_sent() const override;

 private:
  mutable Mutex mu_;
  std::vector<BatchHandler> handlers_ DPS_GUARDED_BY(mu_);
  bool down_ DPS_GUARDED_BY(mu_) = false;
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> messages_{0};
};

}  // namespace dps
