// Fabric: the node-to-node message transport of a cluster run.
//
// A cluster's nodes exchange framed messages (token envelopes, flow-control
// acks) through a Fabric. Every transport carries the same frames, so they
// are interchangeable under the engine:
//
//  * InprocFabric — nodes are thread groups of one process; frames are
//    handed over in memory but only *after* full serialization, exactly
//    like the paper's several-kernels-on-one-host debugging mode, which
//    "enforces the use of the networking code ... although the application
//    is running within a single computer".
//  * TcpFabric (net/tcp_transport.hpp) — real TCP sockets on localhost,
//    with lazy connection establishment as in the paper's runtime.
//  * ShmFabric (net/shm_fabric.hpp) — POSIX shared-memory rings between
//    kernels on one host.
//  * SimFabric (sim/link.hpp) — deliveries modeled on a virtual clock with
//    per-NIC bandwidth/latency, reproducing the paper's Gigabit Ethernet.
//  * ProcessFabric (kernel/kernel.hpp) — one node per OS process, for the
//    multi-process SPMD runtime.
//
// Decorators stack on any of them: ChaosFabric injects faults, and
// ReliableFabric (net/reliable_fabric.hpp) restores exactly-once delivery.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "net/framing.hpp"
#include "serial/buffer_pool.hpp"

namespace dps {

/// One delivered inter-node message.
struct NodeMessage {
  NodeId from = 0;
  FrameKind kind = FrameKind::kEnvelope;
  std::vector<std::byte> payload;
};

class Fabric {
 public:
  /// Delivery callback: every message decoded from one receive chunk, in
  /// arrival order (a lone frame is a batch of one). Handlers MUST be
  /// non-blocking (enqueue + notify only): under SimFabric they run on the
  /// scheduler thread, and a blocking handler would freeze the virtual
  /// clock. Handlers MUST NOT throw: they run on transport threads (TCP
  /// receivers, the shm rx thread) that have nobody to report to, or inside
  /// the sender's own send() (InprocFabric).
  using BatchHandler = std::function<void(std::vector<NodeMessage>&&)>;

  /// Per-message callback accepted by the attach() convenience adapter.
  using Handler = std::function<void(NodeMessage&&)>;

  virtual ~Fabric() = default;

  /// Registers node `self`'s delivery handler. Must complete for every
  /// node before any traffic flows to it; a later call replaces it.
  virtual void attach_batch(NodeId self, BatchHandler handler) = 0;

  /// attach_batch for callers that want one callback per message: the
  /// batch is unrolled in order. Same contract as attach_batch, which also
  /// replaces a handler registered here.
  void attach(NodeId self, Handler handler) {
    attach_batch(self,
                 [h = std::move(handler)](std::vector<NodeMessage>&& msgs) {
                   for (NodeMessage& m : msgs) h(std::move(m));
                 });
  }

  /// Sends one message; thread safe; may block (TCP backpressure).
  virtual void send(NodeId from, NodeId to, FrameKind kind,
                    std::vector<std::byte> payload) = 0;

  /// Sends one message whose wire payload is `prefix` followed by `body`.
  /// The body is immutable and may be shared by many concurrent sends —
  /// the multicast hot path: one encode, K transmits — or be the large
  /// Buffer<T> tail of a unicast token, sent by reference. The default
  /// copies both segments once into one pooled payload; TcpFabric
  /// overrides it to point an extra writev iovec at the body, ShmFabric to
  /// write both straight into the ring, and ChaosFabric/ReliableFabric to
  /// keep the body until the frame is delivered or acknowledged.
  virtual void send_shared(NodeId from, NodeId to, FrameKind kind,
                           std::vector<std::byte> prefix, SharedPayload body) {
    BufferPool& pool = BufferPool::instance();
    std::vector<std::byte> payload =
        pool.acquire_sized(prefix.size() + body.size());
    if (!prefix.empty()) {
      std::memcpy(payload.data(), prefix.data(), prefix.size());
    }
    if (!body.empty()) {
      std::memcpy(payload.data() + prefix.size(), body.data(), body.size());
    }
    pool.release(std::move(prefix));
    send(from, to, kind, std::move(payload));
  }

  /// Stops delivery and releases transport resources. Idempotent.
  virtual void shutdown() = 0;

  // Traffic statistics (frame headers included), for benchmarks.
  virtual uint64_t bytes_sent() const = 0;
  virtual uint64_t messages_sent() const = 0;
};

}  // namespace dps
