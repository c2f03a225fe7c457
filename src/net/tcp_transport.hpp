// TCP fabric: real sockets between the nodes of one cluster run.
//
// Every node owns a loopback listener; a connection from node A to node B
// is opened lazily on A's first send to B (the paper's delayed connection
// strategy: "It neither launches an application on a node nor opens a
// connection (TCP socket) to another application unless a data object
// needs to reach that node"). A hello frame announces the sender's node id;
// afterwards the socket carries frames one way, read by a per-connection
// receiver thread that feeds the destination node's handler.
//
// Transmission is asynchronous and batched (docs/PERFORMANCE.md): send()
// enqueues the frame on the connection's bounded byte-budget queue and
// returns; a per-peer sender thread drains the queue and coalesces every
// pending frame into one scatter-gather writev. The producing worker only
// blocks when the queue budget is exhausted (backpressure), so compute on
// the sending node overlaps the wire time of earlier tokens. Per-link FIFO
// is preserved: one queue, one sender thread, one socket per (from, to).
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/fabric.hpp"
#include "net/socket.hpp"
#include "util/thread_annotations.hpp"

namespace dps {

class TcpFabric : public Fabric {
 public:
  explicit TcpFabric(size_t node_count);
  ~TcpFabric() override;

  /// Each receiver thread hands its node the frames decoded from one
  /// chunk as one batch.
  void attach_batch(NodeId self, BatchHandler handler) override;
  void send(NodeId from, NodeId to, FrameKind kind,
            std::vector<std::byte> payload) override;
  /// Zero-copy path for multicast bodies and large tokens sent by
  /// reference: the body rides the frame as a separate writev iovec, never
  /// copied into the per-frame payload, and the frame keeps it alive until
  /// the sender thread has written it. The sender releases only the owned
  /// prefix buffer to the BufferPool.
  void send_shared(NodeId from, NodeId to, FrameKind kind,
                   std::vector<std::byte> prefix, SharedPayload body) override;
  void shutdown() override;
  uint64_t bytes_sent() const override;
  uint64_t messages_sent() const override;

  /// Listening port of a node (exposed for tests).
  uint16_t port_of(NodeId node) const;

  /// Human-readable node names for error reports ("torn connection from
  /// node 'alpha'"); set by the cluster, optional.
  void set_node_names(std::vector<std::string> names);

  /// Shrinks the per-connection queue budget (tests exercise backpressure
  /// without queueing megabytes). Applies to connections opened afterwards.
  void set_send_queue_limit(size_t bytes) { queue_limit_ = bytes; }

 private:
  struct NodeEnd {
    TcpListener listener;
    BatchHandler handler;
    std::thread acceptor;
  };
  struct OutConn {
    NodeId from = 0;
    NodeId to = 0;
    uint16_t port = 0;  ///< the peer's listener; connected by the sender
    size_t queue_limit = 0;

    Mutex mu;
    CondVar space;  ///< producers wait here (backpressure)
    CondVar data;   ///< the sender thread waits here
    std::deque<Frame> queue DPS_GUARDED_BY(mu);  ///< pending frames, FIFO
    /// Wire bytes represented by `queue`.
    size_t queued_bytes DPS_GUARDED_BY(mu) = 0;
    /// No new sends accepted (shutdown started).
    bool closed DPS_GUARDED_BY(mu) = false;
    /// A write failed; the link is dead.
    bool failed DPS_GUARDED_BY(mu) = false;

    TcpConn conn;         ///< written only by the sender thread after setup
    std::thread sender;
  };

  void acceptor_loop(NodeId self);
  void receiver_loop(NodeId self, std::shared_ptr<TcpConn> conn);
  void sender_loop(OutConn& oc);
  OutConn& out_conn(NodeId from, NodeId to);
  /// Common enqueue path for send() and send_shared(): backpressure wait,
  /// FIFO queue append, stats, sender wakeup.
  void enqueue_frame(NodeId from, NodeId to, Frame f);
  std::string node_label(NodeId node) const DPS_REQUIRES(mu_);

  // Default per-connection queue budget: deep enough to decouple a worker
  // from the wire across many small tokens, small enough to bound memory
  // and keep backpressure meaningful for large ones.
  static constexpr size_t kDefaultQueueLimit = 4 << 20;  // 4 MB

  mutable Mutex mu_;
  /// Empty until set_node_names.
  std::vector<std::string> names_ DPS_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<NodeEnd>> nodes_;
  std::map<std::pair<NodeId, NodeId>, std::unique_ptr<OutConn>> out_
      DPS_GUARDED_BY(mu_);
  std::vector<std::thread> receivers_ DPS_GUARDED_BY(mu_);
  bool down_ DPS_GUARDED_BY(mu_) = false;
  std::atomic<size_t> queue_limit_{kDefaultQueueLimit};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> messages_{0};
};

}  // namespace dps
