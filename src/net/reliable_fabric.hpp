// ReliableFabric: exactly-once delivery and failure detection over any Fabric.
//
// A decorator composed the same way as ChaosFabric: the cluster wraps it
// around its transport when ClusterConfig::fault is enabled on a wall-clock
// cluster (docs/FAULT_TOLERANCE.md). With `reliable` set, every frame sent
// through it travels as a kReliable frame
//
//   u64 seq | u64 cumulative ack | u16 inner kind | inner payload
//
// sequenced per directed link and retained until the peer's cumulative ack
// covers it; overdue frames are retransmitted with exponential backoff. The
// receive side drops duplicates (re-acking them) and hands every new frame
// up unwrapped, at once, even out of order. Pure kAck frames and heartbeats
// carry acks when there is no reverse traffic; every other frame kind passes
// through untouched.
//
// The decorator owns no thread: the cluster's failure monitor drives tick(),
// send_heartbeats() and stale_peers(), and calls peer_down() for a node it
// declares dead. A node endpoint's lock is never held across an inner send
// or an upward delivery: InprocFabric delivers synchronously on the sending
// thread and re-enters this object for the peer's ack.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "net/fabric.hpp"
#include "util/thread_annotations.hpp"

namespace dps {

/// Fault-tolerance knobs (docs/FAULT_TOLERANCE.md). Both features are
/// wall-clock mechanisms and are ignored (with a warning) under virtual
/// time. Defaults are tuned for loopback/in-process latencies.
struct FaultToleranceConfig {
  /// Reliable envelope delivery: sequence numbers per (src,dst) link,
  /// cumulative acks piggybacked on traffic, retransmission with
  /// exponential backoff + jitter, duplicate suppression on receive.
  bool reliable = false;
  /// Heartbeat failure detection: nodes beacon each other; a silent node
  /// is declared dead and in-flight graph calls fail with Error(kNodeDown).
  bool heartbeat = false;

  double heartbeat_period = 0.02;   ///< seconds between beacons
  int heartbeat_miss = 5;           ///< silent periods before declared dead
  double rto_initial = 0.005;       ///< first retransmit timeout, seconds
  double rto_max = 0.2;             ///< backoff cap, seconds
  int max_retries = 12;             ///< retry budget before peer is suspect
  double tick_interval = 0.002;     ///< monitor thread granularity, seconds

  bool enabled() const { return reliable || heartbeat; }
};

class ReliableFabric : public Fabric {
 public:
  /// Every link's liveness clock starts now: the grace period before the
  /// first heartbeat is judged.
  ReliableFabric(std::shared_ptr<Fabric> inner, size_t node_count,
                 FaultToleranceConfig config);
  ~ReliableFabric() override;

  void attach_batch(NodeId self, BatchHandler handler) override;
  void send(NodeId from, NodeId to, FrameKind kind,
            std::vector<std::byte> payload) override;
  /// Only the owned prefix is copied into each (re)transmit's header; the
  /// shared body rides every transmit untouched.
  void send_shared(NodeId from, NodeId to, FrameKind kind,
                   std::vector<std::byte> prefix, SharedPayload body) override;
  /// Stops the inner fabric's delivery; link state lives until destruction.
  void shutdown() override;
  uint64_t bytes_sent() const override { return inner_->bytes_sent(); }
  uint64_t messages_sent() const override { return inner_->messages_sent(); }

  /// Retransmits node `self`'s overdue frames and flushes its delayed
  /// cumulative acks. Returns the peers whose retry budget is exhausted.
  /// `now` is mono_seconds().
  std::vector<NodeId> tick(NodeId self, double now);

  /// Beacons every live peer of `self` with that link's cumulative ack.
  void send_heartbeats(NodeId self);

  /// Peers `self` has not heard from for more than `threshold` seconds.
  std::vector<NodeId> stale_peers(NodeId self, double now, double threshold);

  /// `node` was declared dead: every link to it becomes a black hole and
  /// its retained frames are dropped (their buffers return to the pool).
  void peer_down(NodeId node);

  /// Frames received more than once and dropped.
  uint64_t duplicates_suppressed() const {
    return dup_suppressed_.load(std::memory_order_relaxed);
  }
  /// Frames re-sent by tick().
  uint64_t retransmissions() const {
    return retransmissions_.load(std::memory_order_relaxed);
  }
  /// Sent frames not yet covered by a cumulative ack, over all links.
  size_t unacked_frames() const;

 private:
  /// A sent frame kept for retransmission until acknowledged.
  struct Pending {
    FrameKind kind = FrameKind::kEnvelope;
    std::vector<std::byte> prefix;  ///< owned head of the payload, or empty
    SharedPayload body;             ///< the payload bytes, retained once
    double next_due = 0;            ///< wall-clock retransmit deadline
    double rto = 0;                 ///< current backoff interval
    int retries = 0;
  };

  /// One direction pair between an endpoint and a peer.
  struct Link {
    // --- sender side ---
    uint64_t next_seq = 1;                ///< next sequence number to assign
    std::map<uint64_t, Pending> unacked;  ///< sent, not yet acknowledged
    // --- receiver side ---
    uint64_t rx_contig = 0;       ///< highest seq with all predecessors seen
    std::set<uint64_t> rx_above;  ///< received out of order, > rx_contig
    uint64_t acked_sent = 0;      ///< highest cumulative ack transmitted
    bool ack_pending = false;     ///< delivery since the last ack sent
    // --- liveness ---
    double last_heard = 0;  ///< wall clock of the last frame from the peer
    bool dead = false;      ///< peer declared down: the link is a black hole
  };

  /// One node's side of every link, plus its upward delivery handler.
  struct Endpoint {
    Mutex mu;
    BatchHandler handler DPS_GUARDED_BY(mu);
    std::vector<Link> links DPS_GUARDED_BY(mu);  ///< indexed by peer
  };

  /// What the receive side does with one arriving frame.
  enum class Verdict { kDeliver, kUnwrap, kConsumed };

  /// An ack-carrying control frame queued for sending after unlock.
  struct Control {
    NodeId peer;
    uint64_t ack;
  };

  Endpoint& endpoint(NodeId node);
  void transmit(NodeId from, NodeId to, FrameKind kind,
                std::vector<std::byte> prefix, SharedPayload body);
  /// Inner send of `bytes` (+ `body` when set); a refused send is a lost
  /// frame, which the retransmit timer or the next beacon covers.
  void ship(NodeId from, NodeId to, FrameKind kind,
            std::vector<std::byte> bytes, SharedPayload body);
  void on_batch(NodeId self, std::vector<NodeMessage>&& msgs);
  /// Seq/ack processing of one arriving frame. A malformed reliability
  /// frame is rewritten in place into a kPeerDown report from its sender.
  Verdict receive_locked(NodeId self, Endpoint& ep, NodeMessage& msg,
                         double now, std::vector<Control>* reacks,
                         std::vector<Pending>* retired) DPS_REQUIRES(ep.mu);
  /// Moves every frame of `l` that `ack` covers into `retired`, for the
  /// caller to destroy after it releases the lock: a body may hold a token,
  /// whose destructor must not run under ep.mu.
  static void retire_locked(Link& l, uint64_t ack,
                            std::vector<Pending>* retired);
  /// The cumulative ack to piggyback on a frame leaving on `l` now.
  static uint64_t piggyback_locked(Link& l);

  std::shared_ptr<Fabric> inner_;
  const FaultToleranceConfig config_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;  ///< indexed by node
  std::atomic<uint64_t> dup_suppressed_{0};
  std::atomic<uint64_t> retransmissions_{0};
};

}  // namespace dps
