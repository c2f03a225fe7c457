// ChaosFabric: deterministic fault injection around any Fabric.
//
// Wraps an inner fabric (inproc, TCP, ...) and perturbs its traffic
// according to a FaultPlan: per-link frame drop, duplication, delay-based
// reorder, link partitions, and whole-node kill. Faults are decided by a
// per-link PRNG seeded from the plan, so a failing run reproduces from its
// seed. ReliableFabric (net/reliable_fabric.hpp, docs/FAULT_TOLERANCE.md),
// which the cluster stacks on top of this decorator, is what makes
// split–merge calls survive these faults; ChaosFabric is the adversary the
// tests exercise it against.
//
// Wall-clock only: delayed frames are re-sent by a timer thread, which
// would freeze a SimDomain's virtual clock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <queue>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "net/fabric.hpp"
#include "util/thread_annotations.hpp"

namespace dps {

/// Fault parameters of one directed link (frames from -> to).
struct LinkFaults {
  double drop = 0;             ///< per-frame drop probability [0,1]
  double duplicate = 0;        ///< per-frame duplication probability [0,1]
  uint32_t duplicate_every = 0;  ///< deterministic: duplicate every Nth
                                 ///< frame on the link (0 = off)
  double delay_min = 0;        ///< delivery delay lower bound, seconds
  double delay_max = 0;        ///< upper bound; > 0 causes reordering
};

/// Cluster-wide fault schedule. `all` applies to every link unless a
/// per-link override is present in `links`.
struct FaultPlan {
  uint64_t seed = 0x5eed;
  LinkFaults all;
  std::map<std::pair<NodeId, NodeId>, LinkFaults> links;

  const LinkFaults& for_link(NodeId from, NodeId to) const {
    auto it = links.find({from, to});
    return it == links.end() ? all : it->second;
  }
};

class ChaosFabric : public Fabric {
 public:
  ChaosFabric(std::shared_ptr<Fabric> inner, FaultPlan plan);
  ~ChaosFabric() override;

  /// Faults are injected on the send side; delivery passes straight
  /// through to the inner fabric.
  void attach_batch(NodeId self, BatchHandler handler) override;
  void send(NodeId from, NodeId to, FrameKind kind,
            std::vector<std::byte> payload) override;
  /// Frames with a shared body (multicast, or a large token sent by
  /// reference) draw per-link faults exactly like others; a duplicate
  /// copies only the owned prefix and re-shares the body, and a delayed
  /// frame keeps it until it is forwarded.
  void send_shared(NodeId from, NodeId to, FrameKind kind,
                   std::vector<std::byte> prefix, SharedPayload body) override;
  void shutdown() override;
  uint64_t bytes_sent() const override { return inner_->bytes_sent(); }
  uint64_t messages_sent() const override { return inner_->messages_sent(); }

  /// Node failure: every frame from or to `node` is dropped from now on.
  /// The node's process state survives (this is a network death, like a
  /// pulled cable); heartbeat detection declares it dead.
  void kill_node(NodeId node);

  /// Cuts both directions between a and b until heal() is called.
  void partition(NodeId a, NodeId b);
  void heal(NodeId a, NodeId b);

  // Injection statistics, for test assertions.
  uint64_t frames_dropped() const { return dropped_.load(); }
  uint64_t frames_duplicated() const { return duplicated_.load(); }
  uint64_t frames_delayed() const { return delayed_.load(); }

  /// Drops of one frame kind only (e.g. FrameKind::kReliable). Every
  /// dropped kReliable data frame forces the sender's reliability layer to
  /// retransmit it, so tests can assert
  ///   sum(retransmissions) >= frames_dropped(FrameKind::kReliable).
  uint64_t frames_dropped(FrameKind kind) const {
    return dropped_by_kind_[kind_index(kind)].load();
  }

 private:
  struct LinkState {
    Mutex mu;
    std::mt19937_64 rng DPS_GUARDED_BY(mu);
    uint64_t frame_count DPS_GUARDED_BY(mu) = 0;
  };
  struct Delayed {
    double due;
    uint64_t order;  // tie-break: preserves injection order at equal due
    NodeId from, to;
    FrameKind kind;
    std::vector<std::byte> payload;
    SharedPayload shared;  ///< optional shared body, kept until delivery
    bool operator>(const Delayed& o) const {
      return due != o.due ? due > o.due : order > o.order;
    }
  };

  LinkState& link(NodeId from, NodeId to);
  bool severed(NodeId from, NodeId to) const DPS_REQUIRES(mu_);
  /// Shared fault pipeline for send() and send_shared(); `body` may be null.
  void inject(NodeId from, NodeId to, FrameKind kind,
              std::vector<std::byte> prefix, SharedPayload body);
  /// Hands a (possibly shared-body) frame to the inner fabric.
  void forward(NodeId from, NodeId to, FrameKind kind,
               std::vector<std::byte> prefix, SharedPayload body);
  void enqueue_delayed(Delayed d);
  void timer_loop();
  void note_drop(FrameKind kind, NodeId from, NodeId to, size_t bytes);

  static constexpr size_t kKindSlots = 16;
  static size_t kind_index(FrameKind kind) {
    const auto k = static_cast<size_t>(kind);
    return k < kKindSlots ? k : 0;
  }

  std::shared_ptr<Fabric> inner_;
  FaultPlan plan_;

  mutable Mutex mu_;
  std::map<std::pair<NodeId, NodeId>, std::unique_ptr<LinkState>> links_
      DPS_GUARDED_BY(mu_);
  std::set<NodeId> killed_ DPS_GUARDED_BY(mu_);
  /// Normalized a < b.
  std::set<std::pair<NodeId, NodeId>> partitions_ DPS_GUARDED_BY(mu_);
  bool down_ DPS_GUARDED_BY(mu_) = false;

  Mutex timer_mu_;
  CondVar timer_cv_;
  std::priority_queue<Delayed, std::vector<Delayed>, std::greater<Delayed>>
      delayed_queue_ DPS_GUARDED_BY(timer_mu_);
  uint64_t delayed_order_ DPS_GUARDED_BY(timer_mu_) = 0;
  bool timer_stop_ DPS_GUARDED_BY(timer_mu_) = false;
  std::thread timer_;

  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> duplicated_{0};
  std::atomic<uint64_t> delayed_{0};
  std::atomic<uint64_t> dropped_by_kind_[kKindSlots] = {};
};

}  // namespace dps
