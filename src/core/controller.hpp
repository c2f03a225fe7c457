// Controller: the per-node execution engine.
//
// "At the heart of the DPS library is the Controller object, instantiated
// in each node and responsible for sequencing within each node the program
// execution according to the flow graphs and thread collections
// instantiated by the application." (paper, section 3)
//
// The controller owns this node's engine workers (one OS thread + mailbox
// per DPS thread mapped here), dispatches arriving envelopes to operation
// executions, implements merge/stream context collection, tracks the
// split–merge flow-control accounts anchored on this node, and moves
// envelopes to other nodes through the cluster fabric.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/thread_annotations.hpp"

#include "core/envelope.hpp"
#include "core/flowgraph.hpp"
#include "core/mcast.hpp"
#include "core/operation.hpp"
#include "core/thread.hpp"
#include "net/fabric.hpp"

namespace dps {

class Cluster;
class ThreadCollectionBase;

class Controller {
 public:
  Controller(Cluster& cluster, NodeId self);
  ~Controller();
  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  NodeId self() const { return self_; }

  /// Spawns the engine worker for thread `index` of `collection` (whose
  /// home is this node): user Thread instance + mailbox + OS thread.
  void spawn_worker(ThreadCollectionBase& collection, ThreadIndex index,
                    const detail::ThreadTypeInfo& type);

  /// Routes an envelope whose destination vertex is set: applies the
  /// vertex's routing function, resolves the target thread's home node, and
  /// delivers locally or through the fabric. Also the entry point used by
  /// Flowgraph::call (from the application's home node).
  void route_and_send(const Flowgraph& graph, Envelope env);

  /// Delivers an already-routed envelope (collection/thread set).
  void send(Envelope env);

  /// The fabric delivery handler (non-blocking: enqueue + notify only;
  /// never throws). Every frame decoded from one receive chunk arrives
  /// together, so envelopes bound for the same worker cost one inbox append
  /// + one notify for the whole chunk. A frame that fails to decode is
  /// handled like a kPeerDown report from its sender; the rest of the batch
  /// is still delivered.
  void on_fabric_batch(std::vector<NodeMessage>&& msgs);

  /// Stops and joins this node's workers. Idempotent.
  void shutdown();

  /// Number of envelopes dispatched on this node (tests/benchmarks).
  uint64_t dispatched() const { return dispatched_.load(std::memory_order_relaxed); }

  // --- service-mesh admission control (docs/SERVICE_MESH.md) ----------------
  /// Always-on per-tenant admission counters. The dps.svc.{admitted,shed,
  /// deadline_expired,inflight} metrics mirror them process-wide, summed
  /// over tenants and nodes; benches and tests assert on these.
  struct SvcStats {
    uint64_t admitted = 0;          ///< calls that passed admission
    uint64_t shed = 0;              ///< calls refused with kBackpressure
    uint64_t deadline_expired = 0;  ///< calls retired by their deadline
    uint32_t inflight = 0;          ///< currently admitted calls
    uint32_t peak_inflight = 0;     ///< high-water mark of inflight
  };

  /// Admission check for one graph call of `tenant` targeting `target`:
  /// sheds with Error(kBackpressure) — never blocks, never queues — when
  /// the tenant's in-flight budget is exhausted or the target's entry
  /// collection sits above the tenant's queue-depth high-water mark.
  /// On success the tenant holds one in-flight slot until retire_call.
  void admit_call(TenantId tenant, const Flowgraph& target);

  /// Returns one admission slot. Exactly one retire per admitted call —
  /// normal completion, node-down failure and deadline expiry all funnel
  /// through Cluster::retire_admission.
  void retire_call(TenantId tenant, bool deadline_expired);

  SvcStats svc_stats(TenantId tenant) const;

  /// Flow-control window for `tenant`'s split/stream contexts: the
  /// tenant's configured window, or the cluster-wide default.
  uint32_t tenant_window(TenantId tenant) const;

  /// Live flow-control accounts anchored on this node (leak regression
  /// tests: must drain to zero after calls finish or fail).
  size_t flow_account_count() const;

  /// Checkpoint support (core/checkpoint.hpp): appends one record per
  /// Checkpointable worker of this node; restores one worker's state. The
  /// schedule must be quiescent.
  void checkpoint_workers(Writer& w);
  void restore_worker(CollectionId collection, ThreadIndex index, Reader& r);

  /// Unblocks every flow waiter (node death / shutdown) and reaps the
  /// accounts whose splits already finished. After a node death no worker
  /// may block on a window that can never refill: poisoned accounts are
  /// reaped even with credits outstanding — the acks that would return them
  /// died with the peer (the window-leak hazard; regression-tested in
  /// tests/service_mesh_test.cpp).
  void poison_flow_accounts();

  // --- multicast collectives (docs/PERFORMANCE.md) --------------------------
  /// Envelope bodies encoded for multicast on this node. The one-encode-
  /// K-transmit invariant is `multicast_encodes() == collectives with >= 1
  /// remote destination` while `multicast_frames_sent()` counts the actual
  /// kMcastEnvelope transmits — always-on, so tests can assert it with the
  /// recorder off (tests/core_engine_test.cpp).
  uint64_t multicast_encodes() const {
    return mcast_encodes_.load(std::memory_order_relaxed);
  }
  /// kMcastEnvelope frames shipped from this node: one per destination
  /// node (and flow-window chunk) of each collective.
  uint64_t multicast_frames_sent() const {
    return mcast_frames_.load(std::memory_order_relaxed);
  }

 private:
  struct Worker;
  struct FlowAccount;
  class ExecCtx;
  class DeliveryBatch;

  // Engine internals.
  void worker_loop(Worker& w);
  /// Swaps the worker's inbox out under its lock and indexes every drained
  /// envelope into the worker-private run queue. Must run on the worker's
  /// own thread.
  void drain_inbox(Worker& w);
  void dispatch(Worker& w, Envelope env);
  void dispatch_graph_call(Worker& w, Envelope env);
  void continue_graph_call(AppId app, GraphId graph, VertexId vertex,
                           std::vector<SplitFrame> frames, CallId call,
                           NodeId reply_node, TenantId tenant,
                           Ptr<Token> result);
  void deliver_local(Envelope env);
  void send_reply(Envelope env);
  Worker& worker(CollectionId collection, ThreadIndex index);
  bool starts_collection(const Envelope& env) const;

  // Flow control (accounts anchored at this node for splits running here).
  ContextId new_context_id();
  void create_flow_account(ContextId ctx, uint32_t window);
  /// Blocks until a window slot is free. `min_window` floors the effective
  /// window: a collective passes one more than the credits its execution
  /// already holds, so it can never park its own worker waiting for
  /// releases that only a merge colocated on that worker could produce.
  void flow_acquire(ContextId ctx, uint32_t min_window = 0);
  /// Split done; erase when drained — or immediately when poisoned, since
  /// a poisoned account's outstanding credits can never return.
  void finish_flow_account(ContextId ctx);
  /// Returns `n` credits to the local account `ctx`; a finished account is
  /// erased once its last credit is back.
  void apply_flow_release(ContextId ctx, uint32_t n);
  /// Returns `n` consumed-token credits to the split's flow account —
  /// locally, or as one batched kFlowAck frame (ExecCtx coalesces).
  void send_flow_ack(const SplitFrame& frame, uint32_t n);

  /// The single exit point for engine frames: ships `payload` (followed
  /// by the shared `body`, when set) through the cluster fabric.
  void fabric_send(NodeId target, FrameKind kind,
                   std::vector<std::byte> payload, SharedPayload body = {});
  /// Ships one kMcastEnvelope frame listing `n` destinations on `node`;
  /// `body` is the collective's single encoded envelope.
  void mcast_ship(NodeId node, const McastEntry* entries, size_t n,
                  const SharedPayload& body);
  /// Encodes `env` (Envelope::encode_for_wire) and ships it.
  void send_envelope(NodeId target, FrameKind kind, const Envelope& env);
  /// Decodes one engine frame into `batch`; raises Error on a malformed
  /// frame. A decoded token may adopt `msg.payload`, leaving it empty.
  void handle_frame(NodeMessage& msg, DeliveryBatch& batch);
  /// kMcastEnvelope arrival from `from`, read through handle_frame's
  /// reader: decode the body once and deliver every entry, the token
  /// pointer shared between the co-located receivers. An entry for another
  /// node raises Error(kProtocol).
  void handle_mcast(NodeId from, Reader& r, DeliveryBatch& batch);
  /// A peer's channel failed or it sent a frame that does not decode:
  /// under fault tolerance the node is declared down, otherwise the reason
  /// is logged as a protocol error.
  void peer_failed(NodeId peer, const std::string& reason);

  Cluster& cluster_;
  NodeId self_;

  mutable Mutex workers_mu_;
  std::map<std::pair<CollectionId, ThreadIndex>, std::unique_ptr<Worker>>
      workers_ DPS_GUARDED_BY(workers_mu_);
  bool down_ DPS_GUARDED_BY(workers_mu_) = false;

  mutable Mutex flow_mu_;
  std::unordered_map<ContextId, std::unique_ptr<FlowAccount>> accounts_
      DPS_GUARDED_BY(flow_mu_);
  /// Set by shutdown() before it poisons the account table: a split that
  /// slips in after the poison pass (its worker was mid-dispatch when the
  /// poison flag was raised) gets an account that is born poisoned, so it
  /// unwinds at its first flow_acquire instead of leaking the account.
  bool flow_down_ DPS_GUARDED_BY(flow_mu_) = false;
  std::atomic<uint64_t> context_counter_{0};
  std::atomic<uint64_t> dispatched_{0};
  std::atomic<uint64_t> mcast_encodes_{0};
  std::atomic<uint64_t> mcast_frames_{0};

  // Service-mesh admission state: one record per tenant that ever called
  // through this node (its home). svc_mu_ is a leaf lock — taken with no
  // other controller lock held and never held across a send or a wait.
  mutable Mutex svc_mu_;
  std::unordered_map<TenantId, SvcStats> svc_ DPS_GUARDED_BY(svc_mu_);
};

}  // namespace dps
