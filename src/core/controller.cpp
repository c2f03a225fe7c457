#include "core/controller.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <optional>

#include <cstring>

#include "core/flow_adapt.hpp"

#include "core/application.hpp"
#include "core/checkpoint.hpp"
#include "core/cluster.hpp"
#include "core/run_queue.hpp"
#include "core/thread_collection.hpp"
#include "serial/buffer_pool.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"

#ifdef DPS_TRACE
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#endif

namespace dps {

namespace {

bool accepts(const Flowgraph::Vertex& v, uint64_t type_id) {
  for (uint64_t id : v.input_type_ids) {
    if (id == type_id) return true;
  }
  return false;
}

/// Wire prefix of a kReliable frame: [u64 seq][u64 cumulative ack][u16
/// inner kind]. Written as a placeholder at encode time and patched once
/// the link assigns the sequence number (single-buffer reliable path).
constexpr size_t kRelSeqOffset = 0;
constexpr size_t kRelAckOffset = sizeof(uint64_t);
constexpr size_t kRelHeaderSize = 2 * sizeof(uint64_t) + sizeof(uint16_t);

void patch_u64(std::vector<std::byte>& buf, size_t offset, uint64_t value) {
  std::memcpy(buf.data() + offset, &value, sizeof(value));
}

}  // namespace

// ---------------------------------------------------------------------------
// Internal structures
// ---------------------------------------------------------------------------

// Two-phase mailbox. Producers (fabric callbacks, local postToken) only
// ever touch the MPSC `inbox`: one short lock, append, notify. The owning
// worker thread drains the inbox in batch into `run`, a worker-private
// indexed structure (core/run_queue.hpp) where every dispatch decision —
// next top-level envelope, next input of the waiting merge context, next
// re-entrantly-safe envelope — is an O(1) pop instead of a scan.
//
// Envelopes of a *suspended* collection need no explicit tracking (the old
// active_contexts list): a collection only ever suspends at a merge/stream
// vertex, so its envelopes classify as collection-starting and are
// bucketed, never on the dispatchable list; the innermost running
// collection pops exactly its own (vertex, context) bucket.
struct Controller::Worker {
  CollectionId collection = 0;
  ThreadIndex index = 0;
  int collection_size = 0;
  std::string label;
  std::unique_ptr<Thread> user_thread;

  Mutex mu;
  WaitPoint wp DPS_GUARDED_BY(mu);
  std::vector<Envelope> inbox DPS_GUARDED_BY(mu);
  /// Lock-free drain hint: producers bump it after appending, the worker
  /// skips the inbox lock while it reads 0. Purely advisory — every
  /// blocking decision re-checks `inbox` under `mu`.
  std::atomic<uint32_t> inbox_count{0};
  // Atomic: the worker loop's error handlers test it without taking mu.
  std::atomic<bool> poison{false};
  std::atomic<uint32_t>* depth_slot = nullptr;

  /// Run-queue state. The owning OS thread is the only pusher and the
  /// dominant popper; with ClusterConfig::work_stealing, idle siblings
  /// additionally call run.steal_context() — the RunQueue serializes
  /// internally. drain_buf stays worker-private (thieves never drain a
  /// sibling's inbox: two interleaved drains could invert the same-context
  /// arrival order while the envelopes sit in separate swap buffers).
  RunQueue run;
  std::vector<Envelope> drain_buf;  ///< recycled swap target for drains

  /// This worker's steal domain (siblings of its collection on this node);
  /// null when work stealing is off. Set before the OS thread starts.
  StealGroup* steal_group = nullptr;
  /// Raised (under mu) by a backlogged sibling: "wake up and steal".
  std::atomic<bool> steal_hint{false};

  std::thread os_thread;
};

/// The workers of one collection on one node — the domain inside which
/// idle workers steal. Membership only grows (workers are never removed
/// before controller shutdown joins them all), and the group object is
/// heap-stable, so workers hold raw pointers.
struct Controller::StealGroup {
  Mutex mu;
  std::vector<Worker*> members DPS_GUARDED_BY(mu);
  size_t rr DPS_GUARDED_BY(mu) = 0;  ///< hint round-robin cursor
};

struct Controller::FlowAccount {
  Mutex mu;
  WaitPoint wp DPS_GUARDED_BY(mu);
  /// Window ceiling of the owning tenant, frozen at split start (per-tenant
  /// flow control, docs/SERVICE_MESH.md). With `adaptive` set this is the
  /// upper clamp; otherwise it is the static window itself.
  uint32_t window = 0;
  uint32_t in_flight DPS_GUARDED_BY(mu) = 0;
  /// Owning split/stream execution completed.
  bool finished DPS_GUARDED_BY(mu) = false;
  bool poison DPS_GUARDED_BY(mu) = false;
  /// ClusterConfig::adaptive_flow controller; null = static window.
  std::unique_ptr<AdaptiveWindow> adaptive DPS_GUARDED_BY(mu);
  /// domain().now() stamps of in-flight credits, oldest first — the RTT
  /// source of the adaptive controller (credit round trip, not frame RTT).
  std::deque<double> sends DPS_GUARDED_BY(mu);
};

/// Per-peer reliable-delivery state (docs/FAULT_TOLERANCE.md). One link per
/// (this node, peer) pair, lazily created, guarded by rel_mu_.
struct Controller::ReliableLink {
  // --- sender side ---
  struct Pending {
    FrameKind kind;
    /// The full kReliable frame ([seq|ack|kind|payload]) as first sent.
    /// Kept whole so a retransmit only patches the ack field and copies —
    /// no re-wrap, and the buffer recycles through the pool once acked.
    std::vector<std::byte> wrapped;
    /// Shared multicast body appended after `wrapped` on every transmit;
    /// null for ordinary frames. Dropped (not released) on ack — the last
    /// per-link reference frees the one encoded payload.
    SharedPayload body;
    double next_due = 0;             ///< wall-clock retransmit deadline
    double rto = 0;                  ///< current backoff interval
    int retries = 0;
  };
  uint64_t next_seq = 1;               ///< next sequence number to assign
  std::map<uint64_t, Pending> unacked;  ///< sent, not yet cumulatively acked

  // --- receiver side ---
  uint64_t rx_contig = 0;          ///< highest seq with all predecessors seen
  std::set<uint64_t> rx_above;     ///< received out of order, > rx_contig
  uint64_t acked_sent = 0;         ///< highest cumulative ack we transmitted
  bool ack_pending = false;        ///< delivery since last ack we sent

  // --- liveness ---
  double last_heard = 0;  ///< wall clock of last frame from this peer
  bool dead = false;      ///< peer declared down; link is a black hole
};

// ---------------------------------------------------------------------------
// ExecCtx: one operation execution (implements the OpServices the user's
// postToken / waitForNextToken / thread() calls run against).
// ---------------------------------------------------------------------------

class Controller::ExecCtx : public detail::OpServices {
 public:
  ExecCtx(Controller& controller, Worker& worker, const Flowgraph& graph,
          Envelope env)
      : controller_(controller),
        worker_(worker),
        graph_(graph),
        vertex_(env.vertex),
        env_(std::move(env)) {}

  void run() {
    const Flowgraph::Vertex& v = graph_.vertex(vertex_);
    kind_ = v.kind;
#ifdef DPS_TRACE
    // Identity fields for kOpStart/kOpEnd pairing (obs::TraceQuery keys
    // intervals on thread/vertex/context/seq).
    const bool t_on = obs::tracing_active();
    uint64_t t_ctx = 0, t_seq = 0, t_begin = 0;
    if (t_on) {
      t_ctx = env_.frames.empty() ? 0 : env_.frames.back().context;
      t_seq = env_.frames.empty() ? 0 : env_.frames.back().seq;
      t_begin = obs::trace_clock_ns();
      obs::Trace::instance().record(obs::EventKind::kOpStart,
                                    controller_.self(), vertex_,
                                    static_cast<uint64_t>(kind_), t_ctx,
                                    t_seq);
    }
#endif
    std::unique_ptr<Operation> op(v.op->create());
    op->services_ = this;

    switch (kind_) {
      case OpKind::kLeaf:
        out_frames_ = env_.frames;
        break;
      case OpKind::kSplit: {
        out_frames_ = env_.frames;
        split_ctx_ = controller_.new_context_id();
        controller_.create_flow_account(
            split_ctx_, controller_.tenant_window(env_.tenant));
        out_frames_.push_back(
            SplitFrame{split_ctx_, 0, 0, 0, controller_.self()});
        break;
      }
      case OpKind::kMerge:
      case OpKind::kStream: {
        DPS_CHECK(!env_.frames.empty(),
                  "merge/stream dispatched without a split frame");
        const SplitFrame first = env_.frames.back();
        merge_ctx_ = first.context;
        controller_.cluster_.claim_context(merge_ctx_, &worker_);
        claimed_ = true;
        out_frames_ = env_.frames;
        out_frames_.pop_back();
        received_ = 1;
        if (first.has_total != 0) {
          total_ = first.total;
          total_known_ = true;
        }
        // Batch flow acks: one kFlowAck per ~quarter window instead of one
        // per token keeps the remote split pipelining while cutting ack
        // frames; flush points below guarantee no credit is withheld while
        // this collection blocks. The window is the tenant's — split and
        // merge of one context always share the call's tenant.
        ack_batch_ = std::max<uint32_t>(
            1, std::min<uint32_t>(
                   controller_.tenant_window(env_.tenant) / 4, 16));
        note_consumed(first);
        if (kind_ == OpKind::kStream) {
          split_ctx_ = controller_.new_context_id();
          controller_.create_flow_account(
              split_ctx_, controller_.tenant_window(env_.tenant));
          out_frames_.push_back(
              SplitFrame{split_ctx_, 0, 0, 0, controller_.self()});
        }
        break;
      }
      case OpKind::kGraphCall:
        DPS_CHECK(false, "graph-call vertices are not user operations");
    }

    try {
      op->run_erased(env_.token.get());
    } catch (...) {
      cleanup_after_failure();
      throw;
    }

    // Post-execution contracts and bookkeeping.
    if (kind_ == OpKind::kMerge || kind_ == OpKind::kStream) {
      // Drain tokens the user did not explicitly consume so the context
      // closes and flow-control credits return.
      while (!merge_done()) {
        if (!drain_warned_) {
          DPS_DEBUG("auto-draining merge context at vertex " << vertex_);
          drain_warned_ = true;
        }
        (void)wait_next();
      }
      flush_acks();  // covers contexts whose user code never blocked
      if (claimed_) {
        unclaim();
      }
    }
    if (kind_ == OpKind::kSplit || kind_ == OpKind::kStream) {
      if (posted_ == 0) {
        controller_.finish_flow_account(split_ctx_);
        raise(Errc::kState,
              std::string(to_string(kind_)) +
                  " posted no tokens; the downstream merge would never "
                  "complete");
      }
      if (!held_.has_value()) {
        // Only reachable when user code flushTokens()'d its final post: the
        // engine then has no token left to stamp the context total into.
        controller_.finish_flow_account(split_ctx_);
        raise(Errc::kState,
              std::string(to_string(kind_)) +
                  " flushed its last token; flushTokens() must be followed "
                  "by at least one more postToken before execute returns");
      }
      held_->frames.back().has_total = 1;
      held_->frames.back().total = posted_;
      Envelope last = std::move(*held_);
      held_.reset();
      const bool routed = held_routed_;
      held_routed_ = false;
      // send_now acquires a flow credit; a shutdown/node-down poison can
      // raise out of it, and the account must be finished either way or it
      // leaks (poison passes only reap finished accounts).
      try {
        send_now(std::move(last), routed);
      } catch (...) {
        controller_.finish_flow_account(split_ctx_);
        throw;
      }
      controller_.finish_flow_account(split_ctx_);
#ifdef DPS_TRACE
      if (t_on) {
        static obs::Histogram& fanout =
            obs::Metrics::instance().histogram("dps.split.fanout");
        fanout.observe(posted_);
      }
#endif
    }
    if (kind_ == OpKind::kLeaf && posted_ != 1) {
      raise(Errc::kState, "leaf operation must post exactly one token, got " +
                              std::to_string(posted_));
    }
    if (kind_ == OpKind::kMerge && posted_ != 1) {
      raise(Errc::kState, "merge operation must post exactly one token, got " +
                              std::to_string(posted_));
    }
#ifdef DPS_TRACE
    if (t_on) {
      obs::Trace::instance().record(obs::EventKind::kOpEnd,
                                    controller_.self(), vertex_,
                                    static_cast<uint64_t>(kind_), t_ctx,
                                    t_seq);
      static obs::Histogram& op_latency =
          obs::Metrics::instance().histogram("dps.op.latency_ns");
      op_latency.observe(obs::trace_clock_ns() - t_begin);
    }
#endif
  }

  // --- OpServices -----------------------------------------------------------

  void post(Ptr<Token> token) override {
    DPS_CHECK(token.get() != nullptr, "postToken(nullptr)");
    const Flowgraph::Vertex& v = graph_.vertex(vertex_);
    const uint64_t tid = token->typeInfo().id;

    VertexId target = kNoVertex;
    for (VertexId s : v.successors) {
      if (accepts(graph_.vertex(s), tid)) {
        DPS_CHECK(target == kNoVertex,
                  "ambiguous successor (validated at build; registry drift?)");
        target = s;
      }
    }

    const bool splitish =
        kind_ == OpKind::kSplit || kind_ == OpKind::kStream;

    if (target == kNoVertex) {
      if (!v.successors.empty()) {
        raise(Errc::kUnroutable,
              "no successor of vertex " + std::to_string(vertex_) +
                  " accepts token type '" + token->typeInfo().name + "'");
      }
      // Terminal vertex: the token is the graph-call result.
      if (env_.call == 0) {
        raise(Errc::kState,
              "token posted at a terminal vertex outside a graph call");
      }
      bump_posted(splitish);
      Envelope reply;
      reply.app = env_.app;
      reply.graph = env_.graph;
      reply.vertex = kNoVertex;
      reply.call = env_.call;
      reply.call_reply_node = env_.call_reply_node;
      reply.tenant = env_.tenant;
      reply.token = std::move(token);
      controller_.send_reply(std::move(reply));
      return;
    }

    Envelope out;
    out.app = env_.app;
    out.graph = env_.graph;
    out.vertex = target;
    out.call = env_.call;
    out.call_reply_node = env_.call_reply_node;
    out.tenant = env_.tenant;
    out.frames = out_frames_;
    if (splitish) out.frames.back().seq = posted_;
    out.token = std::move(token);
    bump_posted(splitish);

    if (splitish) {
      // Held-back-last-token protocol: delay each token by one post so the
      // final one can carry the context total while the rest pipeline out
      // eagerly. Latency-sensitive sources release the hold early with
      // flushTokens().
      std::optional<Envelope> to_send;
      bool to_send_routed = false;
      if (held_.has_value()) {
        to_send = std::move(held_);
        to_send_routed = held_routed_;
      }
      held_ = std::move(out);
      held_routed_ = false;
      if (to_send.has_value()) send_now(std::move(*to_send), to_send_routed);
    } else {
      send_now(std::move(out));
    }
  }

  /// Operation::flushTokens — ship the held-back last post immediately so a
  /// paced source does not delay every token by one pacing interval. The
  /// finalization above enforces the contract that another post follows.
  void flush_posted() override {
    if (kind_ != OpKind::kSplit && kind_ != OpKind::kStream) {
      raise(Errc::kState, "flushTokens outside a split/stream operation");
    }
    flush_held();
  }

  void post_multicast(Ptr<Token> token, const std::vector<int>& threads) override {
    DPS_CHECK(token.get() != nullptr, "postTokenMulticast(nullptr)");
    if (threads.empty()) return;
    if (kind_ != OpKind::kSplit && kind_ != OpKind::kStream) {
      raise(Errc::kState,
            "postTokenMulticast outside a split/stream operation");
    }
    const Flowgraph::Vertex& v = graph_.vertex(vertex_);
    const uint64_t tid = token->typeInfo().id;
    VertexId target = kNoVertex;
    for (VertexId s : v.successors) {
      if (accepts(graph_.vertex(s), tid)) {
        DPS_CHECK(target == kNoVertex,
                  "ambiguous successor (validated at build; registry drift?)");
        target = s;
      }
    }
    if (target == kNoVertex) {
      raise(Errc::kUnroutable,
            "no successor of vertex " + std::to_string(vertex_) +
                " accepts multicast token type '" + token->typeInfo().name +
                "'");
    }
    const Flowgraph::Vertex& tv = graph_.vertex(target);
    ThreadCollectionBase* coll = tv.collection;
    for (int t : threads) {
      if (t < 0 || t >= coll->size()) {
        raise(Errc::kState, "multicast destination thread " +
                                std::to_string(t) + " outside collection '" +
                                coll->name() + "'");
      }
    }

    // FIFO with earlier posts: flush the previously held token before any
    // of the collective's envelopes leave.
    flush_held();

    // One envelope per destination shares the frame stack and the token
    // object; destinations receive it read-only. The last destination is
    // held back (pre-routed) so split finalization can stamp the total.
    Envelope base;
    base.app = env_.app;
    base.graph = env_.graph;
    base.vertex = target;
    base.call = env_.call;
    base.call_reply_node = env_.call_reply_node;
    base.tenant = env_.tenant;
    base.collection = coll->id();
    base.frames = out_frames_;
    base.token = std::move(token);

    const size_t K = threads.size();
    std::vector<McastEntry> entries;  // all but the held-back last
    entries.reserve(K - 1);
    for (size_t i = 0; i + 1 < K; ++i) {
      entries.push_back(McastEntry{coll->node_of(threads[i]),
                                   static_cast<uint32_t>(threads[i]),
                                   posted_});
      ++posted_;
    }
    {
      Envelope last;
      last.app = base.app;
      last.graph = base.graph;
      last.vertex = base.vertex;
      last.call = base.call;
      last.call_reply_node = base.call_reply_node;
      last.tenant = base.tenant;
      last.collection = base.collection;
      last.thread = static_cast<ThreadIndex>(threads.back());
      last.frames = base.frames;
      last.frames.back().seq = posted_;
      ++posted_;
      last.token = base.token;
      held_ = std::move(last);
      held_routed_ = true;  // thread chosen here, not by the route
    }
    if (entries.empty()) return;  // K == 1 collapses to a routed post

    // Partition: remote destinations grouped by node (groups ordered by
    // first appearance; entries keep posting order within their node, so
    // per-link FIFO holds). The encode happens once, before any receiver
    // can touch the token.
    std::vector<McastGroup> remote;
    size_t remote_count = 0;
    for (const McastEntry& e : entries) {
      if (e.node == controller_.self_) continue;
      McastGroup* g = nullptr;
      for (McastGroup& have : remote) {
        if (have.node == e.node) {
          g = &have;
          break;
        }
      }
      if (g == nullptr) {
        remote.push_back(McastGroup{e.node, {}});
        g = &remote.back();
      }
      g->entries.push_back(e);
      ++remote_count;
    }

    SharedPayload body;
    if (!remote.empty()) {
      // The one-encode-K-transmit payload: a single exact-size pooled
      // buffer, shared by every transmit (and retransmit) of this
      // collective, recycled into the pool when the last frame drops it.
      base.thread = 0;  // placeholders; receivers stamp their header entry
      base.frames.back().seq = 0;
      Writer w(BufferPool::instance().acquire(base.encoded_size()));
      base.encode(w);
      BufferPool::instance().note_growth(w.growth_count());
      auto* vec = new std::vector<std::byte>(w.take());
      body = SharedPayload(vec, [](const std::vector<std::byte>* p) {
        BufferPool::instance().release(
            std::move(*const_cast<std::vector<std::byte>*>(p)));
        delete p;
      });
      controller_.mcast_encodes_.fetch_add(1, std::memory_order_relaxed);
    }

#ifdef DPS_TRACE
    if (obs::tracing_active()) {
      obs::Trace::instance().record(obs::EventKind::kMcastSend,
                                    controller_.self_, target, K,
                                    remote_count,
                                    body == nullptr ? 0 : body->size());
      static obs::Counter& collectives =
          obs::Metrics::instance().counter("dps.mcast.collectives");
      collectives.inc();
    }
#endif

    // Local destinations: envelope copies sharing the token pointer.
    for (const McastEntry& e : entries) {
      if (e.node != controller_.self_) continue;
      acquire_collective_credit();
      Envelope env;
      env.app = base.app;
      env.graph = base.graph;
      env.vertex = base.vertex;
      env.call = base.call;
      env.call_reply_node = base.call_reply_node;
      env.tenant = base.tenant;
      env.collection = base.collection;
      env.thread = static_cast<ThreadIndex>(e.thread);
      env.frames = out_frames_;
      env.frames.back().seq = e.seq;
      env.token = base.token;
      controller_.send(std::move(env));
    }
    if (remote.empty()) return;

    // Remote fan-out: every destination node gets its frames straight from
    // this split. Credits are acquired here (the split end) for every
    // remote destination; the window floor above keeps the acquisition
    // live even when the window is smaller than the collective, and a node
    // group that outsizes the window ships in window-sized chunks so its
    // frames interleave with credit returns instead of bursting past the
    // receivers' advertised capacity.
    const uint32_t window =
        std::max<uint32_t>(1, controller_.tenant_window(env_.tenant));
    for (const McastGroup& g : remote) {
      for (size_t lo = 0; lo < g.entries.size(); lo += window) {
        const size_t n = std::min<size_t>(window, g.entries.size() - lo);
        for (size_t i = 0; i < n; ++i) {
          acquire_collective_credit();
        }
        controller_.mcast_ship(g.node, &g.entries[lo], n, body);
      }
    }
  }

  Ptr<Token> wait_next() override {
    DPS_CHECK(kind_ == OpKind::kMerge || kind_ == OpKind::kStream,
              "waitForNextToken outside a merge/stream operation");
    if (merge_done()) {
      flush_acks();
      return {};
    }
    // While this collection waits, the DPS thread keeps working: envelopes
    // for other operations are dispatched re-entrantly (the paper's threads
    // process their queues; a waiting merge does not idle the thread — the
    // LU graph depends on this, its stage opener collects notifications
    // that transitively need leaf work on the same column thread).
    //
    // Matching inputs of this collection are an O(1) bucket pop; the next
    // re-entrantly-safe envelope is an O(1) list pop — no scans, no
    // mid-queue erase (the old O(n²)-per-collection hot path).
    for (;;) {
      controller_.drain_inbox(worker_);
      Envelope env2;
      const bool matched =
          worker_.run.pop_context(vertex_, merge_ctx_, &env2);
      if (matched || worker_.run.pop_dispatchable(&env2)) {
        if (worker_.depth_slot != nullptr) {
          worker_.depth_slot->fetch_sub(1, std::memory_order_relaxed);
        }
#ifdef DPS_TRACE
        obs::Trace::instance().record(
            obs::EventKind::kDequeue, controller_.self(), env2.vertex,
            worker_.collection, worker_.index, worker_.run.size());
#endif
        if (matched) {
          const SplitFrame f = env2.frames.back();
          ++received_;
          if (f.has_total != 0) {
            total_ = f.total;
            total_known_ = true;
          }
          note_consumed(f);
          return env2.token;
        }
        // Nested execution of an unrelated operation on this thread. Its
        // failures must not unwind the suspended collection we service.
        try {
          controller_.dispatch(worker_, std::move(env2));
        } catch (const std::exception& e) {
          DPS_ERROR("worker " << worker_.label
                              << ": nested operation failed: " << e.what());
        }
        continue;
      }
      // Nothing runnable: every pending envelope belongs to a suspended
      // collection or would start a new one. Block on the inbox.
      MutexLock lock(worker_.mu);
      if (worker_.inbox.empty() && acks_pending_ > 0 && !worker_.poison) {
        // About to block: return every withheld flow credit first, or the
        // remote split could stall on a window this batch still owes.
        lock.unlock();
        flush_acks();
        lock.lock();
      }
      controller_.cluster_.domain().wait_until(
          worker_.wp, worker_.mu,
          [&] { return worker_.poison || !worker_.inbox.empty(); });
      if (worker_.inbox.empty()) {
        raise(Errc::kState, "worker shut down during merge collection");
      }
      // Loop re-drains under no lock and re-checks the buckets.
    }
  }

  Thread* user_thread() override { return worker_.user_thread.get(); }
  ExecDomain& domain() override { return controller_.cluster_.domain(); }
  int thread_index() const override {
    return static_cast<int>(worker_.index);
  }
  int collection_size() const override { return worker_.collection_size; }

 private:
  bool merge_done() const { return total_known_ && received_ == total_; }

  void bump_posted(bool splitish) {
    ++posted_;
    if (!splitish && posted_ > 1) {
      raise(Errc::kState,
            std::string(to_string(kind_)) + " operation posted " +
                std::to_string(posted_) + " tokens; exactly one is allowed");
    }
  }

  void unclaim() {
    controller_.cluster_.release_context(merge_ctx_);
    claimed_ = false;
  }

  /// Takes a flow credit for a collective. Scalar posts block one token at
  /// a time — that blocking IS the throttle — but a collective acquires its
  /// whole fan-out before the operation yields the worker, and a merge
  /// colocated on that worker cannot run (and release credits) until it
  /// does. Flooring the window at one past everything this execution
  /// already holds makes that self-deadlock impossible; backpressure still
  /// applies across executions, whose accounts are independent.
  void acquire_collective_credit() {
    controller_.flow_acquire(split_ctx_, credits_taken_ + 1);
    ++credits_taken_;
  }

  /// `routed == true` skips the routing function: the destination thread
  /// was already chosen (multicast held-back last token).
  /// Releases the held-back-last-token (no-op when nothing is held). Shared
  /// by flushTokens and the multicast FIFO barrier.
  void flush_held() {
    if (!held_.has_value()) return;
    Envelope prev = std::move(*held_);
    held_.reset();
    const bool routed = held_routed_;
    held_routed_ = false;
    send_now(std::move(prev), routed);
  }

  void send_now(Envelope e, bool routed = false) {
    if (kind_ == OpKind::kSplit || kind_ == OpKind::kStream) {
      if (routed) {
        // The held-back last token of a collective: its siblings' credits
        // may still be in flight, so it floors past them like they did.
        acquire_collective_credit();
      } else {
        controller_.flow_acquire(split_ctx_);
        ++credits_taken_;
      }
    }
    if (routed) {
      controller_.send(std::move(e));
    } else {
      controller_.route_and_send(graph_, std::move(e));
    }
  }

  /// This worker's inbox depth, piggybacked on flow acks as the receiver
  /// congestion signal of the adaptive window controller.
  uint32_t inbox_depth() const {
    return worker_.depth_slot == nullptr
               ? 0
               : worker_.depth_slot->load(std::memory_order_relaxed);
  }

  /// Records one consumed token of the merge/stream input context; credits
  /// to remote splits are batched and flushed by flush_acks().
  void note_consumed(const SplitFrame& frame) {
    if (frame.split_node == controller_.self_) {
      controller_.apply_flow_release(frame.context, 1, inbox_depth());
      return;
    }
    if (acks_pending_ == 0) ack_frame_ = frame;
    ++acks_pending_;
    if (acks_pending_ >= ack_batch_) flush_acks();
  }

  void flush_acks() {
    if (acks_pending_ == 0) return;
    const uint32_t n = acks_pending_;
    acks_pending_ = 0;
    // All tokens of one merge context share the split's context id and
    // node, so the whole batch collapses into one frame.
    controller_.send_flow_ack(ack_frame_, n, inbox_depth());
  }

  void cleanup_after_failure() {
    flush_acks();  // consumed tokens still owe their credits
    if (claimed_) {
      unclaim();
    }
    if (kind_ == OpKind::kSplit || kind_ == OpKind::kStream) {
      controller_.finish_flow_account(split_ctx_);
    }
  }

  Controller& controller_;
  Worker& worker_;
  const Flowgraph& graph_;
  VertexId vertex_;
  Envelope env_;

  OpKind kind_ = OpKind::kLeaf;
  std::vector<SplitFrame> out_frames_;
  uint32_t posted_ = 0;
  std::optional<Envelope> held_;
  /// The held envelope is pre-routed (multicast last destination): send it
  /// via Controller::send, not through the routing function.
  bool held_routed_ = false;
  /// Flow credits this execution has acquired (released ones included — a
  /// conservative overcount only ever raises the collective floor, never
  /// breaks it). See acquire_collective_credit().
  uint32_t credits_taken_ = 0;
  ContextId split_ctx_ = 0;  // split/stream output context
  ContextId merge_ctx_ = 0;  // merge/stream input context
  bool claimed_ = false;
  uint32_t received_ = 0;
  uint32_t total_ = 0;
  bool total_known_ = false;
  bool drain_warned_ = false;
  uint32_t acks_pending_ = 0;  ///< consumed tokens not yet acked upstream
  uint32_t ack_batch_ = 1;     ///< flush threshold (derived from the window)
  SplitFrame ack_frame_{};     ///< context/split_node of the pending batch
};

// ---------------------------------------------------------------------------
// Controller
// ---------------------------------------------------------------------------

Controller::Controller(Cluster& cluster, NodeId self)
    : cluster_(cluster), self_(self) {}

Controller::~Controller() { shutdown(); }

void Controller::spawn_worker(ThreadCollectionBase& collection,
                              ThreadIndex index,
                              const detail::ThreadTypeInfo& type) {
  auto w = std::make_unique<Worker>();
  w->collection = collection.id();
  w->index = index;
  w->collection_size = collection.size();
  w->label = collection.name() + "[" + std::to_string(index) + "]@" +
             cluster_.node_name(self_);
  w->user_thread.reset(type.create());
  w->depth_slot = collection.mutable_queue_depths() + index;
  Worker* raw = w.get();
  {
    MutexLock lock(workers_mu_);
    DPS_CHECK(!down_, "spawn_worker on a shut-down controller");
    auto key = std::make_pair(collection.id(), index);
    DPS_CHECK(workers_.find(key) == workers_.end(),
              "thread already spawned at this (collection, index)");
    if (cluster_.config().work_stealing) {
      auto& group = steal_groups_[collection.id()];
      if (!group) group = std::make_unique<StealGroup>();
      raw->steal_group = group.get();
      MutexLock glock(group->mu);
      group->members.push_back(raw);
    }
    workers_.emplace(key, std::move(w));
  }
  cluster_.domain().reserve_actor();
  raw->os_thread = std::thread([this, raw] { worker_loop(*raw); });
}

Controller::Worker& Controller::worker(CollectionId collection,
                                       ThreadIndex index) {
  MutexLock lock(workers_mu_);
  auto it = workers_.find(std::make_pair(collection, index));
  if (it == workers_.end()) {
    raise(Errc::kNotFound,
          "no thread " + std::to_string(index) + " of collection " +
              std::to_string(collection) + " on node " +
              cluster_.node_name(self_));
  }
  return *it->second;
}

void Controller::worker_loop(Worker& w) {
  ExecDomain& domain = cluster_.domain();
  domain.actor_started(w.label.c_str());
#ifdef DPS_TRACE
  if (obs::Trace::instance().enabled()) {
    obs::Trace::instance().set_thread_name(w.label);
  }
#endif
  // Under virtual time, this DPS thread competes for its node's CPUs.
  domain.bind_cpu(static_cast<int>(self_));
  const bool stealing = w.steal_group != nullptr;
  for (;;) {
    const bool drained = drain_inbox(w);
    if (stealing && drained) hint_siblings(w);
    if (w.run.empty()) {
      if (stealing && try_steal(w)) continue;
      MutexLock lock(w.mu);
      try {
        domain.wait_until(w.wp, w.mu, [&] {
          return w.poison || !w.inbox.empty() ||
                 w.steal_hint.load(std::memory_order_relaxed);
        });
      } catch (const Error&) {
        break;  // simulation stopped or stalled while idle
      }
      if (w.steal_hint.load(std::memory_order_relaxed)) {
        w.steal_hint.store(false, std::memory_order_relaxed);
        if (!w.poison || !w.inbox.empty()) continue;  // go drain + steal
      }
      if (w.inbox.empty()) break;  // poisoned and drained
      continue;  // re-drain outside the lock
    }
    Envelope env;
    w.run.pop_front(&env);
    if (w.depth_slot != nullptr) {
      w.depth_slot->fetch_sub(1, std::memory_order_relaxed);
    }
#ifdef DPS_TRACE
    obs::Trace::instance().record(obs::EventKind::kDequeue, self_, env.vertex,
                                  w.collection, w.index, w.run.size());
#endif
    try {
      dispatch(w, std::move(env));
    } catch (const Error& e) {
      if (w.poison) break;
      DPS_ERROR("worker " << w.label << ": " << e.what());
    } catch (const std::exception& e) {
      // User operation code threw: the token is lost (its context will be
      // diagnosed as stalled), the thread survives.
      if (w.poison) break;
      DPS_ERROR("worker " << w.label
                          << ": user operation threw: " << e.what());
    } catch (...) {
      if (w.poison) break;
      DPS_ERROR("worker " << w.label << ": user operation threw");
    }
  }
  domain.actor_finished();
}

bool Controller::try_steal(Worker& w) {
  StealGroup* g = w.steal_group;
  if (g == nullptr) return false;
  // Victim choice: the sibling with the deepest queue (inbox + run). The
  // depth slots are the same relaxed counters the routing load-balancers
  // read, so this costs no extra bookkeeping.
  Worker* victim = nullptr;
  uint32_t best = 0;
  {
    MutexLock lock(g->mu);
    for (Worker* m : g->members) {
      if (m == &w || m->poison.load(std::memory_order_relaxed)) continue;
      const uint32_t d = m->depth_slot != nullptr
                             ? m->depth_slot->load(std::memory_order_relaxed)
                             : 0;
      if (d > best) {
        best = d;
        victim = m;
      }
    }
  }
  if (victim == nullptr) return false;
  // Halving budget: taking at most half the victim's dispatchable backlog
  // keeps repeated steals convergent (no whole-queue ping-pong between two
  // idle workers) while still moving a meaningful chunk per operation.
  const size_t victim_disp = victim->run.dispatchable_count();
  if (victim_disp == 0) return false;
  const size_t budget = std::max<size_t>(1, victim_disp / 2);
  std::vector<Envelope> loot;
  const size_t n = victim->run.steal_context(&loot, budget);
  if (n == 0) return false;
  const auto moved = static_cast<uint32_t>(n);
  if (victim->depth_slot != nullptr) {
    victim->depth_slot->fetch_sub(moved, std::memory_order_relaxed);
  }
  if (w.depth_slot != nullptr) {
    w.depth_slot->fetch_add(moved, std::memory_order_relaxed);
  }
  steals_.fetch_add(1, std::memory_order_relaxed);
  stolen_envelopes_.fetch_add(n, std::memory_order_relaxed);
#ifdef DPS_TRACE
  if (obs::tracing_active()) {
    obs::Trace::instance().record(obs::EventKind::kSteal, self_, w.collection,
                                  victim->index, w.index, n);
    static obs::Counter& steals =
        obs::Metrics::instance().counter("dps.sched.steals");
    steals.inc();
    static obs::Counter& stolen =
        obs::Metrics::instance().counter("dps.sched.stolen_envelopes");
    stolen.inc(n);
  }
#endif
  // The loot is a FIFO prefix of one (vertex, context) run; re-pushing in
  // order makes this worker execute it in exactly that order.
  for (Envelope& env : loot) w.run.push(std::move(env), true);
  // Steal chaining: a thief that grabbed a real batch has become a victim
  // worth stealing from, and other siblings may still be parked (the
  // original victim hints one sibling per drain). Propagating the hint
  // fans the backlog out to the whole group in O(log workers) wakes.
  hint_siblings(w);
  return true;
}

void Controller::hint_siblings(Worker& w) {
  // Only worth waking anyone for a real backlog: one pending envelope is
  // this worker's next dispatch anyway.
  if (w.run.dispatchable_count() < 2) return;
  StealGroup* g = w.steal_group;
  if (g == nullptr) return;
  Worker* target = nullptr;
  {
    MutexLock lock(g->mu);
    const size_t k = g->members.size();
    for (size_t i = 0; i < k && target == nullptr; ++i) {
      Worker* m = g->members[g->rr++ % k];
      if (m == &w || m->poison.load(std::memory_order_relaxed)) continue;
      target = m;
    }
  }
  if (target == nullptr) return;
  MutexLock lock(target->mu);
  target->steal_hint.store(true, std::memory_order_relaxed);
  cluster_.domain().notify_all(target->wp);
}

bool Controller::drain_inbox(Worker& w) {
  // Cheap out: producers bump inbox_count after appending; while it reads
  // 0 the worker skips the lock entirely. A stale 0 only delays the drain
  // to the pre-block re-check under mu, so no wakeup is lost.
  if (w.inbox_count.load(std::memory_order_relaxed) == 0) return false;
  {
    MutexLock lock(w.mu);
    if (w.inbox.empty()) return false;
    w.inbox_count.store(0, std::memory_order_relaxed);
    w.drain_buf.swap(w.inbox);
  }
  // Classification is a static insert-time property: an envelope at a
  // merge/stream vertex starts (or belongs to) a collection and is
  // bucketed by (vertex, input context); everything else — leaves, splits,
  // graph calls, call replies — runs to completion and is dispatchable
  // under a waiting collection.
  for (Envelope& e : w.drain_buf) {
    const bool disp = !starts_collection(e);
    w.run.push(std::move(e), disp);
  }
  w.drain_buf.clear();
  return true;
}

void Controller::dispatch(Worker& w, Envelope env) {
  dispatched_.fetch_add(1, std::memory_order_relaxed);
#ifdef DPS_TRACE
  if (obs::tracing_active()) {
    static obs::Counter& tokens =
        obs::Metrics::instance().counter("dps.tokens.dispatched");
    tokens.inc();
  }
#endif
  Application* app = cluster_.app(env.app);
  std::shared_ptr<Flowgraph> graph = app->graph(env.graph);
  DPS_CHECK(graph != nullptr, "envelope names an unknown graph");
  if (graph->vertex(env.vertex).kind == OpKind::kGraphCall) {
    dispatch_graph_call(w, std::move(env));
    return;
  }
  ExecCtx ctx(*this, w, *graph, std::move(env));
  ctx.run();
}

void Controller::dispatch_graph_call(Worker& w, Envelope env) {
  (void)w;
  Application* app = cluster_.app(env.app);
  std::shared_ptr<Flowgraph> graph = app->graph(env.graph);
  const Flowgraph::Vertex& v = graph->vertex(env.vertex);

  // Resolve the published service; blocks until it appears (lazy start).
  const std::string value = cluster_.services().wait_for(v.service_name);
  AppId target_app_id = 0;
  GraphId target_graph_id = 0;
  if (std::sscanf(value.c_str(), "%u %u", &target_app_id, &target_graph_id) !=
      2) {
    raise(Errc::kProtocol,
          "malformed service record for '" + v.service_name + "'");
  }
  Application* target_app = cluster_.app(target_app_id);
  std::shared_ptr<Flowgraph> target = target_app->graph(target_graph_id);
  DPS_CHECK(target != nullptr, "service names an unknown graph");

  const Flowgraph::Vertex& entry = target->vertex(target->entry());
  if (!accepts(entry, env.token->typeInfo().id)) {
    raise(Errc::kTypeMismatch,
          "service '" + v.service_name + "' does not accept token type '" +
              env.token->typeInfo().name + "'");
  }

  const CallId sub = cluster_.new_call_id();
  auto state = cluster_.create_call(sub);
  state->continuation = [this, app_id = env.app, graph_id = env.graph,
                         vertex_id = env.vertex, frames = env.frames,
                         call = env.call, reply = env.call_reply_node,
                         tenant = env.tenant](Ptr<Token> result) {
    continue_graph_call(app_id, graph_id, vertex_id, frames, call, reply,
                        tenant, std::move(result));
  };

  // The sub-call rides the client's admission slot: the tenant was charged
  // at the mesh boundary (call_async / call_service_async), and the tenant
  // id keeps traveling so flow windows and scheduling stay per-tenant.
  Envelope sub_env;
  sub_env.app = target_app_id;
  sub_env.graph = target_graph_id;
  sub_env.vertex = target->entry();
  sub_env.call = sub;
  sub_env.call_reply_node = self_;
  sub_env.tenant = env.tenant;
  sub_env.token = std::move(env.token);
  route_and_send(*target, std::move(sub_env));
}

void Controller::continue_graph_call(AppId app_id, GraphId graph_id,
                                     VertexId vertex_id,
                                     std::vector<SplitFrame> frames,
                                     CallId call, NodeId reply_node,
                                     TenantId tenant, Ptr<Token> result) {
  // Runs on whatever thread completed the sub-call (possibly the simulation
  // scheduler): must not block and must not throw.
  try {
    Application* app = cluster_.app(app_id);
    std::shared_ptr<Flowgraph> graph = app->graph(graph_id);
    const Flowgraph::Vertex& v = graph->vertex(vertex_id);
    const uint64_t tid = result->typeInfo().id;
    VertexId target = kNoVertex;
    for (VertexId s : v.successors) {
      if (accepts(graph->vertex(s), tid)) target = s;
    }
    if (target == kNoVertex) {
      if (!v.successors.empty()) {
        raise(Errc::kUnroutable,
              "no successor accepts the service result type '" +
                  result->typeInfo().name + "'");
      }
      Envelope reply;
      reply.app = app_id;
      reply.graph = graph_id;
      reply.vertex = kNoVertex;
      reply.call = call;
      reply.call_reply_node = reply_node;
      reply.tenant = tenant;
      reply.token = std::move(result);
      send_reply(std::move(reply));
      return;
    }
    Envelope out;
    out.app = app_id;
    out.graph = graph_id;
    out.vertex = target;
    out.call = call;
    out.call_reply_node = reply_node;
    out.tenant = tenant;
    out.frames = std::move(frames);
    out.token = std::move(result);
    route_and_send(*graph, std::move(out));
  } catch (const Error& e) {
    DPS_ERROR("graph-call continuation failed: " << e.what());
  }
}

bool Controller::starts_collection(const Envelope& env) const {
  if (env.vertex == kNoVertex) return false;
  try {
    Application* app = cluster_.app(env.app);
    std::shared_ptr<Flowgraph> graph = app->graph(env.graph);
    const OpKind kind = graph->vertex(env.vertex).kind;
    return kind == OpKind::kMerge || kind == OpKind::kStream;
  } catch (const Error&) {
    return false;  // let the dispatch path report the real problem
  }
}

void Controller::route_and_send(const Flowgraph& graph, Envelope env) {
  const Flowgraph::Vertex& v = graph.vertex(env.vertex);
  std::unique_ptr<RouteBase> route(v.route->create());
  route->ctx_ = detail::RouteContext{v.collection->size(),
                                     v.collection->queue_depths()};
  const int idx = route->route_erased(env.token.get());
  env.collection = v.collection->id();
  env.thread = static_cast<ThreadIndex>(idx);
  send(std::move(env));
}

void Controller::send(Envelope env) {
  ThreadCollectionBase* coll = cluster_.collection(env.collection);
  const NodeId target = coll->node_of(env.thread);
  if (target == self_) {
    deliver_local(std::move(env));
    return;
  }
  send_envelope(target, FrameKind::kEnvelope, env);
}

void Controller::deliver_local(Envelope env) {
  Worker& w = worker(env.collection, env.thread);
#ifdef DPS_TRACE
  const bool t_on = obs::tracing_active();
  const uint64_t t_vertex = env.vertex;
  const uint64_t t_coll = env.collection;
  const uint64_t t_thread = env.thread;
  uint64_t t_depth = 0;
#endif
  MutexLock lock(w.mu);
  w.inbox.push_back(std::move(env));
  w.inbox_count.fetch_add(1, std::memory_order_relaxed);
  if (w.depth_slot != nullptr) {
    w.depth_slot->fetch_add(1, std::memory_order_relaxed);
  }
#ifdef DPS_TRACE
  if (t_on) {
    t_depth = w.inbox.size();
    obs::Trace::instance().record(obs::EventKind::kEnqueue, self_, t_vertex,
                                  t_coll, t_thread, t_depth);
    static obs::Gauge& depth_gauge =
        obs::Metrics::instance().gauge("dps.queue.depth");
    depth_gauge.set(static_cast<int64_t>(t_depth));
    depth_gauge.update_max(static_cast<int64_t>(t_depth));
  }
#endif
  cluster_.domain().notify_all(w.wp);
}

// ---------------------------------------------------------------------------
// Batched fabric delivery
// ---------------------------------------------------------------------------

/// Collects the envelopes decoded from one receive chunk, grouped by
/// destination worker, so the flush costs one lock + one notify per worker
/// instead of one per frame. The group list is a small linear vector: a
/// node hosts few workers and a chunk rarely fans out to more than a
/// handful of them.
class Controller::DeliveryBatch {
 public:
  explicit DeliveryBatch(Controller& controller) : controller_(controller) {}
  DeliveryBatch(const DeliveryBatch&) = delete;
  DeliveryBatch& operator=(const DeliveryBatch&) = delete;
  ~DeliveryBatch() { flush(); }

  void add(Envelope&& env) {
    Worker& w = controller_.worker(env.collection, env.thread);
    for (auto& g : groups_) {
      if (g.worker == &w) {
        g.envs.push_back(std::move(env));
        return;
      }
    }
    groups_.push_back(Group{&w, {}});
    groups_.back().envs.push_back(std::move(env));
  }

  void flush() {
    for (auto& g : groups_) {
      Worker& w = *g.worker;
      const uint32_t n = static_cast<uint32_t>(g.envs.size());
#ifdef DPS_TRACE
      const bool t_on = obs::tracing_active();
#endif
      MutexLock lock(w.mu);
      for (Envelope& env : g.envs) {
#ifdef DPS_TRACE
        if (t_on) {
          obs::Trace::instance().record(obs::EventKind::kEnqueue,
                                        controller_.self(), env.vertex,
                                        w.collection, w.index,
                                        w.inbox.size() + 1);
        }
#endif
        w.inbox.push_back(std::move(env));
      }
      w.inbox_count.fetch_add(n, std::memory_order_relaxed);
      if (w.depth_slot != nullptr) {
        w.depth_slot->fetch_add(n, std::memory_order_relaxed);
      }
#ifdef DPS_TRACE
      if (t_on) {
        static obs::Gauge& depth_gauge =
            obs::Metrics::instance().gauge("dps.queue.depth");
        depth_gauge.set(static_cast<int64_t>(w.inbox.size()));
        depth_gauge.update_max(static_cast<int64_t>(w.inbox.size()));
      }
#endif
      controller_.cluster_.domain().notify_all(w.wp);
    }
    groups_.clear();
  }

 private:
  struct Group {
    Worker* worker;
    std::vector<Envelope> envs;
  };
  Controller& controller_;
  std::vector<Group> groups_;
};

void Controller::send_reply(Envelope env) {
  if (env.call_reply_node == self_) {
    cluster_.complete_call(env.call, std::move(env.token));
    return;
  }
  send_envelope(env.call_reply_node, FrameKind::kCallReply, env);
}

void Controller::on_fabric(NodeMessage&& msg) {
  // Non-blocking by contract: enqueue, update accounts, notify.
  switch (msg.kind) {
    case FrameKind::kReliable:
      handle_reliable(std::move(msg));
      break;
    case FrameKind::kAck: {
      Reader r(msg.payload.data(), msg.payload.size());
      handle_ack(msg.from, r.get<uint64_t>());
      break;
    }
    case FrameKind::kHeartbeat: {
      Reader r(msg.payload.data(), msg.payload.size());
      handle_ack(msg.from, r.get<uint64_t>());
      break;
    }
    case FrameKind::kPeerDown: {
      // Transport-level death report (torn TCP stream). Under fault
      // tolerance the cluster converts it to kNodeDown on in-flight calls;
      // otherwise it is surfaced loudly as a protocol error.
      Reader r(msg.payload.data(), msg.payload.size());
      const std::string reason = r.get_string();
      if (cluster_.fault_tolerant()) {
        cluster_.mark_node_down(msg.from, reason);
      } else {
        DPS_ERROR("node " << self_ << ": " << to_string(Errc::kProtocol)
                          << ": " << reason);
      }
      break;
    }
    default:
#ifdef DPS_TRACE
      if (obs::tracing_active()) {
        obs::Trace::instance().record(obs::EventKind::kFabricRecv, self_,
                                      msg.from,
                                      static_cast<uint64_t>(msg.kind), 0,
                                      msg.payload.size());
        static obs::Counter& received_raw =
            obs::Metrics::instance().counter("dps.fabric.frames_received");
        received_raw.inc();
      }
#endif
      handle_frame(msg.kind, msg.from, msg.payload.data(),
                   msg.payload.size());
  }
}

void Controller::on_fabric_batch(std::vector<NodeMessage>&& msgs) {
  // One receive chunk's worth of frames. Envelopes are grouped per worker
  // (one inbox append + one notify each), and all reliable-link seq/ack
  // bookkeeping for the chunk runs under a single rel_mu_ acquisition.
  DeliveryBatch batch(*this);
  struct RelItem {
    size_t index;       ///< into msgs
    uint64_t seq = 0;
    uint64_t ack = 0;
    FrameKind inner = FrameKind::kEnvelope;
    size_t header = 0;
    bool deliver = false;
  };
  std::vector<RelItem> rel;
  for (size_t i = 0; i < msgs.size(); ++i) {
    NodeMessage& msg = msgs[i];
    switch (msg.kind) {
      case FrameKind::kReliable: {
        RelItem item;
        item.index = i;
        Reader r(msg.payload.data(), msg.payload.size());
        item.seq = r.get<uint64_t>();
        item.ack = r.get<uint64_t>();
        item.inner = static_cast<FrameKind>(r.get<uint16_t>());
        item.header = msg.payload.size() - r.remaining();
        rel.push_back(item);
        break;
      }
      case FrameKind::kAck:
      case FrameKind::kHeartbeat:
      case FrameKind::kPeerDown:
        on_fabric(std::move(msg));  // rare control kinds keep the slow path
        break;
      default: {
#ifdef DPS_TRACE
        if (obs::tracing_active()) {
          obs::Trace::instance().record(obs::EventKind::kFabricRecv, self_,
                                        msg.from,
                                        static_cast<uint64_t>(msg.kind), 0,
                                        msg.payload.size());
          static obs::Counter& received_raw =
              obs::Metrics::instance().counter("dps.fabric.frames_received");
          received_raw.inc();
        }
#endif
        handle_frame(msg.kind, msg.from, msg.payload.data(),
                     msg.payload.size(), &batch);
      }
    }
  }
  if (rel.empty()) return;

  // Dup re-acks, coalesced per peer: the last suppressed frame's
  // cumulative ack covers every earlier one in the chunk.
  struct PendingAck {
    NodeId peer;
    uint64_t val;
  };
  std::vector<PendingAck> acks;
  {
    MutexLock lock(rel_mu_);
    for (RelItem& item : rel) {
      const NodeId from = msgs[item.index].from;
      ReliableLink& l = rlink_locked(from);
      handle_ack_locked(l, from, item.ack);
      l.last_heard = mono_seconds();
      uint64_t ack_val = 0;
      item.deliver = reliable_rx_locked(l, item.seq, &ack_val);
      if (!item.deliver) {
#ifdef DPS_TRACE
        if (obs::tracing_active()) {
          obs::Trace::instance().record(obs::EventKind::kDupSuppressed,
                                        self_, from,
                                        static_cast<uint64_t>(item.inner),
                                        item.seq, 0);
          static obs::Counter& dups =
              obs::Metrics::instance().counter("dps.fabric.dup_suppressed");
          dups.inc();
        }
#endif
        bool found = false;
        for (auto& a : acks) {
          if (a.peer == from) {
            a.val = ack_val;
            found = true;
          }
        }
        if (!found) acks.push_back(PendingAck{from, ack_val});
      }
    }
  }
  for (const PendingAck& a : acks) {
    Writer w;
    w.put<uint64_t>(a.val);
#ifdef DPS_TRACE
    obs::Trace::instance().record(obs::EventKind::kAckSend, self_, a.peer, 0,
                                  a.val, 0);
#endif
    try {
      cluster_.fabric().send(self_, a.peer, FrameKind::kAck, w.take());
    } catch (const Error&) {
      // ack lost: the duplicate will come again
    }
  }
  for (const RelItem& item : rel) {
    if (!item.deliver) continue;
    NodeMessage& msg = msgs[item.index];
#ifdef DPS_TRACE
    if (obs::tracing_active()) {
      obs::Trace::instance().record(obs::EventKind::kFabricRecv, self_,
                                    msg.from,
                                    static_cast<uint64_t>(item.inner),
                                    item.seq,
                                    msg.payload.size() - item.header);
      static obs::Counter& received =
          obs::Metrics::instance().counter("dps.fabric.frames_received");
      received.inc();
    }
#endif
    handle_frame(item.inner, msg.from, msg.payload.data() + item.header,
                 msg.payload.size() - item.header, &batch);
  }
  // ~DeliveryBatch flushes the grouped envelopes.
}

void Controller::handle_frame(FrameKind kind, NodeId from,
                              const std::byte* data, size_t size,
                              DeliveryBatch* batch) {
  switch (kind) {
    case FrameKind::kEnvelope: {
      Reader r(data, size);
      if (batch != nullptr) {
        batch->add(Envelope::decode(r));
      } else {
        deliver_local(Envelope::decode(r));
      }
      break;
    }
    case FrameKind::kFlowAck: {
      Reader r(data, size);
      const ContextId ctx = r.get<ContextId>();
      const uint32_t n = r.get<uint32_t>();
      // Receiver inbox depth rides as an optional trailer (wire compat
      // with pre-adaptive senders that stop after the count).
      const uint32_t depth =
          r.remaining() >= sizeof(uint32_t) ? r.get<uint32_t>() : 0;
      apply_flow_release(ctx, n, depth);
      break;
    }
    case FrameKind::kMcastEnvelope:
      handle_mcast(from, data, size, batch);
      break;
    case FrameKind::kCallReply: {
      Reader r(data, size);
      Envelope env = Envelope::decode(r);
      cluster_.complete_call(env.call, std::move(env.token));
      break;
    }
    default:
      DPS_WARN("node " << self_ << ": unexpected frame kind "
                       << static_cast<int>(kind) << " from node " << from);
  }
}

void Controller::handle_mcast(NodeId from, const std::byte* data, size_t size,
                              DeliveryBatch* batch) {
  Reader r(data, size);
  const std::vector<McastEntry> entries = decode_mcast_header(r);
  // Fan-out is flat: the poster sends each node only that node's entries,
  // so an entry for another node means a corrupt or foreign frame.
  for (const McastEntry& e : entries) {
    if (e.node != self_) {
      raise(Errc::kProtocol,
            "multicast frame from node " + std::to_string(from) +
                " lists a destination on node " + std::to_string(e.node));
    }
  }
  Envelope base = Envelope::decode(r);
  if (base.frames.empty()) {
    raise(Errc::kProtocol, "multicast envelope without a split frame");
  }
  // Every entry becomes an envelope copy sharing one decode of the token.
  for (const McastEntry& e : entries) {
    Envelope env = base;  // token pointer shared, not re-decoded
    env.thread = static_cast<ThreadIndex>(e.thread);
    env.frames.back().seq = e.seq;
    if (batch != nullptr) {
      batch->add(std::move(env));
    } else {
      deliver_local(std::move(env));
    }
  }
#ifdef DPS_TRACE
  if (!entries.empty() && obs::tracing_active()) {
    obs::Trace::instance().record(obs::EventKind::kMcastDeliver, self_,
                                  base.vertex, entries.size(), entries.size(),
                                  size - mcast_header_size(entries.size()));
    static obs::Counter& deliveries =
        obs::Metrics::instance().counter("dps.mcast.deliveries");
    deliveries.inc(entries.size());
  }
#endif
}

// --- Flow control ------------------------------------------------------------

ContextId Controller::new_context_id() {
  return (static_cast<uint64_t>(self_ + 1) << 40) |
         (context_counter_.fetch_add(1, std::memory_order_relaxed) + 1);
}

void Controller::create_flow_account(ContextId ctx, uint32_t window) {
  auto acc = std::make_unique<FlowAccount>();
  acc->window = window;
  if (cluster_.config().adaptive_flow) {
    // No concurrency before the account is published; the lock only
    // satisfies the GUARDED_BY annotation.
    MutexLock al(acc->mu);
    acc->adaptive = std::make_unique<AdaptiveWindow>(window);
  }
  MutexLock lock(flow_mu_);
  if (flow_down_) {
    MutexLock al(acc->mu);
    acc->poison = true;
  }
  accounts_.emplace(ctx, std::move(acc));
}

void Controller::flow_acquire(ContextId ctx, uint32_t min_window) {
  FlowAccount* acc = nullptr;
  {
    MutexLock lock(flow_mu_);
    auto it = accounts_.find(ctx);
    DPS_CHECK(it != accounts_.end(), "flow_acquire on unknown account");
    acc = it->second.get();
  }
  MutexLock lock(acc->mu);
  // Static accounts freeze the tenant window at split start; adaptive ones
  // re-read the controller's current window on every acquire. `min_window`
  // keeps a collective live: its posting worker may also serve the merge
  // that returns these very credits, so a wait that can only be satisfied
  // by releases is a deadlock, not backpressure.
  cluster_.domain().wait_until(acc->wp, acc->mu, [&] {
    uint32_t window =
        acc->adaptive != nullptr ? acc->adaptive->window() : acc->window;
    if (window < min_window) window = min_window;
    return acc->poison || acc->in_flight < window;
  });
  if (acc->poison) {
    raise(Errc::kState, "shutdown while waiting for flow-control window");
  }
  ++acc->in_flight;
  if (acc->adaptive != nullptr) {
    acc->sends.push_back(cluster_.domain().now());
  }
#ifdef DPS_TRACE
  obs::Trace::instance().record(obs::EventKind::kFlowAcquire, self_, ctx, 0, 0,
                                acc->in_flight);
#endif
}

void Controller::finish_flow_account(ContextId ctx) {
  MutexLock lock(flow_mu_);
  auto it = accounts_.find(ctx);
  if (it == accounts_.end()) return;
  bool drained = false;
  {
    MutexLock al(it->second->mu);
    it->second->finished = true;
    // A poisoned account's outstanding credits can never come back (the
    // acks died with the peer) — waiting for in_flight to reach zero would
    // leak the account forever. The split is done with it; reap it now.
    drained = (it->second->in_flight == 0) || it->second->poison;
  }
  if (drained) accounts_.erase(it);
}

void Controller::apply_flow_release(ContextId ctx, uint32_t n,
                                    uint32_t receiver_depth) {
  MutexLock lock(flow_mu_);
  auto it = accounts_.find(ctx);
  if (it == accounts_.end()) return;  // late ack after account drained
  bool drained = false;
  {
    MutexLock al(it->second->mu);
    FlowAccount& acc = *it->second;
    acc.in_flight = (acc.in_flight >= n) ? acc.in_flight - n : 0;
    if (acc.adaptive != nullptr) {
      // Credit round trip, measured from the oldest outstanding acquire.
      double rtt = 0;
      if (!acc.sends.empty()) {
        rtt = cluster_.domain().now() - acc.sends.front();
        for (uint32_t i = 0; i < n && !acc.sends.empty(); ++i) {
          acc.sends.pop_front();
        }
      }
      if (acc.adaptive->on_ack(rtt, receiver_depth, n)) {
#ifdef DPS_TRACE
        if (obs::tracing_active()) {
          obs::Trace::instance().record(obs::EventKind::kFlowWindow, self_,
                                        ctx, acc.adaptive->window(),
                                        receiver_depth, acc.in_flight);
          static obs::Gauge& window_gauge =
              obs::Metrics::instance().gauge("dps.flow.window");
          window_gauge.set(acc.adaptive->window());
          window_gauge.update_max(acc.adaptive->window());
        }
#endif
      }
    }
#ifdef DPS_TRACE
    obs::Trace::instance().record(obs::EventKind::kFlowRelease, self_, ctx, 0,
                                  n, acc.in_flight);
#endif
    cluster_.domain().notify_all(acc.wp);
    drained = acc.finished && acc.in_flight == 0;
  }
  if (drained) accounts_.erase(it);
}

void Controller::send_flow_ack(const SplitFrame& frame, uint32_t n,
                               uint32_t receiver_depth) {
  if (n == 0) return;
  if (frame.split_node == self_) {
    apply_flow_release(frame.context, n, receiver_depth);
    return;
  }
  Writer w;
  w.put<ContextId>(frame.context);
  w.put<uint32_t>(n);
  w.put<uint32_t>(receiver_depth);
  fabric_send(frame.split_node, FrameKind::kFlowAck, w.take());
}

// --- Service-mesh admission (docs/SERVICE_MESH.md) ---------------------------

void Controller::admit_call(TenantId tenant, const Flowgraph& target) {
  const TenantConfig cfg = cluster_.tenant_config(tenant);

  // Queue-depth overload signal, read outside svc_mu_ (atomics only): total
  // mailbox backlog of the service's entry collection.
  uint64_t depth = 0;
  if (cfg.queue_high_water > 0) {
    const Flowgraph::Vertex& entry = target.vertex(target.entry());
    const std::atomic<uint32_t>* depths = entry.collection->queue_depths();
    const int n = entry.collection->size();
    for (int i = 0; i < n; ++i) {
      depth += depths[i].load(std::memory_order_relaxed);
    }
  }

  const char* why = nullptr;
  uint32_t inflight = 0;
  {
    MutexLock lock(svc_mu_);
    SvcStats& s = svc_[tenant];
    if (cfg.max_inflight > 0 && s.inflight >= cfg.max_inflight) {
      ++s.shed;
      why = "in-flight budget exhausted";
    } else if (cfg.queue_high_water > 0 && depth >= cfg.queue_high_water) {
      ++s.shed;
      why = "service entry queue above the high-water mark";
    } else {
      ++s.admitted;
      inflight = ++s.inflight;
      if (inflight > s.peak_inflight) s.peak_inflight = inflight;
    }
  }

#ifdef DPS_TRACE
  {
    static obs::Counter& admitted =
        obs::Metrics::instance().counter("dps.svc.admitted");
    static obs::Counter& shed = obs::Metrics::instance().counter("dps.svc.shed");
    static obs::Gauge& inflight_g =
        obs::Metrics::instance().gauge("dps.svc.inflight");
    if (why == nullptr) {
      admitted.inc();
      inflight_g.add(1);
      inflight_g.update_max(inflight);
    } else {
      shed.inc();
    }
  }
  if (obs::tracing_active()) {
    obs::Trace::instance().record(
        why == nullptr ? obs::EventKind::kSvcAdmit : obs::EventKind::kSvcShed,
        self_, tenant, 0, 0, inflight);
  }
#endif

  if (why != nullptr) {
    raise(Errc::kBackpressure,
          "call shed for tenant '" + cluster_.tenant_name(tenant) +
              "': " + why);
  }
}

void Controller::retire_call(TenantId tenant, bool deadline_expired) {
  {
    MutexLock lock(svc_mu_);
    SvcStats& s = svc_[tenant];
    DPS_CHECK(s.inflight > 0, "retire_call without a matching admit_call");
    --s.inflight;
    if (deadline_expired) ++s.deadline_expired;
  }
#ifdef DPS_TRACE
  {
    static obs::Gauge& inflight_g =
        obs::Metrics::instance().gauge("dps.svc.inflight");
    inflight_g.sub(1);
    if (deadline_expired) {
      static obs::Counter& expired =
          obs::Metrics::instance().counter("dps.svc.deadline_expired");
      expired.inc();
    }
  }
  if (deadline_expired && obs::tracing_active()) {
    obs::Trace::instance().record(obs::EventKind::kSvcDeadline, self_, tenant,
                                  0, 0, 0);
  }
#endif
}

Controller::SvcStats Controller::svc_stats(TenantId tenant) const {
  MutexLock lock(svc_mu_);
  const auto it = svc_.find(tenant);
  return it == svc_.end() ? SvcStats{} : it->second;
}

uint32_t Controller::tenant_window(TenantId tenant) const {
  const TenantConfig cfg = cluster_.tenant_config(tenant);
  return cfg.flow_window > 0 ? cfg.flow_window : cluster_.flow_window();
}

size_t Controller::flow_account_count() const {
  MutexLock lock(flow_mu_);
  return accounts_.size();
}

// --- Fault tolerance (docs/FAULT_TOLERANCE.md) -------------------------------
//
// Lock discipline: rel_mu_ is never held across a fabric send. The inproc
// fabric delivers synchronously on the calling thread, so a send made under
// rel_mu_ could re-enter this controller (peer's ack) and self-deadlock.
// Frames are built under the lock and shipped after it is released.

void Controller::enable_fault_tolerance() {
  const FaultToleranceConfig& ft = cluster_.config().fault;
  reliable_ = ft.reliable;
  heartbeat_ = ft.heartbeat;
  const double now = mono_seconds();
  MutexLock lock(rel_mu_);
  for (NodeId peer = 0; peer < cluster_.node_count(); ++peer) {
    if (peer == self_) continue;
    rlink_locked(peer).last_heard = now;  // grace period from arming time
  }
}

Controller::ReliableLink& Controller::rlink_locked(NodeId peer) {
  auto it = rlinks_.find(peer);
  if (it == rlinks_.end()) {
    it = rlinks_.emplace(peer, std::make_unique<ReliableLink>()).first;
  }
  return *it->second;
}

void Controller::fabric_send(NodeId target, FrameKind kind,
                             std::vector<std::byte> payload) {
  if (!reliable_) {
#ifdef DPS_TRACE
    if (obs::tracing_active()) {
      obs::Trace::instance().record(obs::EventKind::kFabricSend, self_,
                                    target, static_cast<uint64_t>(kind), 0,
                                    payload.size());
      static obs::Counter& sent_raw =
          obs::Metrics::instance().counter("dps.fabric.frames_sent");
      sent_raw.inc();
    }
#endif
    cluster_.fabric().send(self_, target, kind, std::move(payload));
    return;
  }
  Writer w(BufferPool::instance().acquire(kRelHeaderSize + payload.size()));
  w.put<uint64_t>(0);  // seq placeholder, patched under rel_mu_
  w.put<uint64_t>(0);  // cumulative-ack placeholder
  w.put<uint16_t>(static_cast<uint16_t>(kind));
  w.put_raw(payload.data(), payload.size());
  send_reliable_wrapped(target, kind, w.take());
}

void Controller::fabric_send_shared(NodeId target, FrameKind kind,
                                    std::vector<std::byte> prefix,
                                    SharedPayload body) {
  if (!reliable_) {
#ifdef DPS_TRACE
    if (obs::tracing_active()) {
      obs::Trace::instance().record(
          obs::EventKind::kFabricSend, self_, target,
          static_cast<uint64_t>(kind), 0,
          prefix.size() + (body == nullptr ? 0 : body->size()));
      static obs::Counter& sent_raw =
          obs::Metrics::instance().counter("dps.fabric.frames_sent");
      sent_raw.inc();
    }
#endif
    cluster_.fabric().send_shared(self_, target, kind, std::move(prefix),
                                  std::move(body));
    return;
  }
  // Only the small per-receiver prefix is wrapped with [seq|ack|kind]; the
  // shared body stays outside the sequenced buffer and rides every
  // (re)transmit of this link's frame untouched.
  Writer w(BufferPool::instance().acquire(kRelHeaderSize + prefix.size()));
  w.put<uint64_t>(0);  // seq placeholder, patched under rel_mu_
  w.put<uint64_t>(0);  // cumulative-ack placeholder
  w.put<uint16_t>(static_cast<uint16_t>(kind));
  w.put_raw(prefix.data(), prefix.size());
  BufferPool::instance().release(std::move(prefix));
  send_reliable_wrapped(target, kind, w.take(), std::move(body));
}

void Controller::mcast_ship(NodeId node, const McastEntry* entries, size_t n,
                            const SharedPayload& body) {
  Writer w(BufferPool::instance().acquire(mcast_header_size(n)));
  encode_mcast_header(w, entries, n);
  BufferPool::instance().note_growth(w.growth_count());
  mcast_frames_.fetch_add(1, std::memory_order_relaxed);
#ifdef DPS_TRACE
  if (obs::tracing_active()) {
    static obs::Counter& frames =
        obs::Metrics::instance().counter("dps.mcast.frames");
    frames.inc();
  }
#endif
  fabric_send_shared(node, FrameKind::kMcastEnvelope, w.take(), body);
}

void Controller::send_envelope(NodeId target, FrameKind kind,
                               const Envelope& env) {
  // One exact-size pooled allocation per cross-node envelope: encoded_size
  // is arithmetic, so Writer never reallocates mid-encode, and in reliable
  // mode the kReliable header shares the same buffer instead of re-wrapping
  // the encoded payload through a second writer (the old double copy).
  const size_t body = env.encoded_size();
  if (!reliable_) {
    Writer w(BufferPool::instance().acquire(body));
    env.encode(w);
    BufferPool::instance().note_growth(w.growth_count());
#ifdef DPS_TRACE
    if (obs::tracing_active()) {
      obs::Trace::instance().record(obs::EventKind::kFabricSend, self_,
                                    target, static_cast<uint64_t>(kind), 0,
                                    w.size());
      static obs::Counter& sent_raw =
          obs::Metrics::instance().counter("dps.fabric.frames_sent");
      sent_raw.inc();
    }
#endif
    cluster_.fabric().send(self_, target, kind, w.take());
    return;
  }
  Writer w(BufferPool::instance().acquire(kRelHeaderSize + body));
  w.put<uint64_t>(0);  // seq placeholder, patched under rel_mu_
  w.put<uint64_t>(0);  // cumulative-ack placeholder
  w.put<uint16_t>(static_cast<uint16_t>(kind));
  env.encode(w);
  BufferPool::instance().note_growth(w.growth_count());
  send_reliable_wrapped(target, kind, w.take());
}

void Controller::send_reliable_wrapped(NodeId target, FrameKind kind,
                                       std::vector<std::byte> wrapped,
                                       SharedPayload body) {
  const FaultToleranceConfig& ft = cluster_.config().fault;
  std::vector<std::byte> out;
#ifdef DPS_TRACE
  uint64_t t_seq = 0;
  const uint64_t t_size = wrapped.size() - kRelHeaderSize +
                          (body == nullptr ? 0 : body->size());
#endif
  {
    MutexLock lock(rel_mu_);
    ReliableLink& l = rlink_locked(target);
    if (l.dead) {
      // Peer declared down: the link is a black hole.
      BufferPool::instance().release(std::move(wrapped));
      return;
    }
    const uint64_t seq = l.next_seq++;
#ifdef DPS_TRACE
    t_seq = seq;
#endif
    patch_u64(wrapped, kRelSeqOffset, seq);
    patch_u64(wrapped, kRelAckOffset, l.rx_contig);  // piggybacked ack
    l.acked_sent = std::max(l.acked_sent, l.rx_contig);
    l.ack_pending = false;
    ReliableLink::Pending p;
    p.kind = kind;
    p.wrapped = std::move(wrapped);
    p.body = body;
    p.rto = ft.rto_initial;
    p.next_due = mono_seconds() + p.rto;
    out = p.wrapped;  // the in-flight copy; the original arms retransmission
    l.unacked.emplace(seq, std::move(p));
  }
#ifdef DPS_TRACE
  if (obs::tracing_active()) {
    obs::Trace::instance().record(obs::EventKind::kFabricSend, self_, target,
                                  static_cast<uint64_t>(kind), t_seq, t_size);
    static obs::Counter& sent =
        obs::Metrics::instance().counter("dps.fabric.frames_sent");
    sent.inc();
  }
#endif
  try {
    if (body != nullptr) {
      cluster_.fabric().send_shared(self_, target, FrameKind::kReliable,
                                    std::move(out), std::move(body));
    } else {
      cluster_.fabric().send(self_, target, FrameKind::kReliable,
                             std::move(out));
    }
  } catch (const Error& e) {
    // A torn transport is just a lossy link here: the retransmission timer
    // retries until the ack arrives or the peer is declared down.
    DPS_DEBUG("node " << self_ << ": send to " << target
                      << " failed, will retransmit: " << e.what());
  }
}

/// Receive-side bookkeeping for one sequenced frame; shared by the single
/// and batched delivery paths. On a duplicate (retransmission that crossed
/// our ack, or an injected copy) returns false and leaves the cumulative
/// ack to re-send in *ack_val so the sender stops.
bool Controller::reliable_rx_locked(ReliableLink& l, uint64_t seq,
                                    uint64_t* ack_val) {
  if (seq <= l.rx_contig || l.rx_above.count(seq) != 0) {
    dup_suppressed_.fetch_add(1, std::memory_order_relaxed);
    *ack_val = l.rx_contig;
    l.acked_sent = std::max(l.acked_sent, l.rx_contig);
    l.ack_pending = false;
    return false;
  }
  if (seq == l.rx_contig + 1) {
    ++l.rx_contig;
    while (l.rx_above.erase(l.rx_contig + 1) != 0) ++l.rx_contig;
  } else {
    l.rx_above.insert(seq);
  }
  l.ack_pending = true;  // flushed by the next tick or piggybacked
  return true;
}

void Controller::handle_reliable(NodeMessage&& msg, DeliveryBatch* batch) {
  Reader r(msg.payload.data(), msg.payload.size());
  const uint64_t seq = r.get<uint64_t>();
  const uint64_t ack = r.get<uint64_t>();
  const FrameKind inner = static_cast<FrameKind>(r.get<uint16_t>());
  const size_t header = msg.payload.size() - r.remaining();

  bool deliver = false;
  bool ack_now = false;
  uint64_t ack_val = 0;
  {
    MutexLock lock(rel_mu_);
    ReliableLink& l = rlink_locked(msg.from);
    handle_ack_locked(l, msg.from, ack);
    l.last_heard = mono_seconds();
    deliver = reliable_rx_locked(l, seq, &ack_val);
    ack_now = !deliver;
  }
#ifdef DPS_TRACE
  if (!deliver && obs::tracing_active()) {
    obs::Trace::instance().record(obs::EventKind::kDupSuppressed, self_,
                                  msg.from, static_cast<uint64_t>(inner),
                                  seq, 0);
    static obs::Counter& dups =
        obs::Metrics::instance().counter("dps.fabric.dup_suppressed");
    dups.inc();
  }
#endif
  if (ack_now) {
    Writer w;
    w.put<uint64_t>(ack_val);
#ifdef DPS_TRACE
    obs::Trace::instance().record(obs::EventKind::kAckSend, self_, msg.from, 0,
                                  ack_val, 0);
#endif
    try {
      cluster_.fabric().send(self_, msg.from, FrameKind::kAck, w.take());
    } catch (const Error&) {
      // ack lost: the duplicate will come again
    }
  }
  if (deliver) {
#ifdef DPS_TRACE
    if (obs::tracing_active()) {
      obs::Trace::instance().record(obs::EventKind::kFabricRecv, self_,
                                    msg.from, static_cast<uint64_t>(inner),
                                    seq, msg.payload.size() - header);
      static obs::Counter& received =
          obs::Metrics::instance().counter("dps.fabric.frames_received");
      received.inc();
    }
#endif
    // Frames are self-contained engine messages: out-of-order delivery is
    // harmless (merge contexts collect by SplitFrame, not arrival order),
    // so deliver immediately instead of buffering behind the gap.
    handle_frame(inner, msg.from, msg.payload.data() + header,
                 msg.payload.size() - header, batch);
  }
}

void Controller::handle_ack_locked(ReliableLink& l, NodeId from,
                                   uint64_t ack) {
#ifdef DPS_TRACE
  obs::Trace::instance().record(obs::EventKind::kAckRecv, self_, from, 0, ack,
                                0);
#else
  (void)from;
#endif
  auto end = l.unacked.upper_bound(ack);
  for (auto it = l.unacked.begin(); it != end; ++it) {
    BufferPool::instance().release(std::move(it->second.wrapped));
  }
  l.unacked.erase(l.unacked.begin(), end);
}

void Controller::handle_ack(NodeId from, uint64_t ack) {
  MutexLock lock(rel_mu_);
  ReliableLink& l = rlink_locked(from);
  l.last_heard = mono_seconds();
  handle_ack_locked(l, from, ack);
}

std::vector<NodeId> Controller::reliability_tick(double now) {
  const FaultToleranceConfig& ft = cluster_.config().fault;
  struct Out {
    NodeId to;
    FrameKind kind;
    std::vector<std::byte> payload;
    SharedPayload body;  ///< shared multicast payload; null for most frames
  };
  std::vector<Out> outs;
  std::vector<NodeId> suspects;
  {
    MutexLock lock(rel_mu_);
    for (auto& [peer, lp] : rlinks_) {
      ReliableLink& l = *lp;
      if (l.dead) continue;
      if (l.ack_pending && l.rx_contig > l.acked_sent) {
        Writer w;
        w.put<uint64_t>(l.rx_contig);
#ifdef DPS_TRACE
        obs::Trace::instance().record(obs::EventKind::kAckSend, self_, peer, 0,
                                      l.rx_contig, 0);
#endif
        outs.push_back({peer, FrameKind::kAck, w.take(), nullptr});
        l.acked_sent = l.rx_contig;
        l.ack_pending = false;
      }
      for (auto& [seq, p] : l.unacked) {
        if (p.next_due > now) continue;
        if (p.retries >= ft.max_retries) {
          suspects.push_back(peer);
          break;
        }
        ++p.retries;
        p.rto = std::min(p.rto * 2, ft.rto_max);
        // Deterministic jitter (from the seq, not a clock) de-synchronizes
        // retransmit bursts without breaking run-to-run reproducibility.
        p.next_due = now + p.rto * (1.0 + 0.25 * static_cast<double>(
                                              (seq * 2654435761ULL) % 97) / 97.0);
        // The pending buffer is already the full kReliable frame; refresh
        // its piggybacked ack in place and send a copy (the original stays
        // armed for the next timeout).
        patch_u64(p.wrapped, kRelAckOffset, l.rx_contig);
        l.acked_sent = std::max(l.acked_sent, l.rx_contig);
        outs.push_back({peer, FrameKind::kReliable, p.wrapped, p.body});
        retransmissions_.fetch_add(1, std::memory_order_relaxed);
#ifdef DPS_TRACE
        if (obs::tracing_active()) {
          obs::Trace::instance().record(obs::EventKind::kRetransmit, self_,
                                        peer, static_cast<uint64_t>(p.kind),
                                        seq,
                                        static_cast<uint64_t>(p.retries));
          static obs::Counter& rtx =
              obs::Metrics::instance().counter("dps.fabric.retransmits");
          rtx.inc();
        }
#endif
      }
    }
  }
  for (auto& o : outs) {
    try {
      if (o.body != nullptr) {
        cluster_.fabric().send_shared(self_, o.to, o.kind,
                                      std::move(o.payload), std::move(o.body));
      } else {
        cluster_.fabric().send(self_, o.to, o.kind, std::move(o.payload));
      }
    } catch (const Error&) {
      // transport refused: indistinguishable from a drop; retry next tick
    }
  }
  return suspects;
}

void Controller::send_heartbeats(double now) {
  (void)now;
  struct Out {
    NodeId to;
    std::vector<std::byte> payload;
  };
  std::vector<Out> outs;
  {
    MutexLock lock(rel_mu_);
    for (NodeId peer = 0; peer < cluster_.node_count(); ++peer) {
      if (peer == self_) continue;
      ReliableLink& l = rlink_locked(peer);
      if (l.dead) continue;
      Writer w;
      w.put<uint64_t>(l.rx_contig);  // heartbeats double as ack carriers
      l.acked_sent = std::max(l.acked_sent, l.rx_contig);
      l.ack_pending = false;
#ifdef DPS_TRACE
      obs::Trace::instance().record(obs::EventKind::kHeartbeat, self_, peer, 0,
                                    l.rx_contig, 0);
#endif
      outs.push_back({peer, w.take()});
    }
  }
  for (auto& o : outs) {
    try {
      cluster_.fabric().send(self_, o.to, FrameKind::kHeartbeat,
                             std::move(o.payload));
    } catch (const Error&) {
      // best effort; a missed beacon is exactly what detection measures
    }
  }
}

std::vector<NodeId> Controller::stale_peers(double now, double threshold) {
  std::vector<NodeId> stale;
  MutexLock lock(rel_mu_);
  for (auto& [peer, lp] : rlinks_) {
    if (lp->dead) continue;
    if (now - lp->last_heard > threshold) stale.push_back(peer);
  }
  return stale;
}

void Controller::on_node_down(NodeId node) {
  {
    MutexLock lock(rel_mu_);
    ReliableLink& l = rlink_locked(node);
    l.dead = true;
    // Stop retransmitting into the void; recycle the armed frames.
    for (auto& [seq, p] : l.unacked) {
      BufferPool::instance().release(std::move(p.wrapped));
    }
    l.unacked.clear();
  }
  // Unblock split/stream executions waiting for flow-control credits the
  // dead node will never return. The raised kState unwinds the operation;
  // the graph call itself fails with kNodeDown at the cluster level.
  poison_flow_accounts();
}

void Controller::poison_flow_accounts() {
  MutexLock lock(flow_mu_);
  for (auto it = accounts_.begin(); it != accounts_.end();) {
    bool reap = false;
    {
      MutexLock al(it->second->mu);
      it->second->poison = true;
      cluster_.domain().notify_all(it->second->wp);
      // An already-finished account was only waiting for credits that will
      // never arrive now — erase it here, or it leaks until the controller
      // dies (the pre-poison-fix window leak).
      reap = it->second->finished;
    }
    it = reap ? accounts_.erase(it) : std::next(it);
  }
}

// --- Checkpointing -------------------------------------------------------------

void Controller::checkpoint_workers(Writer& w) {
  MutexLock lock(workers_mu_);
  for (auto& [key, worker] : workers_) {
    auto* state = dynamic_cast<const Checkpointable*>(worker->user_thread.get());
    if (state == nullptr) continue;
    w.put<uint8_t>(1);
    w.put<CollectionId>(key.first);
    w.put<ThreadIndex>(key.second);
    Writer payload;
    state->checkpoint(payload);
    w.put_bytes(payload.bytes().data(), payload.size());
  }
}

void Controller::restore_worker(CollectionId collection, ThreadIndex index,
                                Reader& r) {
  Worker& w = worker(collection, index);
  auto* state = dynamic_cast<Checkpointable*>(w.user_thread.get());
  if (state == nullptr) {
    raise(Errc::kState,
          "checkpoint record addresses a thread whose class is not "
          "Checkpointable");
  }
  state->restore(r);
}

// --- Shutdown ----------------------------------------------------------------

void Controller::shutdown() {
  std::vector<Worker*> workers;
  {
    MutexLock lock(workers_mu_);
    if (down_) return;
    down_ = true;
    workers.reserve(workers_.size());
    for (auto& [key, w] : workers_) workers.push_back(w.get());
  }
  for (Worker* w : workers) {
    MutexLock lock(w->mu);
    w->poison = true;
    cluster_.domain().notify_all(w->wp);
  }
  {
    // Accounts created from here on are born poisoned (see flow_down_); a
    // split already mid-dispatch can otherwise publish one after the
    // poison pass below and leak it.
    MutexLock lock(flow_mu_);
    flow_down_ = true;
  }
  poison_flow_accounts();
  for (Worker* w : workers) {
    if (w->os_thread.joinable()) w->os_thread.join();
  }
  // Splits that raced the poison pass finished (or unwound) during the
  // join above; their accounts are poisoned, so this pass reaps any that
  // retired with credits still in flight.
  poison_flow_accounts();
}

}  // namespace dps
