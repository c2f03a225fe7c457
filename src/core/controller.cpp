#include "core/controller.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "core/application.hpp"
#include "core/checkpoint.hpp"
#include "core/cluster.hpp"
#include "core/run_queue.hpp"
#include "core/thread_collection.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serial/buffer_pool.hpp"
#include "util/logging.hpp"

namespace dps {

namespace {

bool accepts(const Flowgraph::Vertex& v, uint64_t type_id) {
  for (uint64_t id : v.input_type_ids) {
    if (id == type_id) return true;
  }
  return false;
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

  /// Worker-private: only the owning OS thread touches these.
  RunQueue run;
  std::vector<Envelope> drain_buf;  ///< recycled swap target for drains

  std::thread os_thread;
};

struct Controller::FlowAccount {
  Mutex mu;
  WaitPoint wp DPS_GUARDED_BY(mu);
  /// Window of the owning tenant, frozen at split start (per-tenant flow
  /// control, docs/SERVICE_MESH.md).
  uint32_t window = 0;
  uint32_t in_flight DPS_GUARDED_BY(mu) = 0;
  /// Owning split/stream execution completed.
  bool finished DPS_GUARDED_BY(mu) = false;
  bool poison DPS_GUARDED_BY(mu) = false;
};

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
      append(controller_, *g.worker, g.envs.data(), g.envs.size());
    }
    groups_.clear();
  }

  /// Appends `n` envelopes to `w`'s inbox under one lock acquisition and
  /// wakes the worker once.
  static void append(Controller& c, Worker& w, Envelope* envs, size_t n) {
    const bool t_on = obs::tracing_active();
    MutexLock lock(w.mu);
    for (size_t i = 0; i < n; ++i) {
      if (t_on) {
        obs::Trace::instance().record(obs::EventKind::kEnqueue, c.self_,
                                      envs[i].vertex, w.collection, w.index,
                                      w.inbox.size() + 1);
      }
      w.inbox.push_back(std::move(envs[i]));
    }
    w.inbox_count.fetch_add(static_cast<uint32_t>(n),
                            std::memory_order_relaxed);
    if (w.depth_slot != nullptr) {
      w.depth_slot->fetch_add(static_cast<uint32_t>(n),
                              std::memory_order_relaxed);
    }
    if (t_on) {
      static obs::Gauge& depth_gauge =
          obs::Metrics::instance().gauge("dps.queue.depth");
      depth_gauge.set(static_cast<int64_t>(w.inbox.size()));
      depth_gauge.update_max(static_cast<int64_t>(w.inbox.size()));
    }
    c.cluster_.domain().notify_all(w.wp);
  }

 private:
  struct Group {
    Worker* worker;
    std::vector<Envelope> envs;
  };
  Controller& controller_;
  std::vector<Group> groups_;
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
      if (t_on) {
        static obs::Histogram& fanout =
            obs::Metrics::instance().histogram("dps.split.fanout");
        fanout.observe(posted_);
      }
    }
    if (kind_ == OpKind::kLeaf && posted_ != 1) {
      raise(Errc::kState, "leaf operation must post exactly one token, got " +
                              std::to_string(posted_));
    }
    if (kind_ == OpKind::kMerge && posted_ != 1) {
      raise(Errc::kState, "merge operation must post exactly one token, got " +
                              std::to_string(posted_));
    }
    if (t_on) {
      obs::Trace::instance().record(obs::EventKind::kOpEnd,
                                    controller_.self(), vertex_,
                                    static_cast<uint64_t>(kind_), t_ctx,
                                    t_seq);
      static obs::Histogram& op_latency =
          obs::Metrics::instance().histogram("dps.op.latency_ns");
      op_latency.observe(obs::trace_clock_ns() - t_begin);
    }
  }

  // --- OpServices -----------------------------------------------------------

  void post(Ptr<Token> token) override {
    DPS_CHECK(token.get() != nullptr, "postToken(nullptr)");
    // A leaf may repost its input instead of copying it, but not a
    // multicast input, whose receivers on this node share the object.
    // env_ keeps its reference, so the input outlives a repost that raises.
    if (kind_ == OpKind::kLeaf && env_.shared &&
        token.get() == env_.token.get()) {
      raise(Errc::kState,
            "leaf reposted its input token '" + token->typeInfo().name +
                "', which a multicast delivered; multicast inputs are "
                "read-only, post a copy instead");
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
    // object; destinations receive it read-only (Envelope::shared). The
    // last destination is held back (pre-routed) so split finalization can
    // stamp the total; on another node it arrives as a plain envelope with
    // an object of its own.
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
      last.shared = true;
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
      body = share_pooled(w.take());
      controller_.mcast_encodes_.fetch_add(1, std::memory_order_relaxed);
    }

    if (obs::tracing_active()) {
      obs::Trace::instance().record(obs::EventKind::kMcastSend,
                                    controller_.self_, target, K,
                                    remote_count,
                                    body.size());
      static obs::Counter& collectives =
          obs::Metrics::instance().counter("dps.mcast.collectives");
      collectives.inc();
    }

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
      env.shared = true;
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
        obs::Trace::instance().record(
            obs::EventKind::kDequeue, controller_.self(), env2.vertex,
            worker_.collection, worker_.index, worker_.run.size());
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

  /// Records one consumed token of the merge/stream input context; credits
  /// to remote splits are batched and flushed by flush_acks().
  void note_consumed(const SplitFrame& frame) {
    if (frame.split_node == controller_.self_) {
      controller_.apply_flow_release(frame.context, 1);
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
    controller_.send_flow_ack(ack_frame_, n);
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
  if (obs::Trace::instance().enabled()) {
    obs::Trace::instance().set_thread_name(w.label);
  }
  // Under virtual time, this DPS thread competes for its node's CPUs.
  domain.bind_cpu(static_cast<int>(self_));
  for (;;) {
    drain_inbox(w);
    Envelope env;
    if (!w.run.pop_front(&env)) {
      MutexLock lock(w.mu);
      try {
        domain.wait_until(w.wp, w.mu,
                          [&] { return w.poison || !w.inbox.empty(); });
      } catch (const Error&) {
        break;  // simulation stopped or stalled while idle
      }
      if (w.inbox.empty()) break;  // poisoned and drained
      continue;  // re-drain outside the lock
    }
    if (w.depth_slot != nullptr) {
      w.depth_slot->fetch_sub(1, std::memory_order_relaxed);
    }
    obs::Trace::instance().record(obs::EventKind::kDequeue, self_, env.vertex,
                                  w.collection, w.index, w.run.size());
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

void Controller::drain_inbox(Worker& w) {
  // Cheap out: producers bump inbox_count after appending; while it reads
  // 0 the worker skips the lock entirely. A stale 0 only delays the drain
  // to the pre-block re-check under mu, so no wakeup is lost.
  if (w.inbox_count.load(std::memory_order_relaxed) == 0) return;
  {
    MutexLock lock(w.mu);
    if (w.inbox.empty()) return;
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
}

void Controller::dispatch(Worker& w, Envelope env) {
  dispatched_.fetch_add(1, std::memory_order_relaxed);
  if (obs::tracing_active()) {
    static obs::Counter& tokens =
        obs::Metrics::instance().counter("dps.tokens.dispatched");
    tokens.inc();
  }
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
  DeliveryBatch::append(*this, worker(env.collection, env.thread), &env, 1);
}

void Controller::send_reply(Envelope env) {
  if (env.call_reply_node == self_) {
    cluster_.complete_call(env.call, std::move(env.token));
    return;
  }
  send_envelope(env.call_reply_node, FrameKind::kCallReply, env);
}

// --- Fabric I/O ------------------------------------------------------------

void Controller::fabric_send(NodeId target, FrameKind kind,
                             std::vector<std::byte> payload,
                             SharedPayload body) {
  if (obs::tracing_active()) {
    obs::Trace::instance().record(
        obs::EventKind::kFabricSend, self_, target,
        static_cast<uint64_t>(kind), 0,
        payload.size() + body.size());
    static obs::Counter& sent =
        obs::Metrics::instance().counter("dps.fabric.frames_sent");
    sent.inc();
  }
  if (body) {
    cluster_.fabric().send_shared(self_, target, kind, std::move(payload),
                                  std::move(body));
  } else {
    cluster_.fabric().send(self_, target, kind, std::move(payload));
  }
}

void Controller::mcast_ship(NodeId node, const McastEntry* entries, size_t n,
                            const SharedPayload& body) {
  Writer w(BufferPool::instance().acquire(mcast_header_size(n)));
  encode_mcast_header(w, entries, n);
  BufferPool::instance().note_growth(w.growth_count());
  mcast_frames_.fetch_add(1, std::memory_order_relaxed);
  if (obs::tracing_active()) {
    static obs::Counter& frames =
        obs::Metrics::instance().counter("dps.mcast.frames");
    frames.inc();
  }
  fabric_send(node, FrameKind::kMcastEnvelope, w.take(), body);
}

void Controller::send_envelope(NodeId target, FrameKind kind,
                               const Envelope& env) {
  WireEnvelope w = env.encode_for_wire();
  fabric_send(target, kind, std::move(w.head), std::move(w.tail));
}

void Controller::on_fabric_batch(std::vector<NodeMessage>&& msgs) {
  // Non-blocking by contract: enqueue, update accounts, notify.
  DeliveryBatch batch(*this);
  for (NodeMessage& msg : msgs) {
    if (msg.kind == FrameKind::kPeerDown) {
      // Transport-level death report (torn TCP stream, or a reliability
      // frame that did not decode).
      std::string reason;
      try {
        Reader r(msg.payload.data(), msg.payload.size());
        reason = r.get_string();
      } catch (const Error& e) {
        reason = e.what();
      }
      peer_failed(msg.from, reason);
      continue;
    }
    if (obs::tracing_active()) {
      obs::Trace::instance().record(obs::EventKind::kFabricRecv, self_,
                                    msg.from, static_cast<uint64_t>(msg.kind),
                                    0, msg.payload.size());
      static obs::Counter& received =
          obs::Metrics::instance().counter("dps.fabric.frames_received");
      received.inc();
    }
    try {
      handle_frame(msg, batch);
    } catch (const std::exception& e) {
      peer_failed(msg.from, "malformed frame (kind " +
                                std::to_string(static_cast<int>(msg.kind)) +
                                ") from node " + std::to_string(msg.from) +
                                ": " + e.what());
    }
    // A frame no token adopted goes back to the pool (which frees a small
    // one without taking its lock).
    BufferPool::instance().release(std::move(msg.payload));
  }
  // ~DeliveryBatch flushes the grouped envelopes.
}

void Controller::peer_failed(NodeId peer, const std::string& reason) {
  // Under fault tolerance the cluster converts the report into kNodeDown on
  // in-flight calls; otherwise it is surfaced loudly as a protocol error.
  if (cluster_.fault_tolerant() && peer < cluster_.node_count()) {
    cluster_.mark_node_down(peer, reason);
  } else {
    DPS_ERROR("node " << self_ << ": " << to_string(Errc::kProtocol) << ": "
                      << reason);
  }
}

void Controller::handle_frame(NodeMessage& msg, DeliveryBatch& batch) {
  // The one reader every token-bearing frame decodes through: a large
  // Buffer<T> at the frame's tail takes the frame instead of a copy.
  Reader r = Reader::adoptable(msg.payload);
  switch (msg.kind) {
    case FrameKind::kEnvelope:
      batch.add(Envelope::decode(r));
      break;
    case FrameKind::kFlowAck: {
      const FlowAck ack = decode_flow_ack(r);
      apply_flow_release(ack.context, ack.n);
      break;
    }
    case FrameKind::kMcastEnvelope:
      handle_mcast(msg.from, r, batch);
      break;
    case FrameKind::kCallReply: {
      Envelope env = Envelope::decode(r);
      cluster_.complete_call(env.call, std::move(env.token));
      break;
    }
    default:
      DPS_WARN("node " << self_ << ": unexpected frame kind "
                       << static_cast<int>(msg.kind) << " from node "
                       << msg.from);
  }
}

void Controller::handle_mcast(NodeId from, Reader& r, DeliveryBatch& batch) {
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
  const size_t body_bytes = r.remaining();
  Envelope base = Envelope::decode(r);
  if (base.frames.empty()) {
    raise(Errc::kProtocol, "multicast envelope without a split frame");
  }
  // Every entry becomes an envelope copy sharing one decode of the token.
  base.shared = true;
  for (const McastEntry& e : entries) {
    Envelope env = base;  // token pointer shared, not re-decoded
    env.thread = static_cast<ThreadIndex>(e.thread);
    env.frames.back().seq = e.seq;
    batch.add(std::move(env));
  }
  if (!entries.empty() && obs::tracing_active()) {
    obs::Trace::instance().record(obs::EventKind::kMcastDeliver, self_,
                                  base.vertex, entries.size(), entries.size(),
                                  body_bytes);
    static obs::Counter& deliveries =
        obs::Metrics::instance().counter("dps.mcast.deliveries");
    deliveries.inc(entries.size());
  }
}

// --- Flow control ------------------------------------------------------------

ContextId Controller::new_context_id() {
  return (static_cast<uint64_t>(self_ + 1) << 40) |
         (context_counter_.fetch_add(1, std::memory_order_relaxed) + 1);
}

void Controller::create_flow_account(ContextId ctx, uint32_t window) {
  auto acc = std::make_unique<FlowAccount>();
  acc->window = window;
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
  // `min_window` keeps a collective live: its posting worker may also serve
  // the merge that returns these very credits, so a wait that can only be
  // satisfied by releases is a deadlock, not backpressure.
  const uint32_t window = std::max(acc->window, min_window);
  cluster_.domain().wait_until(acc->wp, acc->mu, [&] {
    return acc->poison || acc->in_flight < window;
  });
  if (acc->poison) {
    raise(Errc::kState, "shutdown while waiting for flow-control window");
  }
  ++acc->in_flight;
  obs::Trace::instance().record(obs::EventKind::kFlowAcquire, self_, ctx, 0, 0,
                                acc->in_flight);
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

void Controller::apply_flow_release(ContextId ctx, uint32_t n) {
  MutexLock lock(flow_mu_);
  auto it = accounts_.find(ctx);
  if (it == accounts_.end()) return;  // late ack after account drained
  bool drained = false;
  {
    MutexLock al(it->second->mu);
    FlowAccount& acc = *it->second;
    acc.in_flight = (acc.in_flight >= n) ? acc.in_flight - n : 0;
    obs::Trace::instance().record(obs::EventKind::kFlowRelease, self_, ctx, 0,
                                  n, acc.in_flight);
    cluster_.domain().notify_all(acc.wp);
    drained = acc.finished && acc.in_flight == 0;
  }
  if (drained) accounts_.erase(it);
}

void Controller::send_flow_ack(const SplitFrame& frame, uint32_t n) {
  if (n == 0) return;
  if (frame.split_node == self_) {
    apply_flow_release(frame.context, n);
    return;
  }
  Writer w;
  encode_flow_ack(w, FlowAck{frame.context, n});
  fabric_send(frame.split_node, FrameKind::kFlowAck, w.take());
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
