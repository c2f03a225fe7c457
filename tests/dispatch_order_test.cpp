// Tests for the indexed worker dispatch structure (core/run_queue.hpp) and
// the ordering/fairness contracts the engine builds on it: tokens of one
// context reach their merge in FIFO order, collection openers never run
// re-entrantly under a waiting collection, and dispatchable work queued
// behind a wall of non-matching envelopes is still found in O(1).
#include <gtest/gtest.h>

#include <vector>

#include "core/application.hpp"
#include "core/controller.hpp"
#include "core/run_queue.hpp"

namespace dps {
namespace {

Envelope pending(VertexId vertex, ContextId ctx, uint32_t seq) {
  Envelope e;
  e.vertex = vertex;
  e.frames.push_back(SplitFrame{ctx, seq, 0, 0, 0});
  return e;
}

TEST(DispatchOrder, RunQueueFifoPerContext) {
  RunQueue q;
  // Two contexts interleaved on the same vertex.
  for (uint32_t i = 0; i < 5; ++i) {
    q.push(pending(3, 100, i), /*dispatchable=*/false);
    q.push(pending(3, 200, i), /*dispatchable=*/false);
  }
  EXPECT_EQ(q.size(), 10u);
  Envelope out;
  for (uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.pop_context(3, 200, &out));
    EXPECT_EQ(out.frames.back().seq, i) << "context 200 must stay FIFO";
  }
  EXPECT_FALSE(q.pop_context(3, 200, &out)) << "context 200 drained";
  for (uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.pop_context(3, 100, &out));
    EXPECT_EQ(out.frames.back().seq, i) << "context 100 must stay FIFO";
  }
  EXPECT_TRUE(q.empty());
}

TEST(DispatchOrder, RunQueueGlobalFifoSpansKinds) {
  RunQueue q;
  // Arrival order crosses bucketed and dispatchable envelopes; the
  // top-level pop_front must replay exactly that order.
  q.push(pending(1, 10, 0), false);
  q.push(pending(2, 0, 1), true);
  q.push(pending(1, 20, 2), false);
  q.push(pending(2, 0, 3), true);
  Envelope out;
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.pop_front(&out));
    EXPECT_EQ(out.frames.back().seq, i);
  }
  EXPECT_FALSE(q.pop_front(&out));
}

TEST(DispatchOrder, RunQueueDispatchableSkipsCollectionOpeners) {
  RunQueue q;
  // A wall of collection-opening envelopes ahead of one dispatchable leaf:
  // the old deque scanned past all of them; the indexed list goes straight
  // to the leaf and leaves the openers untouched.
  for (uint32_t i = 0; i < 100; ++i) q.push(pending(1, 1000 + i, i), false);
  q.push(pending(2, 0, 777), true);
  Envelope out;
  ASSERT_TRUE(q.pop_dispatchable(&out));
  EXPECT_EQ(out.frames.back().seq, 777u);
  EXPECT_FALSE(q.has_dispatchable());
  EXPECT_FALSE(q.pop_dispatchable(&out)) << "openers must not dispatch";
  EXPECT_EQ(q.size(), 100u);
}

TEST(DispatchOrder, RunQueuePopFrontMaintainsBuckets) {
  RunQueue q;
  q.push(pending(4, 50, 0), false);
  Envelope out;
  ASSERT_TRUE(q.pop_front(&out));
  // The bucket entry must go with it: a later context lookup finds nothing.
  EXPECT_FALSE(q.pop_context(4, 50, &out));
  EXPECT_TRUE(q.empty());
}

Envelope pending_for(TenantId tenant, uint32_t seq) {
  Envelope e = pending(2, 0, seq);
  e.tenant = tenant;
  return e;
}

TEST(DispatchOrder, RunQueueRoundRobinsAcrossTenants) {
  RunQueue q;
  // Tenant 1 floods the queue before tenants 2 and 3 contribute anything;
  // pop_dispatchable must still alternate across all three (seq encodes
  // tenant*100 + arrival index, so FIFO-within-tenant is checked too).
  for (uint32_t i = 0; i < 4; ++i) q.push(pending_for(1, 100 + i), true);
  for (uint32_t i = 0; i < 4; ++i) q.push(pending_for(2, 200 + i), true);
  for (uint32_t i = 0; i < 4; ++i) q.push(pending_for(3, 300 + i), true);
  Envelope out;
  for (uint32_t round = 0; round < 4; ++round) {
    for (uint32_t tenant = 1; tenant <= 3; ++tenant) {
      ASSERT_TRUE(q.pop_dispatchable(&out));
      EXPECT_EQ(out.tenant, tenant) << "round " << round;
      EXPECT_EQ(out.frames.back().seq, tenant * 100 + round);
    }
  }
  EXPECT_FALSE(q.pop_dispatchable(&out));
  EXPECT_TRUE(q.empty());
}

TEST(DispatchOrder, RunQueueRoundRobinSkipsDrainedTenants) {
  RunQueue q;
  // Uneven backlogs: once a tenant drains, the rotation tightens to the
  // remaining ones instead of burning turns on the empty queue.
  q.push(pending_for(7, 700), true);
  for (uint32_t i = 0; i < 3; ++i) q.push(pending_for(8, 800 + i), true);
  Envelope out;
  std::vector<uint32_t> order;
  while (q.pop_dispatchable(&out)) order.push_back(out.frames.back().seq);
  EXPECT_EQ(order, (std::vector<uint32_t>{700, 800, 801, 802}));
}

TEST(DispatchOrder, RunQueuePopFrontMaintainsTenantFifos) {
  RunQueue q;
  // Taking a dispatchable envelope through the global FIFO must unlink
  // it from its tenant queue as well.
  q.push(pending_for(5, 1), true);
  q.push(pending_for(6, 2), true);
  Envelope out;
  ASSERT_TRUE(q.pop_front(&out));
  EXPECT_EQ(out.frames.back().seq, 1u);
  ASSERT_TRUE(q.pop_dispatchable(&out));
  EXPECT_EQ(out.frames.back().seq, 2u) << "tenant 5's entry already taken";
  EXPECT_FALSE(q.has_dispatchable());
  EXPECT_TRUE(q.empty());
}

TEST(DispatchOrder, RunQueueSlotsRecycle) {
  RunQueue q;
  Envelope out;
  // Steady-state churn across all three pop paths; every element must come
  // back exactly once and in the right order even as slots are reused.
  for (int round = 0; round < 50; ++round) {
    const auto ctx = static_cast<ContextId>(round + 1);
    for (uint32_t i = 0; i < 8; ++i) q.push(pending(1, ctx, i), false);
    q.push(pending(2, 0, 99), true);
    ASSERT_TRUE(q.pop_dispatchable(&out));
    EXPECT_EQ(out.frames.back().seq, 99u);
    for (uint32_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(q.pop_context(1, ctx, &out));
      EXPECT_EQ(out.frames.back().seq, i);
    }
    EXPECT_TRUE(q.empty());
  }
}

// --- engine-level ordering / fairness --------------------------------------

class DSeqToken : public SimpleToken {
 public:
  int index;
  DSeqToken(int i = 0) : index(i) {}
  DPS_IDENTIFY(DSeqToken);
};

class DStartToken : public SimpleToken {
 public:
  int count;
  DStartToken(int c = 0) : count(c) {}
  DPS_IDENTIFY(DStartToken);
};

class DOrderToken : public SimpleToken {
 public:
  int in_order;  ///< 1 when every token arrived in posting order
  int received;
  DOrderToken(int ok = 0, int n = 0) : in_order(ok), received(n) {}
  DPS_IDENTIFY(DOrderToken);
};

class DMainThread : public Thread {
  DPS_IDENTIFY_THREAD(DMainThread);
};
class DWorkThread : public Thread {
  DPS_IDENTIFY_THREAD(DWorkThread);
};

DPS_ROUTE(DMainStartRoute, DMainThread, DStartToken, 0);
DPS_ROUTE(DWorkSeqRoute, DWorkThread, DSeqToken, 0);

class DSplit : public SplitOperation<DMainThread, TV1(DStartToken),
                                     TV1(DSeqToken)> {
 public:
  void execute(DStartToken* in) override {
    for (int i = 0; i < in->count; ++i) postToken(new DSeqToken(i));
  }
  DPS_IDENTIFY_OPERATION(DSplit);
};

class DOrderMerge : public MergeOperation<DWorkThread, TV1(DSeqToken),
                                          TV1(DOrderToken)> {
 public:
  void execute(DSeqToken* first) override {
    int expected = 0;
    int ok = first->index == expected++ ? 1 : 0;
    while (auto t = waitForNextToken()) {
      if (token_cast<DSeqToken>(t)->index != expected++) ok = 0;
    }
    postToken(new DOrderToken(ok, expected));
  }
  DPS_IDENTIFY_OPERATION(DOrderMerge);
};

TEST(DispatchOrder, SameContextTokensReachMergeInOrder) {
  Cluster cluster(ClusterConfig::inproc(1));
  Application app(cluster, "order");
  auto mains = app.thread_collection<DMainThread>("d-main");
  mains->map("node0");
  auto workers = app.thread_collection<DWorkThread>("d-work");
  workers->map("node0");
  auto graph = app.build_graph(
      FlowgraphNode<DSplit, DMainStartRoute>(mains) >>
          FlowgraphNode<DOrderMerge, DWorkSeqRoute>(workers),
      "order");
  ActorScope scope(cluster.domain(), "main");
  for (int count : {1, 17, 400}) {
    auto r = token_cast<DOrderToken>(graph->call(new DStartToken(count)));
    ASSERT_TRUE(r);
    EXPECT_EQ(r->received, count);
    EXPECT_EQ(r->in_order, 1) << count << " tokens must arrive in FIFO order";
  }
}

// Fairness: several graph calls in flight on ONE worker thread. Each call's
// merge is a distinct context; while the earliest merge waits, the other
// calls' envelopes sit in the same run queue as non-matching contexts. The
// leaf work of every call must still dispatch re-entrantly (no starvation),
// while the other merges' openers wait their turn — all calls completing
// with correct sums proves both halves.
class DPingToken : public SimpleToken {
 public:
  int value;
  DPingToken(int v = 0) : value(v) {}
  DPS_IDENTIFY(DPingToken);
};

class DPongToken : public SimpleToken {
 public:
  int value;
  DPongToken(int v = 0) : value(v) {}
  DPS_IDENTIFY(DPongToken);
};

class DSumToken : public SimpleToken {
 public:
  int64_t sum;
  DSumToken(int64_t s = 0) : sum(s) {}
  DPS_IDENTIFY(DSumToken);
};

DPS_ROUTE(DWorkPingRoute, DWorkThread, DPingToken, 0);
DPS_ROUTE(DWorkPongRoute, DWorkThread, DPongToken, 0);

class DPingSplit : public SplitOperation<DMainThread, TV1(DStartToken),
                                         TV2(DPingToken, DPongToken)> {
 public:
  void execute(DStartToken* in) override {
    postToken(new DPongToken(0));  // opens the collection
    for (int i = 1; i <= in->count; ++i) postToken(new DPingToken(i));
  }
  DPS_IDENTIFY_OPERATION(DPingSplit);
};

class DPingLeaf
    : public LeafOperation<DWorkThread, TV1(DPingToken), TV1(DPongToken)> {
 public:
  void execute(DPingToken* in) override {
    postToken(new DPongToken(in->value));
  }
  DPS_IDENTIFY_OPERATION(DPingLeaf);
};

class DSumMerge
    : public MergeOperation<DWorkThread, TV1(DPongToken), TV1(DSumToken)> {
 public:
  void execute(DPongToken* first) override {
    int64_t sum = first->value;
    while (auto t = waitForNextToken()) {
      sum += token_cast<DPongToken>(t)->value;
    }
    postToken(new DSumToken(sum));
  }
  DPS_IDENTIFY_OPERATION(DSumMerge);
};

TEST(DispatchOrder, ConcurrentCollectionsShareOneWorkerWithoutStarvation) {
  Cluster cluster(ClusterConfig::inproc(1));
  Application app(cluster, "fair");
  auto mains = app.thread_collection<DMainThread>("f-main");
  mains->map("node0");
  auto workers = app.thread_collection<DWorkThread>("f-work");
  workers->map("node0");  // one worker: every merge and leaf shares it
  FlowgraphNode<DPingSplit, DMainStartRoute> split(mains);
  FlowgraphNode<DPingLeaf, DWorkPingRoute> leaf(workers);
  FlowgraphNode<DSumMerge, DWorkPongRoute> merge(workers);
  FlowgraphBuilder b = split >> leaf >> merge;
  b += split >> merge;
  auto graph = app.build_graph(b, "fair");
  ActorScope scope(cluster.domain(), "main");

  std::vector<CallHandle> handles;
  std::vector<int> counts = {40, 1, 120, 7, 64, 200, 3, 90};
  handles.reserve(counts.size());
  for (int c : counts) handles.push_back(graph->call_async(new DStartToken(c)));
  for (size_t i = 0; i < handles.size(); ++i) {
    auto r = token_cast<DSumToken>(handles[i].wait());
    ASSERT_TRUE(r) << "call " << i;
    EXPECT_EQ(r->sum, int64_t(counts[i]) * (counts[i] + 1) / 2)
        << "call " << i << " (" << counts[i] << " pings)";
  }
}

}  // namespace
}  // namespace dps
