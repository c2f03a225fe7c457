// End-to-end tests of the DPS core engine using the paper's tutorial
// application: split a string into characters, uppercase them on a thread
// collection spread over the cluster, merge them back in order.
#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "net/fabric.hpp"
#include "net/inproc_transport.hpp"
#include "net/tcp_transport.hpp"
#include "obs/trace.hpp"
#include "obs/trace_query.hpp"
#include "serial/buffer_pool.hpp"
#include "tests/mcast_app.hpp"
#include "tests/toupper_app.hpp"

namespace dps {
namespace {

using namespace dps_tutorial;

std::string run_toupper(Cluster& cluster, const std::string& input,
                        int compute_threads) {
  Application app(cluster, "toupper-test");
  auto graph = build_toupper_graph(app, compute_threads);
  ActorScope scope(cluster.domain(), "test-main");
  auto result =
      token_cast<StringToken>(graph->call(new StringToken(input.c_str())));
  if (!result) return "<no result>";
  return std::string(result->str, static_cast<size_t>(result->len));
}

TEST(ToUpper, SingleNodeSingleThread) {
  Cluster cluster(ClusterConfig::inproc(1));
  EXPECT_EQ(run_toupper(cluster, "hello world", 1), "HELLO WORLD");
}

TEST(ToUpper, InprocFourNodes) {
  Cluster cluster(ClusterConfig::inproc(4));
  EXPECT_EQ(run_toupper(cluster, "hello, distributed world!", 4),
            "HELLO, DISTRIBUTED WORLD!");
}

TEST(ToUpper, MoreThreadsThanNodes) {
  // The paper's "nodeA*2 nodeB" multiplier: several DPS threads per node.
  Cluster cluster(ClusterConfig::inproc(2));
  EXPECT_EQ(run_toupper(cluster, "multiplier mapping", 6),
            "MULTIPLIER MAPPING");
}

TEST(ToUpper, OverTcpSockets) {
  Cluster cluster(ClusterConfig::tcp(3));
  EXPECT_EQ(run_toupper(cluster, "over real sockets", 3),
            "OVER REAL SOCKETS");
}

TEST(ToUpper, UnderVirtualTime) {
  Cluster cluster(ClusterConfig::simulated(4));
  EXPECT_EQ(run_toupper(cluster, "simulated cluster", 4),
            "SIMULATED CLUSTER");
  EXPECT_GT(cluster.domain().now(), 0.0)
      << "tokens crossed modeled links, the virtual clock must have moved";
}

TEST(ToUpper, RepeatedCallsPipelste) {
  Cluster cluster(ClusterConfig::inproc(2));
  Application app(cluster, "pipeline");
  auto graph = build_toupper_graph(app, 2);
  ActorScope scope(cluster.domain(), "test-main");
  // Several overlapping calls through the same graph.
  std::vector<CallHandle> handles;
  std::vector<std::string> inputs;
  for (int i = 0; i < 16; ++i) {
    inputs.push_back("call number " + std::to_string(i));
    handles.push_back(graph->call_async(new StringToken(inputs.back().c_str())));
  }
  for (int i = 0; i < 16; ++i) {
    auto result = token_cast<StringToken>(handles[static_cast<size_t>(i)].wait());
    ASSERT_TRUE(result);
    std::string expect = inputs[static_cast<size_t>(i)];
    for (auto& c : expect) c = static_cast<char>(std::toupper(c));
    EXPECT_EQ(std::string(result->str, static_cast<size_t>(result->len)),
              expect);
  }
}

TEST(ToUpper, SingleCharacterString) {
  Cluster cluster(ClusterConfig::inproc(2));
  EXPECT_EQ(run_toupper(cluster, "x", 2), "X");
}

TEST(ToUpper, ThreadStatePersistsAcrossExecutions) {
  // ComputeThread::executions counts per-thread work: after a call with N
  // characters over 1 thread, that thread must have executed N times —
  // thread member state persists, the basis for distributed data structures.
  Cluster cluster(ClusterConfig::inproc(1));
  Application app(cluster, "state");
  auto graph = build_toupper_graph(app, 1);
  ActorScope scope(cluster.domain(), "test-main");
  auto r1 = graph->call(new StringToken("aaaa"));
  ASSERT_TRUE(r1);
  auto r2 = graph->call(new StringToken("bb"));
  ASSERT_TRUE(r2);
  // 4 + 2 executions on the single compute thread; verified indirectly: a
  // third call still works and the engine dispatched 6 leaf executions.
  EXPECT_GE(cluster.controller(0).dispatched(), 6u);
}

// A leaf slow enough (~2 ms per token) that its executions are visible next
// to the merge's collection window in the flight recorder.
class SlowUpper
    : public LeafOperation<ComputeThread, TV1(CharToken), TV1(CharToken)> {
 public:
  void execute(CharToken* in) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    postToken(new CharToken(
        static_cast<char>(std::toupper(static_cast<unsigned char>(in->chr))),
        in->pos));
  }
  DPS_IDENTIFY_OPERATION(SlowUpper);
};

// The paper's Table 1 claim — DPS pipelines implicitly, overlapping the
// collecting merge with still-running compute — proven from the trace: the
// merge's kOpStart..kOpEnd interval must overlap leaf execution intervals
// by a nonzero window.
TEST(ToUpper, TraceProvesComputeMergeOverlap) {
  obs::Trace::instance().reset();
  obs::Trace::instance().configure(
      {/*enabled=*/true, /*sample_every=*/1, /*buffer_capacity=*/1u << 15});
  {
    Cluster cluster(ClusterConfig::inproc(1));
    Application app(cluster, "overlap");
    auto main_threads = app.thread_collection<MainThread>("main");
    main_threads->map("node0");
    auto compute = app.thread_collection<ComputeThread>("proc");
    compute->map(round_robin_mapping({"node0"}, 2));
    FlowgraphBuilder b =
        FlowgraphNode<SplitString, MainRoute>(main_threads) >>
        FlowgraphNode<SlowUpper, RoundRobinRoute>(compute) >>
        FlowgraphNode<MergeString, MainCharRoute>(main_threads);
    auto graph = app.build_graph(b, "overlap");
    ActorScope scope(cluster.domain(), "test-main");
    auto result = token_cast<StringToken>(
        graph->call(new StringToken("pipelining overlap probe")));
    ASSERT_TRUE(result);
    EXPECT_EQ(std::string(result->str, static_cast<size_t>(result->len)),
              "PIPELINING OVERLAP PROBE");
  }
  obs::TraceQuery q(obs::Trace::instance().collect());
  obs::Trace::instance().set_enabled(false);
  obs::Trace::instance().reset();

  std::vector<obs::TraceQuery::Interval> leaves, merges;
  for (const auto& iv : q.intervals()) {
    if (iv.opkind == static_cast<uint64_t>(OpKind::kLeaf)) {
      leaves.push_back(iv);
    } else if (iv.opkind == static_cast<uint64_t>(OpKind::kMerge)) {
      merges.push_back(iv);
    }
  }
  ASSERT_FALSE(leaves.empty()) << "leaf executions must be recorded";
  ASSERT_FALSE(merges.empty()) << "the merge execution must be recorded";
  EXPECT_GT(obs::TraceQuery::overlap_ns(merges, leaves), 0u)
      << "the merge must collect while leaves still compute";
}

// A split that spends ~0.5 ms producing each character, like a producer
// that computes its tokens: it is still executing while the sender thread
// ships the tokens it already posted. (A split that posts all 96 tokens in
// a quarter of a millisecond finishes before the lazy connect does, and on
// a loaded host the one writev batch can then fall in the gap before the
// first node-0 leaf starts.)
class PacedSplitString
    : public SplitOperation<MainThread, TV1(StringToken), TV1(CharToken)> {
 public:
  void execute(StringToken* in) override {
    for (int i = 0; i < in->len; ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      postToken(new CharToken(in->str[i], i));
    }
  }
  DPS_IDENTIFY_OPERATION(PacedSplitString);
};

// The asynchronous transmit path's reason to exist: on the sending node,
// operation executions (split posting tokens, leaves computing) must overlap
// the sender thread's writev batches — with the old synchronous path the
// worker sat inside send_all and the two could never overlap.
TEST(ToUpper, TraceProvesComputeTransmitOverlap) {
  obs::Trace::instance().reset();
  obs::Trace::instance().configure(
      {/*enabled=*/true, /*sample_every=*/1, /*buffer_capacity=*/1u << 15});
  {
    Cluster cluster(ClusterConfig::tcp(2));
    Application app(cluster, "tx-overlap");
    auto main_threads = app.thread_collection<MainThread>("main");
    main_threads->map("node0");
    auto compute = app.thread_collection<ComputeThread>("proc");
    compute->map(round_robin_mapping({"node0", "node1"}, 4));
    FlowgraphBuilder b =
        FlowgraphNode<PacedSplitString, MainRoute>(main_threads) >>
        FlowgraphNode<SlowUpper, RoundRobinRoute>(compute) >>
        FlowgraphNode<MergeString, MainCharRoute>(main_threads);
    auto graph = app.build_graph(b, "tx-overlap");
    ActorScope scope(cluster.domain(), "test-main");
    const std::string input(96, 'q');
    auto result =
        token_cast<StringToken>(graph->call(new StringToken(input.c_str())));
    ASSERT_TRUE(result);
    EXPECT_EQ(std::string(result->str, static_cast<size_t>(result->len)),
              std::string(96, 'Q'));
  }
  obs::TraceQuery q(obs::Trace::instance().collect());
  obs::Trace::instance().set_enabled(false);
  obs::Trace::instance().reset();

  std::vector<obs::TraceQuery::Interval> compute0;
  for (const auto& iv : q.intervals()) {
    if (iv.node == 0) compute0.push_back(iv);
  }
  const auto transmit0 = q.transmit_intervals(/*node=*/0);
  ASSERT_FALSE(compute0.empty()) << "node-0 executions must be recorded";
  ASSERT_FALSE(transmit0.empty()) << "node-0 writev batches must be recorded";
  EXPECT_GT(obs::TraceQuery::overlap_ns(compute0, transmit0), 0u)
      << "the sender thread must transmit while node-0 operations execute";
}

class EmptySplit
    : public SplitOperation<MainThread, TV1(StringToken), TV1(CharToken)> {
 public:
  void execute(StringToken*) override {}
  DPS_IDENTIFY_OPERATION(EmptySplit);
};

TEST(GraphValidation, EmptySplitIsAnError) {
  // A split that posts zero tokens breaks its merge; the engine reports it
  // (the call then never completes, so use the simulated domain where the
  // stall is diagnosed as a deadlock).
  Cluster cluster(ClusterConfig::simulated(1));
  Application app(cluster, "empty-split");
  auto main_threads = app.thread_collection<MainThread>("main");
  main_threads->map("node0");
  auto compute = app.thread_collection<ComputeThread>("proc");
  compute->map("node0");
  FlowgraphBuilder b = FlowgraphNode<EmptySplit, MainRoute>(main_threads) >>
                       FlowgraphNode<ToUpperCase, RoundRobinRoute>(compute) >>
                       FlowgraphNode<MergeString, MainCharRoute>(main_threads);
  auto graph = app.build_graph(b, "empty");
  ActorScope scope(cluster.domain(), "test-main");
  auto handle = graph->call_async(new StringToken("ignored"));
  EXPECT_THROW((void)handle.wait(), Error);  // deadlock diagnosis
}

// ---------------------------------------------------------------------------
// Multicast collectives: one encode, K transmits (docs/PERFORMANCE.md)
// ---------------------------------------------------------------------------

/// Pass-through fabric wrapper that records the shared-body pointer of
/// every send_shared call — the proof that K multicast transmits reference
/// ONE encoded payload instead of K copies.
class SharedBodyRecorder : public Fabric {
 public:
  explicit SharedBodyRecorder(std::shared_ptr<Fabric> inner)
      : inner_(std::move(inner)) {}

  void attach_batch(NodeId self, BatchHandler handler) override {
    inner_->attach_batch(self, std::move(handler));
  }
  void send(NodeId from, NodeId to, FrameKind kind,
            std::vector<std::byte> payload) override {
    inner_->send(from, to, kind, std::move(payload));
  }
  void send_shared(NodeId from, NodeId to, FrameKind kind,
                   std::vector<std::byte> prefix, SharedPayload body) override {
    {
      std::lock_guard<std::mutex> lock(mu);
      bodies.push_back(body.data());
      body_bytes.push_back(body.size());
    }
    inner_->send_shared(from, to, kind, std::move(prefix), std::move(body));
  }
  void shutdown() override { inner_->shutdown(); }
  uint64_t bytes_sent() const override { return inner_->bytes_sent(); }
  uint64_t messages_sent() const override { return inner_->messages_sent(); }

  std::mutex mu;
  std::vector<const void*> bodies;
  std::vector<size_t> body_bytes;

 private:
  std::shared_ptr<Fabric> inner_;
};

// One collective with 8 destinations over 4 nodes must cost exactly one
// envelope encode and one kMcastEnvelope frame per remote node (the last
// destination rides the held-back unicast, so nodes 1..3 get one shared
// frame each); every frame's body is the SAME allocation, and no encode
// grows its pooled buffer.
TEST(Mcast, OneEncodeKTransmitSharesOnePayload) {
  constexpr int kFanout = 8;
  ClusterConfig cfg = ClusterConfig::inproc(4);
  auto recorder =
      std::make_shared<SharedBodyRecorder>(std::make_shared<InprocFabric>(4));
  cfg.external_fabric = recorder;
  BufferPool::instance().reset_stats();
  Cluster cluster(cfg);
  Application app(cluster, "bcast");
  auto graph = dps_mcast::build_bcast_graph(app, kFanout);
  ActorScope scope(cluster.domain(), "main");

  auto res = dps_mcast::run_bcast(*graph, kFanout, 0x5eed, 4096);
  ASSERT_TRUE(res);
  EXPECT_EQ(res->distinct, kFanout);
  EXPECT_EQ(res->duplicates, 0);
  EXPECT_EQ(res->uniform, 1);

  EXPECT_EQ(cluster.controller(0).multicast_encodes(), 1u)
      << "one collective => one envelope encode";
  EXPECT_EQ(cluster.controller(0).multicast_frames_sent(), 3u)
      << "flat fan-out: one frame per remote node (last dest held back as "
         "the unicast carrying the split total)";
  {
    std::lock_guard<std::mutex> lock(recorder->mu);
    ASSERT_EQ(recorder->bodies.size(), 3u);
    EXPECT_EQ(recorder->bodies[0], recorder->bodies[1]);
    EXPECT_EQ(recorder->bodies[1], recorder->bodies[2])
        << "all transmits must share one payload allocation";
    EXPECT_GT(recorder->body_bytes[0], size_t{4096})
        << "the shared body carries the encoded blob";
  }
  EXPECT_EQ(BufferPool::instance().stats().encode_growths, 0u)
      << "the single multicast encode must get an exact-size pooled buffer";
}

// Repeated collectives scale the counters linearly — the encode count stays
// one per collective regardless of fan-out, never one per destination.
TEST(Mcast, EncodeCountStaysOnePerCollective) {
  constexpr int kFanout = 12;
  constexpr int kCalls = 5;
  Cluster cluster(ClusterConfig::inproc(3));
  Application app(cluster, "bcast");
  auto graph = dps_mcast::build_bcast_graph(app, kFanout);
  ActorScope scope(cluster.domain(), "main");
  for (int i = 0; i < kCalls; ++i) {
    auto res = dps_mcast::run_bcast(*graph, kFanout,
                                    static_cast<uint64_t>(i), 1024);
    ASSERT_TRUE(res);
    EXPECT_EQ(res->distinct, kFanout);
  }
  EXPECT_EQ(cluster.controller(0).multicast_encodes(),
            static_cast<uint64_t>(kCalls));
  EXPECT_EQ(cluster.controller(0).multicast_frames_sent(),
            static_cast<uint64_t>(kCalls) * 2)  // nodes 1 and 2, one frame each
      << "K destinations never cost K frames";
}

// The bcast app maps its master collection onto a single thread, so the
// split and the merge share one worker. A flow window of 4 sits below the
// fan-out, and a collective that parked that worker in flow_acquire would
// deadlock: the only releases come from the colocated merge queued behind
// it. The collective window floor must keep it live, over both fabrics
// (the huge static default window masks this).
TEST(Mcast, WindowBelowFanoutCannotStarveSharedSplitMergeWorker) {
  constexpr int kFanout = 9;  // > the flow window (4)
  for (const bool tcp : {false, true}) {
    SCOPED_TRACE(tcp ? "tcp" : "inproc");
    ClusterConfig cfg =
        tcp ? ClusterConfig::tcp(3) : ClusterConfig::inproc(3);
    cfg.flow_window = 4;
    Cluster cluster(cfg);
    Application app(cluster, "bcast");
    auto graph = dps_mcast::build_bcast_graph(app, kFanout);
    ActorScope scope(cluster.domain(), "main");
    for (int r = 0; r < 3; ++r) {
      auto res = dps_mcast::run_bcast(*graph, kFanout,
                                      static_cast<uint64_t>(0xadab + r), 2048);
      ASSERT_TRUE(res);
      EXPECT_EQ(res->distinct, kFanout);
      EXPECT_EQ(res->duplicates, 0);
      EXPECT_EQ(res->uniform, 1);
    }
    EXPECT_EQ(cluster.controller(0).multicast_encodes(), 3u);
  }
}

// Trace-driven proof over the real TCP fabric: the flight recorder shows
// exactly one kMcastSend for the collective, one kMcastDeliver per remote
// node's frame, and the frames ride the async sender's coalesced kTxBatch
// windows — while the fabric-level recorder still sees a single shared
// body. This is the wire-level half of the one-encode-K-transmit claim.
TEST(Mcast, TraceShowsSharedTransmitsOverTcp) {
  constexpr int kFanout = 8;
  obs::Trace::instance().reset();
  obs::Trace::instance().configure(
      {/*enabled=*/true, /*sample_every=*/1, /*buffer_capacity=*/1u << 15});

  ClusterConfig cfg = ClusterConfig::tcp(4);
  auto recorder =
      std::make_shared<SharedBodyRecorder>(std::make_shared<TcpFabric>(4));
  cfg.external_fabric = recorder;
  uint64_t mcast_frames = 0;
  {
    Cluster cluster(cfg);
    Application app(cluster, "bcast");
    auto graph = dps_mcast::build_bcast_graph(app, kFanout);
    ActorScope scope(cluster.domain(), "main");
    auto res = dps_mcast::run_bcast(*graph, kFanout, 0x7cb, 2048);
    ASSERT_TRUE(res);
    EXPECT_EQ(res->distinct, kFanout);
    EXPECT_EQ(res->uniform, 1);
    mcast_frames = cluster.controller(0).multicast_frames_sent();
  }

  obs::TraceQuery q(obs::Trace::instance().collect());
  obs::Trace::instance().set_enabled(false);
  obs::Trace::instance().reset();

  EXPECT_EQ(q.count(obs::EventKind::kMcastSend), 1u)
      << "one collective => one mcast_send event";
  EXPECT_EQ(q.count(obs::EventKind::kMcastDeliver), mcast_frames)
      << "one grouped delivery per remote node's frame";
  uint64_t delivered = 0;
  for (const auto& ev : q.of_kind(obs::EventKind::kMcastDeliver)) {
    delivered += ev.e.b;  // a = target vertex, b = tokens delivered
  }
  EXPECT_EQ(delivered, 5u)
      << "threads 1,2,3,5,6 arrive via mcast frames (0,4 are local; 7 is "
         "the held-back unicast)";
  EXPECT_GE(q.transmit_intervals(0).size(), 1u)
      << "the shared frames must ride the async sender's kTxBatch windows";
  {
    std::lock_guard<std::mutex> lock(recorder->mu);
    ASSERT_GE(recorder->bodies.size(), 3u);
    EXPECT_EQ(recorder->bodies[0], recorder->bodies[1]);
    EXPECT_EQ(recorder->bodies[1], recorder->bodies[2]);
  }
}

}  // namespace
}  // namespace dps
