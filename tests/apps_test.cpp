// Integration tests for the experiment applications: the ring transfer
// graph (Fig. 6) and the block matrix multiplication (Table 1).
#include <gtest/gtest.h>

#include "apps/matmul.hpp"
#include "apps/ring.hpp"
#include "net/shm_fabric.hpp"
#include "serial/buffer_pool.hpp"

namespace dps {
namespace {

using apps::build_matmul_graph;
using apps::build_ring_graph;
using apps::RingDoneToken;
using apps::RingStartToken;

TEST(RingApp, AllBlocksArriveInproc) {
  Cluster cluster(ClusterConfig::inproc(4));
  Application app(cluster, "ring");
  auto graph = build_ring_graph(app, 4);
  ActorScope scope(cluster.domain(), "main");
  auto done =
      token_cast<RingDoneToken>(graph->call(new RingStartToken(25, 4096)));
  ASSERT_TRUE(done);
  EXPECT_EQ(done->blocks, 25);
  EXPECT_EQ(done->payload_bytes, 25ll * 4096);
  // Every block crossed 4 inter-node links (3 forwards + return to merge).
  EXPECT_GE(cluster.fabric().messages_sent(), 100u);
}

TEST(RingApp, ThroughputScalesWithModeledBandwidth) {
  // Under virtual time, halving the link bandwidth must roughly double the
  // steady-state transfer time of a payload-dominated ring.
  auto run = [](double bandwidth) {
    LinkModel link;
    link.bandwidth_bytes_per_s = bandwidth;
    link.latency_s = 1e-4;
    link.per_message_s = 0;
    Cluster cluster(ClusterConfig::simulated(4, link));
    Application app(cluster, "ring");
    auto graph = build_ring_graph(app, 4);
    ActorScope scope(cluster.domain(), "main");
    auto done = token_cast<RingDoneToken>(
        graph->call(new RingStartToken(20, 100 * 1024)));
    EXPECT_TRUE(done.get() != nullptr);
    return cluster.domain().now();
  };
  const double t_fast = run(70e6);
  const double t_slow = run(35e6);
  EXPECT_GT(t_slow, 1.7 * t_fast);
  EXPECT_LT(t_slow, 2.3 * t_fast);
}

TEST(RingApp, TwoHopDegenerateRing) {
  Cluster cluster(ClusterConfig::inproc(2));
  Application app(cluster, "ring2");
  auto graph = build_ring_graph(app, 2);
  ActorScope scope(cluster.domain(), "main");
  auto done =
      token_cast<RingDoneToken>(graph->call(new RingStartToken(5, 128)));
  ASSERT_TRUE(done);
  EXPECT_EQ(done->blocks, 5);
}

// RingForward reposts its input block instead of copying it. Blocks that
// carry a pattern must reach the merge byte-exact on every transport, at
// sizes either side of the threshold where a receiver adopts the frame.
using apps::RingBlockToken;
using apps::RingForward;
using apps::RingHopRoute;
using apps::RingSinkRoute;
using apps::RingSinkThread;
using apps::RingStartRoute;
using apps::RingThread;

size_t pattern_block_size(int32_t index) {
  const size_t sizes[] = {1000, kPooledBlockBytes - 1, kPooledBlockBytes,
                          100 * 1000};
  return sizes[index % 4];
}

uint8_t pattern_byte(int32_t index, size_t j) {
  return static_cast<uint8_t>((static_cast<size_t>(index) * 131 + j * 7) ^
                              (j >> 8));
}

class RingPatternSplit
    : public SplitOperation<RingThread, TV1(RingStartToken),
                            TV1(RingBlockToken)> {
 public:
  void execute(RingStartToken* in) override {
    for (int32_t i = 0; i < in->block_count; ++i) {
      auto* block = new RingBlockToken();
      block->hop = 1;
      block->index = i;
      block->payload.resize(pattern_block_size(i));
      for (size_t j = 0; j < block->payload.size(); ++j) {
        block->payload[j] = pattern_byte(i, j);
      }
      postToken(block);
    }
  }
  DPS_IDENTIFY_OPERATION(RingPatternSplit);
};

/// Reports the block count, and the byte total only when every byte of
/// every block matched (-1 otherwise).
class RingPatternMerge
    : public MergeOperation<RingSinkThread, TV1(RingBlockToken),
                            TV1(RingDoneToken)> {
 public:
  void execute(RingBlockToken* first) override {
    int32_t blocks = 0;
    int64_t bytes = 0;
    bool exact = true;
    Ptr<Token> t(first);
    do {
      auto block = token_cast<RingBlockToken>(t);
      const int32_t index = block->index.get();
      exact = exact && block->payload.size() == pattern_block_size(index);
      for (size_t j = 0; exact && j < block->payload.size(); ++j) {
        exact = block->payload[j] == pattern_byte(index, j);
      }
      bytes += static_cast<int64_t>(block->payload.size());
      ++blocks;
    } while ((t = waitForNextToken()));
    postToken(new RingDoneToken(blocks, exact ? bytes : -1));
  }
  DPS_IDENTIFY_OPERATION(RingPatternMerge);
};

void expect_reposted_ring_byte_exact(
    ClusterConfig config, const char* hops = "node0 node1 node2 node3") {
  constexpr int kHops = 4;
  constexpr int32_t kBlocks = 96;
  Cluster cluster(std::move(config));
  Application app(cluster, "ring-pattern");
  auto ring = app.thread_collection<RingThread>("pattern_ring");
  ring->map(hops);
  auto sink = app.thread_collection<RingSinkThread>("pattern_sink");
  sink->map("node0");
  FlowgraphNode<RingPatternSplit, RingStartRoute> split(ring);
  FlowgraphNode<RingPatternMerge, RingSinkRoute> merge(sink);
  auto chain = split >> FlowgraphNode<RingForward, RingHopRoute>(ring);
  for (int h = 2; h < kHops; ++h) {
    chain = std::move(chain) >> FlowgraphNode<RingForward, RingHopRoute>(ring);
  }
  FlowgraphBuilder builder = std::move(chain) >> merge;
  auto graph = app.build_graph(builder, "ring-pattern");
  ActorScope scope(cluster.domain(), "main");
  // A refused repost loses its block; the deadline turns that into a
  // failure instead of a hang.
  auto done = token_cast<RingDoneToken>(
      graph->call_async(new RingStartToken(kBlocks, 0))
          .with_deadline(30000)
          .wait());
  ASSERT_TRUE(done);
  EXPECT_EQ(done->blocks, kBlocks);
  int64_t want = 0;
  for (int32_t i = 0; i < kBlocks; ++i) {
    want += static_cast<int64_t>(pattern_block_size(i));
  }
  EXPECT_EQ(done->payload_bytes, want) << "-1: a block arrived corrupted";
}

TEST(RingApp, RepostedBlocksStayByteExactInproc) {
  expect_reposted_ring_byte_exact(ClusterConfig::inproc(4));
}

TEST(RingApp, RepostedBlocksStayByteExactOverTcp) {
  expect_reposted_ring_byte_exact(ClusterConfig::tcp(4));
}

TEST(RingApp, RepostedBlocksStayByteExactWithinOneNode) {
  // Every hop hands the same object to the next one by pointer, and the
  // upstream execution may still hold it while the next runs: that must
  // not refuse the repost.
  expect_reposted_ring_byte_exact(ClusterConfig::inproc(1),
                                  "node0 node0 node0 node0");
}

TEST(RingApp, RepostedBlocksStayByteExactOverShm) {
  if (!shm_available()) GTEST_SKIP() << "POSIX shared memory unavailable";
  expect_reposted_ring_byte_exact(ClusterConfig::shm(4));
}

class MatMulParam : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(MatMulParam, MatchesSequentialGemm) {
  const auto [n, s, workers] = GetParam();
  Cluster cluster(ClusterConfig::inproc(workers + 1));
  Application app(cluster, "matmul");
  auto graph = build_matmul_graph(app, workers);
  ActorScope scope(cluster.domain(), "main");

  la::Matrix a(static_cast<size_t>(n), static_cast<size_t>(n));
  la::Matrix b(static_cast<size_t>(n), static_cast<size_t>(n));
  a.fill_random(1);
  b.fill_random(2);
  la::Matrix c = apps::run_matmul(*graph, a, b, s);
  EXPECT_LT(la::max_abs_diff(c, la::gemm(a, b)), 1e-9)
      << "n=" << n << " s=" << s << " workers=" << workers;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MatMulParam,
    ::testing::Values(std::make_tuple(16, 2, 1), std::make_tuple(16, 4, 2),
                      std::make_tuple(32, 4, 3), std::make_tuple(32, 8, 4),
                      std::make_tuple(64, 8, 2), std::make_tuple(48, 3, 2)));

TEST(MatMulApp, SyntheticModeChargesVirtualTime) {
  Cluster cluster(ClusterConfig::simulated(3));
  Application app(cluster, "matmul-sim");
  auto graph = build_matmul_graph(app, 2);
  ActorScope scope(cluster.domain(), "main");
  la::Matrix a(64, 64), b(64, 64);
  a.fill_random(3);
  b.fill_random(4);
  (void)apps::run_matmul(*graph, a, b, 4, /*sim_flops_per_s=*/220e6);
  // 2*64^3 flops at 220 MFLOPS across 2 workers >= 1.2 ms of virtual time.
  EXPECT_GT(cluster.domain().now(), 2.0 * 64 * 64 * 64 / 220e6 / 2 * 0.9);
}

TEST(MatMulApp, NarrowWindowSerializesTransfers) {
  // The Table 1 "no overlap" baseline: flow window = one task per worker.
  ClusterConfig cfg = ClusterConfig::simulated(3);
  cfg.flow_window = 2;  // 2 workers
  Cluster narrow_cluster(cfg);
  Application napp(narrow_cluster, "mm");
  auto ngraph = build_matmul_graph(napp, 2);
  double t_narrow = 0, t_wide = 0;
  la::Matrix a(64, 64), b(64, 64);
  a.fill_random(5);
  b.fill_random(6);
  {
    ActorScope scope(narrow_cluster.domain(), "main");
    (void)apps::run_matmul(*ngraph, a, b, 8, 50e6);
    t_narrow = narrow_cluster.domain().now();
  }
  Cluster wide_cluster(ClusterConfig::simulated(3));
  Application wapp(wide_cluster, "mm");
  auto wgraph = build_matmul_graph(wapp, 2);
  {
    ActorScope scope(wide_cluster.domain(), "main");
    (void)apps::run_matmul(*wgraph, a, b, 8, 50e6);
    t_wide = wide_cluster.domain().now();
  }
  EXPECT_LT(t_wide, t_narrow)
      << "pipelined transfers must beat the serialized window";
}

}  // namespace
}  // namespace dps
