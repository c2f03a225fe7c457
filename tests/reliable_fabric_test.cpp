// The reliability layer on its own (docs/FAULT_TOLERANCE.md): raw frames
// through ReliableFabric over a ChaosFabric that drops, duplicates and
// delays them, with no engine on top. Every link must deliver each frame
// exactly once, every injected drop of a kReliable frame must be matched by
// a retransmission, and the unacked set must drain at quiescence. Replay a
// failing sweep with DPS_TEST_SEED=<seed> ./dps_tests
// --gtest_filter=ReliableFabric.*
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/chaos_fabric.hpp"
#include "net/inproc_transport.hpp"
#include "net/reliable_fabric.hpp"
#include "net/tcp_transport.hpp"
#include "serial/buffer_pool.hpp"
#include "serial/wire.hpp"
#include "test_seed.hpp"
#include "util/stopwatch.hpp"

namespace dps {
namespace {

constexpr NodeId kNodes = 3;
constexpr uint32_t kFramesPerLink = 150;

FaultToleranceConfig fast_config() {
  FaultToleranceConfig ft;
  ft.reliable = true;
  ft.rto_initial = 0.002;
  ft.rto_max = 0.02;
  ft.max_retries = 1000;  // the sweep measures delivery, not detection
  return ft;
}

std::vector<std::byte> indexed_payload(uint32_t index) {
  Writer w;
  w.put<uint32_t>(index);
  w.put_raw(std::vector<std::byte>(44, std::byte{0x5a}).data(), 44);
  return w.take();
}

/// Everything the upper layer saw, per directed link.
struct Sink {
  std::mutex mu;
  std::map<std::pair<NodeId, NodeId>, std::vector<uint32_t>> got;
  uint64_t foreign = 0;  ///< frames that were not indexed kEnvelope payloads

  void attach(ReliableFabric& rf, NodeId node) {
    rf.attach_batch(node, [this, node](std::vector<NodeMessage>&& msgs) {
      std::lock_guard<std::mutex> lock(mu);
      for (const NodeMessage& m : msgs) {
        if (m.kind != FrameKind::kEnvelope || m.payload.size() != 48) {
          ++foreign;
          continue;
        }
        Reader r(m.payload);
        got[{m.from, node}].push_back(r.get<uint32_t>());
      }
    });
  }

  size_t distinct_total() {
    std::lock_guard<std::mutex> lock(mu);
    size_t n = 0;
    for (auto& [link, seen] : got) {
      std::vector<uint32_t> v = seen;
      std::sort(v.begin(), v.end());
      n += static_cast<size_t>(std::unique(v.begin(), v.end()) - v.begin());
    }
    return n;
  }
};

/// Plays the cluster monitor: ticks every node until every frame arrived
/// and every link's unacked set is empty, or the deadline passes.
void tick_to_quiescence(ReliableFabric& rf, Sink& sink, size_t expected) {
  const double deadline = mono_seconds() + 20;
  while (mono_seconds() < deadline) {
    if (sink.distinct_total() == expected && rf.unacked_frames() == 0) return;
    for (NodeId n = 0; n < kNodes; ++n) (void)rf.tick(n, mono_seconds());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void run_sweep(bool tcp, uint32_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.all.drop = 0.10;
  plan.all.duplicate = 0.08;
  plan.all.delay_min = 0.0;
  plan.all.delay_max = 0.001;  // reordering pressure
  Sink sink;  // outlives the fabrics, whose threads deliver into it
  std::shared_ptr<Fabric> transport;
  if (tcp) {
    transport = std::make_shared<TcpFabric>(kNodes);
  } else {
    transport = std::make_shared<InprocFabric>(kNodes);
  }
  auto chaos = std::make_shared<ChaosFabric>(transport, plan);
  ReliableFabric rf(chaos, kNodes, fast_config());
  for (NodeId n = 0; n < kNodes; ++n) sink.attach(rf, n);

  for (uint32_t i = 0; i < kFramesPerLink; ++i) {
    for (NodeId from = 0; from < kNodes; ++from) {
      for (NodeId to = 0; to < kNodes; ++to) {
        if (from == to) continue;
        rf.send(from, to, FrameKind::kEnvelope, indexed_payload(i));
      }
    }
  }
  const size_t links = kNodes * (kNodes - 1);
  tick_to_quiescence(rf, sink, links * kFramesPerLink);
  const uint64_t drops = chaos->frames_dropped(FrameKind::kReliable);
  rf.shutdown();

  std::lock_guard<std::mutex> lock(sink.mu);
  EXPECT_EQ(sink.foreign, 0u) << "only unwrapped data frames reach the top";
  ASSERT_EQ(sink.got.size(), links);
  for (auto& [link, seen] : sink.got) {
    std::vector<uint32_t> sorted = seen;
    std::sort(sorted.begin(), sorted.end());
    ASSERT_EQ(sorted.size(), kFramesPerLink)
        << "link " << link.first << "->" << link.second
        << ": every frame exactly once";
    for (uint32_t i = 0; i < kFramesPerLink; ++i) {
      ASSERT_EQ(sorted[i], i) << "link " << link.first << "->" << link.second;
    }
  }
  EXPECT_GT(drops, 0u) << "the sweep must actually have exercised loss";
  EXPECT_GE(rf.retransmissions(), drops)
      << "every dropped reliable frame must be retransmitted";
  EXPECT_GT(chaos->frames_duplicated(), 0u);
  EXPECT_GT(rf.duplicates_suppressed(), 0u)
      << "injected duplicates must be caught by the receive filter";
  EXPECT_EQ(rf.unacked_frames(), 0u) << "the unacked set drains at quiescence";
}

TEST(ReliableFabric, ExactlyOncePerLinkOverChaosInproc) {
  const uint32_t seed = dps_testing::effective_seed(0x7e11);
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  run_sweep(/*tcp=*/false, seed);
}

TEST(ReliableFabric, ExactlyOncePerLinkOverChaosTcp) {
  const uint32_t seed = dps_testing::effective_seed(0x7e12);
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  run_sweep(/*tcp=*/true, seed);
}

// A dead peer's link is a black hole: its retained frames are dropped (the
// buffers go back to the pool), timers stop retransmitting them, and later
// sends to it are swallowed.
TEST(ReliableFabric, PeerDownStopsRetransmitsAndRecyclesBuffers) {
  constexpr uint32_t kStuck = 20;
  Sink sink;
  auto chaos = std::make_shared<ChaosFabric>(
      std::make_shared<InprocFabric>(2), FaultPlan{});
  ReliableFabric rf(chaos, 2, fast_config());
  sink.attach(rf, 0);
  sink.attach(rf, 1);
  chaos->kill_node(1);
  for (uint32_t i = 0; i < kStuck; ++i) {
    rf.send(0, 1, FrameKind::kEnvelope, indexed_payload(i));
  }
  ASSERT_EQ(rf.unacked_frames(), kStuck);
  (void)rf.tick(0, mono_seconds() + 1);
  ASSERT_GE(rf.retransmissions(), kStuck) << "overdue frames are retried";

  const BufferPool::Stats before = BufferPool::instance().stats();
  rf.peer_down(1);
  const BufferPool::Stats after = BufferPool::instance().stats();
  EXPECT_EQ(rf.unacked_frames(), 0u);
  EXPECT_GE(after.releases + after.dropped - before.releases - before.dropped,
            uint64_t{kStuck})
      << "every retained frame body must return to the pool";

  const uint64_t retransmitted = rf.retransmissions();
  const uint64_t severed = chaos->frames_dropped();
  EXPECT_TRUE(rf.tick(0, mono_seconds() + 100).empty());
  rf.send(0, 1, FrameKind::kEnvelope, indexed_payload(kStuck));
  EXPECT_EQ(rf.retransmissions(), retransmitted);
  EXPECT_EQ(chaos->frames_dropped(), severed)
      << "nothing is sent toward a dead peer any more";
  EXPECT_EQ(rf.unacked_frames(), 0u);
  EXPECT_TRUE(rf.stale_peers(0, mono_seconds() + 100, 1).empty())
      << "a dead peer is no longer judged";
  rf.shutdown();
}

// Frames the reliability layer does not own pass through in both
// directions byte for byte; so does everything while `reliable` is off.
TEST(ReliableFabric, OtherFrameKindsPassThroughUntouched) {
  std::vector<NodeMessage> seen;
  auto inproc = std::make_shared<InprocFabric>(2);
  FaultToleranceConfig heartbeat_only;
  heartbeat_only.heartbeat = true;
  ReliableFabric rf(inproc, 2, heartbeat_only);
  // Let both links age past the staleness threshold used below.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  rf.attach_batch(0, [](std::vector<NodeMessage>&&) {});
  rf.attach_batch(1, [&](std::vector<NodeMessage>&& msgs) {
    for (NodeMessage& m : msgs) seen.push_back(std::move(m));
  });
  Writer reason;
  reason.put_string("torn stream");
  const std::vector<std::byte> down = reason.bytes();
  rf.send(0, 1, FrameKind::kEnvelope, std::vector<std::byte>(5, std::byte{7}));
  inproc->send(0, 1, FrameKind::kPeerDown, down);
  rf.send_heartbeats(0);  // consumed below the handler
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].kind, FrameKind::kEnvelope);
  EXPECT_EQ(seen[0].payload, std::vector<std::byte>(5, std::byte{7}));
  EXPECT_EQ(seen[1].kind, FrameKind::kPeerDown);
  EXPECT_EQ(seen[1].payload, down);
  EXPECT_EQ(rf.unacked_frames(), 0u) << "nothing is retained when unreliable";
  EXPECT_TRUE(rf.stale_peers(1, mono_seconds(), 0.05).empty())
      << "node 0's heartbeat refreshed node 1's view of it";
  EXPECT_EQ(rf.stale_peers(0, mono_seconds(), 0.05), std::vector<NodeId>{1})
      << "node 1 never beaconed";
  rf.shutdown();
}

}  // namespace
}  // namespace dps
