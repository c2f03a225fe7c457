// Adversarial shutdown/lock-order coverage (docs/STATIC_ANALYSIS.md).
//
// TcpFabric::shutdown() walks every per-peer sender queue under mu_, closes
// the queues under each OutConn::mu, and joins senders that are still
// draining — while producers race it with sends (blocking on OutConn::space
// backpressure) and, in reliable mode, ReliableFabric's ack retirement
// recycles frame buffers through the process-wide BufferPool. These tests
// drive all three at once from many threads so the tsan and asan-ubsan
// stages exercise the exact lock orders the thread-safety annotations
// describe: mu_ -> OutConn::mu, never the reverse, and no ReliableFabric
// endpoint lock held across a fabric send.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/application.hpp"
#include "core/cluster.hpp"
#include "net/tcp_transport.hpp"
#include "serial/buffer_pool.hpp"
#include "tests/toupper_app.hpp"
#include "util/error.hpp"

namespace dps {
namespace {

using dps_tutorial::build_toupper_graph;
using dps_tutorial::StringToken;

// Many producers spam a fabric while the main thread shuts it down from
// under them. The drain contract: a send() that returns without throwing
// fully precedes the queue close, so every accepted frame must be delivered
// to the peer before shutdown() returns — under arbitrary interleaving.
TEST(ShutdownStress, ConcurrentSendsRaceShutdownWithoutLosingAcceptedFrames) {
  constexpr int kNodes = 3;
  constexpr int kProducers = 4;
  TcpFabric fabric(kNodes);
  fabric.set_send_queue_limit(1 << 12);  // small budget: hit backpressure

  std::atomic<uint64_t> received{0};
  for (NodeId n = 0; n < kNodes; ++n) {
    fabric.attach(n, [&](NodeMessage&&) {
      received.fetch_add(1, std::memory_order_relaxed);
    });
  }

  std::atomic<uint64_t> accepted{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      while (!go.load(std::memory_order_acquire)) {
      }
      const NodeId from = static_cast<NodeId>(p % kNodes);
      const NodeId to = static_cast<NodeId>((p + 1) % kNodes);
      for (int i = 0; i < 400; ++i) {
        std::vector<std::byte> payload(64 + static_cast<size_t>(i % 7) * 32);
        try {
          fabric.send(from, to, FrameKind::kEnvelope, std::move(payload));
        } catch (const Error& e) {
          // Shutdown won the race; nothing sent after this point.
          EXPECT_EQ(e.code(), Errc::kNetwork);
          return;
        }
        accepted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  go.store(true, std::memory_order_release);
  // Let the race actually overlap: some frames in flight, some queued, some
  // producers parked on backpressure.
  std::this_thread::yield();
  fabric.shutdown();
  for (auto& t : producers) t.join();

  EXPECT_EQ(received.load(), accepted.load())
      << "shutdown() must drain every accepted frame through the EOF "
         "barrier before returning";
}

// shutdown() must be idempotent and re-entrant across threads: concurrent
// callers and late senders may all observe the fabric going down at once.
TEST(ShutdownStress, ConcurrentShutdownCallsAreIdempotent) {
  TcpFabric fabric(2);
  fabric.attach(0, [](NodeMessage&&) {});
  fabric.attach(1, [](NodeMessage&&) {});
  fabric.send(0, 1, FrameKind::kEnvelope, std::vector<std::byte>(128));

  std::vector<std::thread> closers;
  for (int i = 0; i < 3; ++i) {
    closers.emplace_back([&] { fabric.shutdown(); });
  }
  for (auto& t : closers) t.join();
  EXPECT_THROW(
      fabric.send(0, 1, FrameKind::kEnvelope, std::vector<std::byte>(8)),
      Error);
}

// Full-engine variant: a reliable-delivery cluster over real TCP tears down
// while graph calls are still completing on other threads. Ack retirement
// (ReliableFabric endpoint locks), per-peer sender queues (OutConn::mu), worker
// mailboxes (Worker::mu) and the BufferPool free list all churn while the
// cluster destructor runs shutdown. The assertion is the absence of
// deadlock, loss, or sanitizer reports — plus every issued call completing
// exactly once.
TEST(ShutdownStress, ClusterTeardownRacesReliableCallTraffic) {
  constexpr int kCallers = 3;
  constexpr int kCallsEach = 4;
  std::atomic<int> completed{0};
  {
    ClusterConfig cfg = ClusterConfig::tcp(2);
    cfg.fault.reliable = true;  // acks + retransmit timers + pooled buffers
    Cluster cluster(cfg);
    Application app(cluster, "toupper");
    auto graph = build_toupper_graph(app, 2);

    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int c = 0; c < kCallers; ++c) {
      cluster.domain().reserve_actor();
      callers.emplace_back([&] {
        ActorScope scope(cluster.domain(), "caller");
        for (int i = 0; i < kCallsEach; ++i) {
          auto result = token_cast<StringToken>(
              graph->call(new StringToken("abcdefghij")));
          ASSERT_EQ(std::string(result->str,
                                static_cast<size_t>(result->len)),
                    "ABCDEFGHIJ");
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& t : callers) t.join();
    // Cluster (and its TcpFabric) tears down here, immediately after the
    // last call retires — acks for the final window are still in flight.
  }
  EXPECT_EQ(completed.load(), kCallers * kCallsEach);
  BufferPool::instance().trim();  // leak hygiene for the asan stage
}

}  // namespace
}  // namespace dps
