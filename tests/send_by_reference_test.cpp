// Sending a token's large Buffer<T> tail by reference
// (Envelope::encode_for_wire): the frame is the same bytes as a contiguous
// encode, only the Buffer<T> run that ends the token is left in place, and
// the frame keeps the token alive for as long as any transport still needs
// those bytes — in the TCP send queue, in the reliability layer's
// retransmit buffer, and while it streams through a shm ring.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/envelope.hpp"
#include "net/chaos_fabric.hpp"
#include "net/inproc_transport.hpp"
#include "net/reliable_fabric.hpp"
#include "net/shm_fabric.hpp"
#include "net/tcp_transport.hpp"
#include "serial/buffer_pool.hpp"
#include "serial/registry.hpp"
#include "util/stopwatch.hpp"

namespace dps {
namespace {

/// Live instances of SbrTailTok, so tests can see when the last reference
/// to a sent token is gone.
std::atomic<int> g_tail_tokens{0};

/// A large Buffer that ends the token: sent by reference.
class SbrTailTok : public ComplexToken {
 public:
  SbrTailTok() { g_tail_tokens.fetch_add(1); }
  SbrTailTok(const SbrTailTok& o) : ComplexToken(o), id(o.id), words(o.words) {
    g_tail_tokens.fetch_add(1);
  }
  ~SbrTailTok() override { g_tail_tokens.fetch_sub(1); }
  CT<int32_t> id;
  Buffer<uint32_t> words;
  DPS_IDENTIFY(SbrTailTok);
};

/// A large Buffer that is not the token's last field: sent contiguous.
class SbrMidTok : public ComplexToken {
 public:
  Buffer<uint8_t> bytes;
  CT<int32_t> after;
  DPS_IDENTIFY(SbrMidTok);
};

/// Two large Buffers: only the last one may be left in place.
class SbrTwoTok : public ComplexToken {
 public:
  Buffer<uint8_t> first;
  Buffer<uint8_t> last;
  DPS_IDENTIFY(SbrTwoTok);
};

Ptr<SbrTailTok> tail_token(size_t bytes) {
  Ptr<SbrTailTok> t(new SbrTailTok());
  t->id = 7;
  t->words.resize(bytes / sizeof(uint32_t));
  for (size_t i = 0; i < t->words.size(); ++i) {
    t->words[i] = static_cast<uint32_t>(i * 2654435761u);
  }
  return t;
}

Envelope envelope_of(Ptr<Token> token) {
  Envelope env;
  env.app = 1;
  env.graph = 2;
  env.vertex = 3;
  env.thread = 1;
  env.call = 42;
  env.frames.push_back(SplitFrame{9, 4, 0, 0, 0});
  env.token = std::move(token);
  return env;
}

std::vector<std::byte> contiguous(const Envelope& env) {
  Writer w;
  env.encode(w);
  return w.take();
}

std::vector<std::byte> joined(const WireEnvelope& w) {
  std::vector<std::byte> out = w.head;
  out.insert(out.end(), w.tail.data(), w.tail.data() + w.tail.size());
  return out;
}

TEST(SendByReference, HeadPlusTailIsByteIdenticalToAContiguousEncode) {
  const size_t sizes[] = {1000, kPooledBlockBytes - 4, kPooledBlockBytes,
                          100 * 1000};
  for (const size_t bytes : sizes) {
    SCOPED_TRACE(::testing::Message() << bytes << " bytes");
    BufferPool::instance().reset_stats();
    Ptr<SbrTailTok> t = tail_token(bytes);
    const Envelope env = envelope_of(t);
    const WireEnvelope w = env.encode_for_wire();
    EXPECT_TRUE(joined(w) == contiguous(env));
    EXPECT_EQ(BufferPool::instance().stats().encode_growths, 0u);
    if (bytes >= kPooledBlockBytes) {
      ASSERT_TRUE(static_cast<bool>(w.tail));
      EXPECT_EQ(w.tail.size(), t->words.size() * sizeof(uint32_t));
      EXPECT_EQ(w.tail.data(),
                reinterpret_cast<const std::byte*>(t->words.data()))
          << "the tail is the token's own bytes";
      EXPECT_EQ(w.head.size(), env.encoded_size() - w.tail.size());
    } else {
      EXPECT_FALSE(static_cast<bool>(w.tail));
      EXPECT_EQ(w.head.size(), env.encoded_size());
    }
  }
}

TEST(SendByReference, ALargeBufferThatIsNotTheLastFieldGoesOutContiguous) {
  BufferPool::instance().reset_stats();
  Ptr<SbrMidTok> mid(new SbrMidTok());
  mid->bytes.resize(100 * 1000);
  for (size_t i = 0; i < mid->bytes.size(); ++i) {
    mid->bytes[i] = static_cast<uint8_t>(i * 13);
  }
  mid->after = 5;
  const Envelope mid_env = envelope_of(mid);
  const WireEnvelope m = mid_env.encode_for_wire();
  EXPECT_FALSE(static_cast<bool>(m.tail));
  EXPECT_TRUE(m.head == contiguous(mid_env));

  // Of two large Buffers only the closing one stays in place; the first
  // is copied into the head like any other field.
  Ptr<SbrTwoTok> two(new SbrTwoTok());
  two->first.resize(50 * 1000);
  two->last.resize(50 * 1000);
  for (size_t i = 0; i < 50 * 1000; ++i) {
    two->first[i] = static_cast<uint8_t>(i);
    two->last[i] = static_cast<uint8_t>(i * 3);
  }
  const Envelope two_env = envelope_of(two);
  const WireEnvelope w = two_env.encode_for_wire();
  ASSERT_TRUE(static_cast<bool>(w.tail));
  EXPECT_EQ(w.tail.data(),
            reinterpret_cast<const std::byte*>(two->last.data()));
  EXPECT_TRUE(joined(w) == contiguous(two_env));
  EXPECT_EQ(BufferPool::instance().stats().encode_growths, 0u)
      << "neither case grows an encode buffer";
}

TEST(SendByReference, WriterCopiesADeferredRunInWhenMoreFollows) {
  const std::vector<std::byte> run(64, std::byte{0x5a});
  Writer w;
  w.reserve(4 + run.size() + 2);  // room for everything: no growth but one
  w.defer_run(4, run.size());
  w.put<uint32_t>(0x01020304);
  w.put_run(run.data(), run.size());
  EXPECT_EQ(w.run(), run.data());
  EXPECT_EQ(w.size(), 4u);
  EXPECT_EQ(w.growth_count(), 0u);

  w.put<uint16_t>(0xbeef);  // not the end after all
  EXPECT_EQ(w.run(), nullptr);
  EXPECT_EQ(w.run_size(), 0u);
  EXPECT_EQ(w.growth_count(), 1u) << "the late copy counts as a growth";
  Writer plain;
  plain.put<uint32_t>(0x01020304);
  plain.put_raw(run.data(), run.size());
  plain.put<uint16_t>(0xbeef);
  EXPECT_TRUE(w.bytes() == plain.bytes());
}

/// Polls `pred` for up to ten seconds.
template <class Pred>
bool eventually(Pred pred) {
  const double deadline = mono_seconds() + 10;
  while (!pred()) {
    if (mono_seconds() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// The poster lets go while its frame still waits in the TCP send queue:
// the frame alone keeps the token alive until the sender thread wrote it.
TEST(SendByReference, TokenOutlivesItsPosterInTheTcpSendQueue) {
  TcpFabric fabric(2);
  // One frame at a time: a send waits until the sender thread has taken
  // the previous frame off the queue, so the token's frame is queued
  // alone behind a write that cannot finish.
  fabric.set_send_queue_limit(1);
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::vector<std::vector<std::byte>> got;
  fabric.attach_batch(0, [](std::vector<NodeMessage>&&) {});
  fabric.attach_batch(1, [&](std::vector<NodeMessage>&& msgs) {
    std::unique_lock<std::mutex> lock(mu);
    // Stops reading the socket until the test opens the gate.
    cv.wait_for(lock, std::chrono::seconds(20), [&] { return open; });
    for (NodeMessage& m : msgs) got.push_back(std::move(m.payload));
    cv.notify_all();
  });

  fabric.send(0, 1, FrameKind::kEnvelope, std::vector<std::byte>(64));
  // Far more than the socket buffers hold while node 1 does not read.
  fabric.send(0, 1, FrameKind::kEnvelope,
              std::vector<std::byte>(8u << 20, std::byte{0x33}));

  const int live_before = g_tail_tokens.load();
  std::vector<std::byte> want;
  {
    Ptr<SbrTailTok> t = tail_token(100 * 1000);
    const Envelope env = envelope_of(t);
    want = contiguous(env);
    WireEnvelope w = env.encode_for_wire();
    ASSERT_TRUE(static_cast<bool>(w.tail));
    fabric.send_shared(0, 1, FrameKind::kEnvelope, std::move(w.head),
                       std::move(w.tail));
  }  // the poster's references are gone
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(g_tail_tokens.load(), live_before + 1)
      << "the queued frame keeps its token alive";

  {
    std::unique_lock<std::mutex> lock(mu);
    open = true;
    cv.notify_all();
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(20),
                            [&] { return got.size() == 3; }));
    EXPECT_TRUE(got[2] == want) << "the frame arrives byte-exact";
  }
  EXPECT_TRUE(eventually([&] { return g_tail_tokens.load() == live_before; }))
      << "the token dies once its frame is written";
  fabric.shutdown();
}

// A frame the network dropped is retransmitted from the reliability
// layer's copy of the reference, long after the poster let go.
TEST(SendByReference, RetransmittedLargeFrameArrivesByteExact) {
  FaultToleranceConfig ft;
  ft.reliable = true;
  ft.rto_initial = 0.002;
  ft.rto_max = 0.02;
  auto chaos = std::make_shared<ChaosFabric>(std::make_shared<InprocFabric>(2),
                                             FaultPlan{});
  ReliableFabric rf(chaos, 2, ft);
  std::vector<std::vector<std::byte>> got;
  rf.attach_batch(0, [](std::vector<NodeMessage>&&) {});
  rf.attach_batch(1, [&](std::vector<NodeMessage>&& msgs) {
    for (NodeMessage& m : msgs) got.push_back(std::move(m.payload));
  });

  chaos->partition(0, 1);  // the first transmit is lost
  const int live_before = g_tail_tokens.load();
  std::vector<std::byte> want;
  {
    Ptr<SbrTailTok> t = tail_token(100 * 1000);
    const Envelope env = envelope_of(t);
    want = contiguous(env);
    WireEnvelope w = env.encode_for_wire();
    ASSERT_TRUE(static_cast<bool>(w.tail));
    rf.send_shared(0, 1, FrameKind::kEnvelope, std::move(w.head),
                   std::move(w.tail));
  }
  EXPECT_GE(chaos->frames_dropped(FrameKind::kReliable), 1u);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(g_tail_tokens.load(), live_before + 1)
      << "the retransmit buffer keeps the token alive";

  chaos->heal(0, 1);
  (void)rf.tick(0, mono_seconds() + 1);  // overdue: retransmitted
  EXPECT_GE(rf.retransmissions(), 1u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(got[0] == want) << "the retransmitted frame is byte-exact";

  (void)rf.tick(1, mono_seconds() + 1);  // node 1 acknowledges
  EXPECT_EQ(rf.unacked_frames(), 0u);
  EXPECT_EQ(g_tail_tokens.load(), live_before)
      << "the acknowledgement releases the token";
  rf.shutdown();
}

// shm writes head and tail straight into the ring; a small ring makes the
// tail stream through it in pieces.
TEST(SendByReference, ShmDeliversHeadAndTailByteExact) {
  if (!shm_available()) GTEST_SKIP() << "POSIX shared memory unavailable";
  ShmFabric fabric(2, /*ring_bytes=*/4096);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::vector<std::byte>> got;
  fabric.attach_batch(0, [](std::vector<NodeMessage>&&) {});
  fabric.attach_batch(1, [&](std::vector<NodeMessage>&& msgs) {
    std::lock_guard<std::mutex> lock(mu);
    for (NodeMessage& m : msgs) got.push_back(std::move(m.payload));
    cv.notify_all();
  });
  std::vector<std::vector<std::byte>> want;
  for (const size_t bytes : {size_t{100 * 1000}, kPooledBlockBytes}) {
    Ptr<SbrTailTok> t = tail_token(bytes);
    const Envelope env = envelope_of(t);
    want.push_back(contiguous(env));
    WireEnvelope w = env.encode_for_wire();
    ASSERT_TRUE(static_cast<bool>(w.tail));
    fabric.send_shared(0, 1, FrameKind::kEnvelope, std::move(w.head),
                       std::move(w.tail));
  }
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                          [&] { return got.size() == want.size(); }));
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(got[i] == want[i]) << "frame " << i;
  }
  lock.unlock();
  fabric.shutdown();
}

}  // namespace
}  // namespace dps
