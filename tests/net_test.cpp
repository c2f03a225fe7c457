// Unit tests for the network substrate: RAII sockets, framing, the
// in-process fabric, the real-TCP fabric, and the name registry.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "net/inproc_transport.hpp"
#include "net/name_registry.hpp"
#include "net/shm_fabric.hpp"
#include "net/tcp_transport.hpp"
#include "serial/buffer_pool.hpp"
#include "serial/wire.hpp"
#include "sim/domain.hpp"

namespace dps {
namespace {

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> v(s.size());
  std::memcpy(v.data(), s.data(), s.size());
  return v;
}

std::string string_of(const std::vector<std::byte>& v) {
  return std::string(reinterpret_cast<const char*>(v.data()), v.size());
}

// --- Sockets + framing ------------------------------------------------------

TEST(Sockets, ConnectSendReceive) {
  TcpListener listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.valid());
  std::thread server([&] {
    TcpConn conn = listener.accept();
    ASSERT_TRUE(conn.valid());
    char buf[5];
    ASSERT_TRUE(conn.recv_all(buf, 5));
    conn.send_all(buf, 5);  // echo
  });
  TcpConn client = TcpConn::connect("127.0.0.1", listener.port());
  client.send_all("hello", 5);
  char echo[5];
  ASSERT_TRUE(client.recv_all(echo, 5));
  EXPECT_EQ(std::string(echo, 5), "hello");
  server.join();
}

TEST(Sockets, CleanEofAtBoundary) {
  TcpListener listener = TcpListener::bind(0);
  std::thread server([&] {
    TcpConn conn = listener.accept();
    conn.send_all("xyz", 3);
    // destructor closes -> EOF for the client
  });
  TcpConn client = TcpConn::connect("127.0.0.1", listener.port());
  char buf[3];
  ASSERT_TRUE(client.recv_all(buf, 3));
  EXPECT_FALSE(client.recv_all(buf, 3));  // clean EOF
  server.join();
}

TEST(Sockets, ConnectFailureThrowsNetwork) {
  // Port 1 on loopback is essentially never listening.
  try {
    TcpConn::connect("127.0.0.1", 1);
    GTEST_SKIP() << "port 1 unexpectedly open";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kNetwork);
  }
}

TEST(Framing, RoundTripOverSocket) {
  TcpListener listener = TcpListener::bind(0);
  std::thread server([&] {
    TcpConn conn = listener.accept();
    Frame f;
    ASSERT_TRUE(read_frame(conn, &f));
    EXPECT_EQ(f.kind, FrameKind::kEnvelope);
    EXPECT_EQ(f.from, 7u);
    EXPECT_EQ(string_of(f.payload), "payload!");
    Frame reply;
    reply.kind = FrameKind::kFlowAck;
    reply.from = 3;
    write_frame(conn, reply);
  });
  TcpConn client = TcpConn::connect("127.0.0.1", listener.port());
  Frame f;
  f.kind = FrameKind::kEnvelope;
  f.from = 7;
  f.payload = bytes_of("payload!");
  write_frame(client, f);
  Frame reply;
  ASSERT_TRUE(read_frame(client, &reply));
  EXPECT_EQ(reply.kind, FrameKind::kFlowAck);
  EXPECT_EQ(reply.from, 3u);
  EXPECT_TRUE(reply.payload.empty());
  server.join();
}

TEST(Framing, BadMagicRejected) {
  TcpListener listener = TcpListener::bind(0);
  std::thread server([&] {
    TcpConn conn = listener.accept();
    uint32_t junk[4] = {0x12345678, 0, 0, 0};
    conn.send_all(junk, sizeof(junk));
  });
  TcpConn client = TcpConn::connect("127.0.0.1", listener.port());
  Frame f;
  try {
    (void)read_frame(client, &f);
    FAIL() << "expected protocol error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kProtocol);
  }
  server.join();
}

TEST(Framing, OverlongHeaderRejectedBeforeAllocating) {
  TcpListener listener = TcpListener::bind(0);
  TcpConn tx = TcpConn::connect("127.0.0.1", listener.port());
  TcpConn rx = listener.accept();
  const uint32_t header[4] = {kFrameMagic,
                              static_cast<uint32_t>(FrameKind::kEnvelope), 1,
                              0xFFFFFFFFu};  // claims 4 GiB of payload
  tx.send_all(header, sizeof(header));
  Frame f;
  try {
    (void)read_frame(rx, &f);
    FAIL() << "expected protocol error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kProtocol);
  }
  EXPECT_EQ(f.payload.capacity(), 0u);
}

TEST(Framing, WireSizeAccountsHeader) {
  Frame f;
  f.payload.resize(100);
  EXPECT_EQ(frame_wire_size(f), 116u);
}

// --- Fabrics ----------------------------------------------------------------

template <class FabricT>
void exercise_fabric(FabricT& fabric, size_t nodes) {
  struct Sink {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<NodeMessage> got;
  };
  std::vector<Sink> sinks(nodes);
  for (size_t i = 0; i < nodes; ++i) {
    fabric.attach(static_cast<NodeId>(i), [&sinks, i](NodeMessage&& m) {
      std::lock_guard<std::mutex> lock(sinks[i].mu);
      sinks[i].got.push_back(std::move(m));
      sinks[i].cv.notify_all();
    });
  }
  // Every node sends one message to every other node.
  for (size_t from = 0; from < nodes; ++from) {
    for (size_t to = 0; to < nodes; ++to) {
      if (from == to) continue;
      fabric.send(static_cast<NodeId>(from), static_cast<NodeId>(to),
                  FrameKind::kEnvelope,
                  bytes_of("m" + std::to_string(from) + std::to_string(to)));
    }
  }
  for (size_t i = 0; i < nodes; ++i) {
    std::unique_lock<std::mutex> lock(sinks[i].mu);
    sinks[i].cv.wait_for(lock, std::chrono::seconds(10),
                         [&] { return sinks[i].got.size() == nodes - 1; });
    ASSERT_EQ(sinks[i].got.size(), nodes - 1) << "node " << i;
    for (const auto& m : sinks[i].got) {
      EXPECT_EQ(string_of(m.payload),
                "m" + std::to_string(m.from) + std::to_string(i));
    }
  }
  EXPECT_EQ(fabric.messages_sent(), nodes * (nodes - 1));
  EXPECT_GT(fabric.bytes_sent(), 0u);
  fabric.shutdown();
}

TEST(InprocFabric, AllToAll) {
  InprocFabric fabric(4);
  exercise_fabric(fabric, 4);
}

TEST(TcpFabric, AllToAll) {
  TcpFabric fabric(4);
  exercise_fabric(fabric, 4);
}

// --- ShmFabric --------------------------------------------------------------

TEST(ShmFabric, AllToAll) {
  if (!shm_available()) GTEST_SKIP() << "POSIX shm unavailable or DPS_SHM=0";
  ShmFabric fabric(4);
  exercise_fabric(fabric, 4);
}

TEST(ShmFabric, BatchedDeliveryReachesBatchHandler) {
  if (!shm_available()) GTEST_SKIP() << "POSIX shm unavailable or DPS_SHM=0";
  ShmFabric fabric(2);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<NodeMessage> got;
  size_t batches = 0;
  fabric.attach_batch(1, [&](std::vector<NodeMessage>&& batch) {
    std::lock_guard<std::mutex> lock(mu);
    ++batches;
    for (auto& m : batch) got.push_back(std::move(m));
    cv.notify_all();
  });
  constexpr int kFrames = 200;
  for (int i = 0; i < kFrames; ++i) {
    fabric.send(0, 1, FrameKind::kEnvelope, bytes_of("f" + std::to_string(i)));
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait_for(lock, std::chrono::seconds(10),
              [&] { return got.size() == kFrames; });
  ASSERT_EQ(got.size(), kFrames);
  // SPSC ring: one producer's frames arrive exactly once, in send order,
  // grouped (the consumer drains bursts into batches, so there must be
  // fewer batch callbacks than frames under any real scheduling).
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)].from, 0u);
    EXPECT_EQ(string_of(got[static_cast<size_t>(i)].payload),
              "f" + std::to_string(i));
  }
  EXPECT_GE(batches, 1u);
  EXPECT_LE(batches, static_cast<size_t>(kFrames));
  fabric.shutdown();
}

TEST(ShmFabric, SendSharedConcatenatesPrefixAndBody) {
  if (!shm_available()) GTEST_SKIP() << "POSIX shm unavailable or DPS_SHM=0";
  ShmFabric fabric(3);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> got(3);
  for (NodeId n = 1; n <= 2; ++n) {
    fabric.attach(n, [&, n](NodeMessage&& m) {
      std::lock_guard<std::mutex> lock(mu);
      got[n] = string_of(m.payload);
      cv.notify_all();
    });
  }
  // Multicast idiom: one shared body, per-destination prefix, written into
  // each destination ring without materializing prefix+body first.
  auto body = std::make_shared<const std::vector<std::byte>>(
      bytes_of("shared-multicast-body"));
  fabric.send_shared(0, 1, FrameKind::kEnvelope, bytes_of("to1:"), body);
  fabric.send_shared(0, 2, FrameKind::kEnvelope, bytes_of("to2:"), body);
  std::unique_lock<std::mutex> lock(mu);
  cv.wait_for(lock, std::chrono::seconds(10),
              [&] { return !got[1].empty() && !got[2].empty(); });
  EXPECT_EQ(got[1], "to1:shared-multicast-body");
  EXPECT_EQ(got[2], "to2:shared-multicast-body");
  fabric.shutdown();
}

TEST(ShmFabric, OversizedFramesStreamThroughASmallRing) {
  if (!shm_available()) GTEST_SKIP() << "POSIX shm unavailable or DPS_SHM=0";
  // 4 KB rings; frames much larger than the ring must stream through it
  // (producer parks on full, consumer reassembles) and arrive intact.
  ShmFabric fabric(2, /*ring_bytes=*/4096);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::vector<std::byte>> got;
  fabric.attach(1, [&](NodeMessage&& m) {
    std::lock_guard<std::mutex> lock(mu);
    got.push_back(std::move(m.payload));
    cv.notify_all();
  });
  std::vector<std::vector<std::byte>> sent;
  for (int i = 0; i < 4; ++i) {
    std::vector<std::byte> payload(60000 + static_cast<size_t>(i) * 7919);
    for (size_t j = 0; j < payload.size(); ++j) {
      payload[j] = static_cast<std::byte>((j * 31 + static_cast<size_t>(i)) &
                                          0xff);
    }
    sent.push_back(payload);
    fabric.send(0, 1, FrameKind::kEnvelope, std::move(payload));
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait_for(lock, std::chrono::seconds(20),
              [&] { return got.size() == sent.size(); });
  ASSERT_EQ(got.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(got[i], sent[i]) << "frame " << i << " corrupted in streaming";
  }
  fabric.shutdown();
}

TEST(ShmFabric, HighVolumeExactlyOnceFifo) {
  if (!shm_available()) GTEST_SKIP() << "POSIX shm unavailable or DPS_SHM=0";
  // Two concurrent producers into one consumer, enough volume to wrap the
  // rings many times and exercise both park paths. Per-producer FIFO and
  // exactly-once are the SPSC ring's contract.
  ShmFabric fabric(3, /*ring_bytes=*/1 << 14);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::vector<uint32_t>> seqs(3);
  fabric.attach(2, [&](NodeMessage&& m) {
    uint32_t seq = 0;
    std::memcpy(&seq, m.payload.data(), sizeof(seq));
    std::lock_guard<std::mutex> lock(mu);
    seqs[m.from].push_back(seq);
    cv.notify_all();
  });
  constexpr uint32_t kPerProducer = 3000;
  auto producer = [&](NodeId from) {
    for (uint32_t i = 0; i < kPerProducer; ++i) {
      std::vector<std::byte> payload(sizeof(uint32_t) + (i % 97));
      std::memcpy(payload.data(), &i, sizeof(i));
      fabric.send(from, 2, FrameKind::kEnvelope, std::move(payload));
    }
  };
  std::thread p0([&] { producer(0); });
  std::thread p1([&] { producer(1); });
  p0.join();
  p1.join();
  std::unique_lock<std::mutex> lock(mu);
  cv.wait_for(lock, std::chrono::seconds(30), [&] {
    return seqs[0].size() == kPerProducer && seqs[1].size() == kPerProducer;
  });
  for (NodeId from = 0; from <= 1; ++from) {
    ASSERT_EQ(seqs[from].size(), kPerProducer) << "producer " << from;
    for (uint32_t i = 0; i < kPerProducer; ++i) {
      ASSERT_EQ(seqs[from][i], i) << "producer " << from << " out of order";
    }
  }
  fabric.shutdown();
}

// A record header is read from memory any local process can write, so a
// length above kMaxFrameLength must be refused before the receive thread
// sizes a buffer from it: the inbox reports the ring's peer down and never
// delivers a frame, and stop() still releases the producer parked on the
// ring nobody drains any more.
TEST(ShmFabric, OverlongRecordIsRefusedBeforeAllocating) {
  if (!shm_available()) GTEST_SKIP() << "POSIX shm unavailable or DPS_SHM=0";
  const std::string name =
      "/dps-shm-test-overlong-" + std::to_string(::getpid());
  ShmInbox inbox(name, /*self=*/1, /*peers=*/2, /*ring_bytes=*/4096);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<NodeMessage> got;
  inbox.start([&](std::vector<NodeMessage>&& batch) {
    std::lock_guard<std::mutex> lock(mu);
    for (NodeMessage& m : batch) got.push_back(std::move(m));
    cv.notify_all();
  });
  // The source is never written, so its pages are all the shared zero page.
  const size_t len = size_t{kMaxFrameLength} + 1;
  void* src = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE | MAP_ANONYMOUS, -1,
                     0);
  ASSERT_NE(src, MAP_FAILED);
  ShmPeerTx tx(name, /*self=*/0);
  std::atomic<bool> sent{true};
  std::thread producer([&] {
    sent = tx.send(FrameKind::kEnvelope, static_cast<const std::byte*>(src),
                   len, nullptr, 0);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(10), [&] { return !got.empty(); });
  }
  inbox.stop();
  producer.join();
  ::munmap(src, len);
  EXPECT_FALSE(sent) << "stop() must fail the parked send";
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].kind, FrameKind::kPeerDown);
  EXPECT_EQ(got[0].from, 0u);
  Reader r(got[0].payload);
  EXPECT_NE(r.get_string().find("frame limit"), std::string::npos);
}

TEST(TcpFabric, LazyConnectionsAndOrder) {
  TcpFabric fabric(2);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> got;
  fabric.attach(0, [](NodeMessage&&) {});
  fabric.attach(1, [&](NodeMessage&& m) {
    std::lock_guard<std::mutex> lock(mu);
    got.push_back(string_of(m.payload));
    cv.notify_all();
  });
  const int kMessages = 200;
  for (int i = 0; i < kMessages; ++i) {
    fabric.send(0, 1, FrameKind::kEnvelope, bytes_of(std::to_string(i)));
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(10),
                [&] { return got.size() == kMessages; });
    ASSERT_EQ(got.size(), static_cast<size_t>(kMessages));
    for (int i = 0; i < kMessages; ++i) {
      EXPECT_EQ(got[i], std::to_string(i)) << "messages must keep FIFO order";
    }
  }
  fabric.shutdown();
}

TEST(TcpFabric, ShutdownDrainsQueuedFrames) {
  // The async sender must deliver every frame accepted before shutdown()
  // ahead of the kShutdown announcement — a send that returned is a promise.
  TcpFabric fabric(2);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> got;
  fabric.attach(0, [](NodeMessage&&) {});
  fabric.attach(1, [&](NodeMessage&& m) {
    std::lock_guard<std::mutex> lock(mu);
    got.push_back(string_of(m.payload));
    cv.notify_all();
  });
  const int kMessages = 500;
  for (int i = 0; i < kMessages; ++i) {
    fabric.send(0, 1, FrameKind::kEnvelope, bytes_of(std::to_string(i)));
  }
  // No waiting: the queue is likely still deep when shutdown starts.
  fabric.shutdown();
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_EQ(got.size(), static_cast<size_t>(kMessages))
      << "frames accepted before shutdown must not be dropped";
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(got[i], std::to_string(i)) << "drain must keep FIFO order";
  }
}

TEST(TcpFabric, BackpressureKeepsFifoUnderTinyBudget) {
  // A queue budget smaller than one frame forces the producer to block on
  // backpressure between almost every enqueue; order and completeness must
  // survive the producer/sender handoffs, including mixed frame sizes.
  TcpFabric fabric(2);
  fabric.set_send_queue_limit(256);  // frames below overshoot the budget
  std::mutex mu;
  std::condition_variable cv;
  std::vector<size_t> sizes;
  fabric.attach(0, [](NodeMessage&&) {});
  fabric.attach(1, [&](NodeMessage&& m) {
    std::lock_guard<std::mutex> lock(mu);
    sizes.push_back(m.payload.size());
    cv.notify_all();
  });
  const int kMessages = 200;
  std::vector<size_t> expect;
  for (int i = 0; i < kMessages; ++i) {
    // Mix small frames with ones larger than the whole budget.
    const size_t n = (i % 5 == 0) ? 1000 + static_cast<size_t>(i)
                                  : static_cast<size_t>(i % 97);
    expect.push_back(n);
    fabric.send(0, 1, FrameKind::kEnvelope, std::vector<std::byte>(n));
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(10),
                [&] { return sizes.size() == kMessages; });
    ASSERT_EQ(sizes.size(), static_cast<size_t>(kMessages));
    EXPECT_EQ(sizes, expect) << "backpressure must not reorder or drop";
  }
  fabric.shutdown();
}

// A peer that names a node outside the fabric in its hello is refused:
// nothing it sends reaches a handler tagged with that id.
TEST(TcpFabric, HelloFromANodeThatDoesNotExistIsRefused) {
  constexpr NodeId kNodes = 4;
  TcpFabric fabric(kNodes);
  std::mutex mu;
  std::vector<NodeMessage> got;
  for (NodeId n = 0; n < kNodes; ++n) {
    fabric.attach(n, [&](NodeMessage&& m) {
      std::lock_guard<std::mutex> lock(mu);
      got.push_back(std::move(m));
    });
  }
  TcpConn conn = TcpConn::connect("127.0.0.1", fabric.port_of(1));
  Frame hello;
  hello.kind = FrameKind::kHello;
  hello.from = kNodes + 5;
  Frame env;
  env.kind = FrameKind::kEnvelope;
  env.from = kNodes + 5;
  env.payload = bytes_of("an envelope from nowhere");
  Frame bye;
  bye.kind = FrameKind::kShutdown;
  bye.from = kNodes + 5;
  const Frame frames[] = {hello, env, bye};
  write_frames(conn, frames, 3);
  // The receiver closes the connection once it is done with it, after
  // delivering whatever it accepted.
  try {
    char sink;
    while (conn.recv_all(&sink, 1)) {
    }
  } catch (const Error&) {
    // reset by the refusing receiver: just as final
  }
  fabric.shutdown();
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_TRUE(got.empty()) << got.size() << " frame(s) delivered from node "
                           << (got.empty() ? 0 : got[0].from);
}

// The default send_shared (inproc, sim and process fabrics) copies prefix
// and body once, into one pooled buffer the receiver may adopt.
TEST(InprocFabric, SendSharedCopiesPrefixAndBodyOnceIntoAPooledBuffer) {
  BufferPool& pool = BufferPool::instance();
  pool.trim();
  std::vector<std::byte> retained = pool.acquire_sized(64 * 1024);
  const std::byte* storage = retained.data();
  pool.release(std::move(retained));
  pool.reset_stats();

  InprocFabric fabric(2);
  std::vector<NodeMessage> got;
  fabric.attach(1, [&](NodeMessage&& m) { got.push_back(std::move(m)); });
  std::vector<std::byte> body_bytes(40000);
  for (size_t i = 0; i < body_bytes.size(); ++i) {
    body_bytes[i] = static_cast<std::byte>(i * 11);
  }
  fabric.send_shared(0, 1, FrameKind::kEnvelope, bytes_of("head:"),
                     std::make_shared<const std::vector<std::byte>>(body_bytes));
  ASSERT_EQ(got.size(), 1u);
  std::vector<std::byte> want = bytes_of("head:");
  want.insert(want.end(), body_bytes.begin(), body_bytes.end());
  EXPECT_TRUE(got[0].payload == want) << "prefix + body, byte-exact";
  EXPECT_EQ(got[0].payload.data(), storage) << "one pooled buffer";
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.acquires, 1u);
  EXPECT_EQ(s.reuses, 1u);
  pool.release(std::move(got[0].payload));
  pool.trim();
  pool.reset_stats();
}

TEST(InprocFabric, UnattachedDestinationThrows) {
  InprocFabric fabric(2);
  fabric.attach(0, [](NodeMessage&&) {});
  try {
    fabric.send(0, 1, FrameKind::kEnvelope, {});
    FAIL() << "expected not_found";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kNotFound);
  }
}

// --- Name registry ----------------------------------------------------------

TEST(NameRegistry, PublishLookupWithdraw) {
  WallDomain domain;
  NameRegistry reg(domain);
  EXPECT_FALSE(reg.lookup("svc").has_value());
  reg.publish("svc", "value1");
  EXPECT_EQ(reg.lookup("svc").value(), "value1");
  reg.publish("svc", "value2");  // replace
  EXPECT_EQ(reg.lookup("svc").value(), "value2");
  reg.withdraw("svc");
  EXPECT_FALSE(reg.lookup("svc").has_value());
}

TEST(NameRegistry, WaitForBlocksUntilPublished) {
  WallDomain domain;
  NameRegistry reg(domain);
  std::atomic<bool> got{false};
  std::thread waiter([&] {
    EXPECT_EQ(reg.wait_for("late"), "here");
    got = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  reg.publish("late", "here");
  waiter.join();
  EXPECT_TRUE(got.load());
}

TEST(NameRegistry, ListsNames) {
  WallDomain domain;
  NameRegistry reg(domain);
  reg.publish("b", "2");
  reg.publish("a", "1");
  EXPECT_EQ(reg.names(), (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace dps
