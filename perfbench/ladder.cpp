// Per-layer rungs of the trace run: each one drives a single layer through
// its public functions, with no engine above it.
#include <unistd.h>

#include <random>
#include <thread>

#include "apps/life.hpp"
#include "apps/ring.hpp"
#include "bench.hpp"
#include "net/shm_fabric.hpp"
#include "net/socket.hpp"
#include "net/tcp_transport.hpp"
#include "serial/buffer_pool.hpp"
#include "serial/registry.hpp"

namespace perfbench {

using namespace dps;

namespace {

constexpr int kHops = 4;
constexpr int kSendSample = 16;  // one Fabric::send span in this many

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double mbps(int64_t bytes, double seconds) {
  return static_cast<double>(bytes) / seconds / 1e6;
}

std::unique_ptr<Fabric> make_fabric(Transport t) {
  if (t == Transport::kShm) return std::make_unique<ShmFabric>(kHops);
  return std::make_unique<TcpFabric>(kHops);
}

std::vector<std::byte> frame_payload(int bytes) {
  std::vector<std::byte> p = BufferPool::instance().acquire(
      static_cast<size_t>(bytes));
  p.resize(static_cast<size_t>(bytes), std::byte{0x5a});
  return p;
}

/// Fabric::send with a span on every kSendSample-th call of this thread.
void timed_send(Fabric& f, NodeId from, NodeId to,
                std::vector<std::byte> payload) {
  thread_local uint32_t calls = 0;
  if (++calls % kSendSample != 0 || !Spans::instance().on()) {
    f.send(from, to, FrameKind::kEnvelope, std::move(payload));
    return;
  }
  SpanScope span(SpanName::kFabricSend);
  f.send(from, to, FrameKind::kEnvelope, std::move(payload));
}

/// Counts arrivals and lets one waiter block until a target is reached.
class Arrivals {
 public:
  void add(uint64_t n) {
    count_.fetch_add(n, std::memory_order_release);
    count_.notify_all();
  }
  void wait_for(uint64_t target) {
    for (uint64_t c = count_.load(std::memory_order_acquire); c < target;
         c = count_.load(std::memory_order_acquire)) {
      count_.wait(c, std::memory_order_acquire);
    }
  }

 private:
  std::atomic<uint64_t> count_{0};
};

}  // namespace

std::vector<double> sockets_ring(int block_bytes, int blocks, double seconds) {
  std::vector<TcpListener> listeners;
  listeners.reserve(kHops);
  for (int i = 0; i < kHops; ++i) listeners.push_back(TcpListener::bind(0));
  const size_t size = static_cast<size_t>(block_bytes);

  // Hops 1..3 forward until the source closes the ring.
  std::vector<std::thread> hops;
  for (int i = 1; i < kHops; ++i) {
    hops.emplace_back([&, i] {
      TcpConn in = listeners[static_cast<size_t>(i)].accept();
      TcpConn out = TcpConn::connect(
          "127.0.0.1", listeners[static_cast<size_t>((i + 1) % kHops)].port());
      std::vector<char> buf(size);
      while (in.recv_all(buf.data(), size)) out.send_all(buf.data(), size);
      out.shutdown_write();
    });
  }
  TcpConn out = TcpConn::connect("127.0.0.1", listeners[1].port());
  Arrivals arrived;
  std::thread sink([&] {
    TcpConn in = listeners[0].accept();
    std::vector<char> buf(size);
    while (in.recv_all(buf.data(), size)) arrived.add(1);
  });

  std::vector<double> rounds;
  std::vector<char> block(size, 'x');
  const auto t0 = Clock::now();
  uint64_t target = 0;
  while (seconds_since(t0) < seconds) {
    const auto r0 = Clock::now();
    SpanScope span(SpanName::kSocketsRound, static_cast<uint32_t>(blocks));
    for (int b = 0; b < blocks; ++b) out.send_all(block.data(), size);
    target += static_cast<uint64_t>(blocks);
    arrived.wait_for(target);
    rounds.push_back(mbps(int64_t{blocks} * block_bytes, seconds_since(r0)));
  }
  out.shutdown_write();
  for (auto& t : hops) t.join();
  sink.join();
  return rounds;
}

FabricRing fabric_ring(Transport t, int block_bytes, int blocks,
                       double seconds) {
  // Declared before the fabric so its delivery threads never outlive them.
  Arrivals arrived;
  std::atomic<uint64_t> frames{0}, batches{0};
  std::unique_ptr<Fabric> fabric = make_fabric(t);
  Fabric& f = *fabric;
  for (NodeId i = 0; i < kHops; ++i) {
    f.attach(i, [](NodeMessage&&) {});
    f.attach_batch(i, [&, i](std::vector<NodeMessage>&& msgs) {
      SpanScope span(SpanName::kFabricBatch, static_cast<uint32_t>(msgs.size()));
      frames.fetch_add(msgs.size(), std::memory_order_relaxed);
      batches.fetch_add(1, std::memory_order_relaxed);
      if (i == 0) {
        arrived.add(msgs.size());
        return;
      }
      for (NodeMessage& m : msgs) {
        timed_send(f, i, (i + 1) % kHops, std::move(m.payload));
      }
    });
  }

  FabricRing out;
  const auto t0 = Clock::now();
  uint64_t target = 0;
  while (seconds_since(t0) < seconds) {
    const auto r0 = Clock::now();
    SpanScope span(SpanName::kFabricRound, static_cast<uint32_t>(blocks));
    for (int b = 0; b < blocks; ++b) {
      timed_send(f, 0, 1, frame_payload(block_bytes));
    }
    target += static_cast<uint64_t>(blocks);
    arrived.wait_for(target);
    out.mbps.push_back(mbps(int64_t{blocks} * block_bytes, seconds_since(r0)));
  }
  f.shutdown();
  out.frames = frames.load();
  out.batches = batches.load();
  return out;
}

std::vector<double> fabric_rtt(Transport t, int frame_bytes, double seconds) {
  Arrivals echoed;
  std::unique_ptr<Fabric> fabric = make_fabric(t);
  Fabric& f = *fabric;
  for (NodeId i = 0; i < 2; ++i) {
    f.attach(i, [](NodeMessage&&) {});
  }
  f.attach_batch(1, [&](std::vector<NodeMessage>&& msgs) {
    for (NodeMessage& m : msgs) {
      f.send(1, 0, FrameKind::kEnvelope, std::move(m.payload));
    }
  });
  f.attach_batch(0, [&](std::vector<NodeMessage>&& msgs) {
    echoed.add(msgs.size());
  });

  std::vector<double> rtt_us;
  const auto t0 = Clock::now();
  for (uint64_t n = 1; seconds_since(t0) < seconds; ++n) {
    const auto s0 = Clock::now();
    {
      SpanScope span(SpanName::kFabricRtt);
      f.send(0, 1, FrameKind::kEnvelope, frame_payload(frame_bytes));
      echoed.wait_for(n);
    }
    rtt_us.push_back(seconds_since(s0) * 1e6);
  }
  f.shutdown();
  return rtt_us;
}

ShmPair shm_pair(int frame_bytes, double seconds) {
  const std::string name = "/perfbench-pair-" + std::to_string(::getpid());
  Arrivals received;
  ShmInbox inbox(name, 0, 2, 1 << 20);
  inbox.start([&](std::vector<NodeMessage>&& batch) {
    received.add(batch.size());
  });
  ShmPeerTx tx(name, 1);
  const std::vector<std::byte> frame(static_cast<size_t>(frame_bytes),
                                     std::byte{0x5a});
  uint64_t sent = 0;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < seconds) {
    for (int i = 0; i < 256; ++i, ++sent) {
      DPS_CHECK(tx.send(FrameKind::kEnvelope, frame.data(), frame.size(),
                        nullptr, 0),
                "shm pair: inbox closed mid-run");
    }
  }
  received.wait_for(sent);
  inbox.stop();
  const ShmTxStats st = tx.stats();
  return ShmPair{st.frames, st.doorbell_wakes, st.space_parks};
}

namespace {

/// The token one hop of the workload encodes: a ring block, or one band's
/// part of a Table 2 read.
Ptr<Token> workload_token(const Workload& w, uint64_t seed) {
  std::mt19937_64 rng(seed);
  if (w.ring) {
    auto* t = new apps::RingBlockToken();
    t->hop = 2;
    t->index = 12345;
    t->payload.resize(static_cast<size_t>(w.block_bytes));
    for (auto& b : t->payload) b = static_cast<uint8_t>(rng());
    return Ptr<Token>(t);
  }
  auto* t = new apps::LifeReadPartDataToken();
  t->x = 8;
  t->y = 16;
  t->w = 40;
  t->h = 40;
  t->cells.resize(static_cast<size_t>(w.block_bytes));
  for (auto& c : t->cells) c = static_cast<uint8_t>(rng() & 1);
  return Ptr<Token>(t);
}

}  // namespace

void serial_codec(const Workload& w, uint64_t seed, double seconds) {
  constexpr int kBatch = 64;
  Ptr<Token> token = workload_token(w, seed);
  const size_t size = serialized_token_size(*token);
  BufferPool& pool = BufferPool::instance();

  // One checked round trip, then timed batches of encodes and decodes.
  Writer probe(pool.acquire(size));
  serialize_token(*token, probe);
  const std::vector<std::byte> encoded = probe.take();
  {
    Reader r(encoded);
    Ptr<Token> back = deserialize_token(r);
    Writer again;
    serialize_token(*back, again);
    DPS_CHECK(again.bytes() == encoded, "token does not survive a round trip");
  }

  const auto t0 = Clock::now();
  while (seconds_since(t0) < seconds / 2) {
    SpanScope span(SpanName::kEncode, kBatch);
    for (int i = 0; i < kBatch; ++i) {
      Writer wr(pool.acquire(size));
      serialize_token(*token, wr);
      pool.note_growth(wr.growth_count());
      pool.release(wr.take());
    }
  }
  const auto t1 = Clock::now();
  while (seconds_since(t1) < seconds / 2) {
    SpanScope span(SpanName::kDecode, kBatch);
    for (int i = 0; i < kBatch; ++i) {
      Reader r(encoded);
      Ptr<Token> back = deserialize_token(r);
      DPS_CHECK(back.get() != nullptr && r.at_end(), "decode failed");
    }
  }
}

}  // namespace perfbench
