// Robustness tests for the wire decoders: random garbage, bit flips, and
// truncations must produce Error exceptions (kProtocol / kNotFound), never
// crashes, hangs, or silent misreads. Seed-parameterized gtest.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>

#include "core/envelope.hpp"
#include "net/reliable_fabric.hpp"
#include "obs/trace_format.hpp"
#include "serial/registry.hpp"
#include "test_seed.hpp"

namespace dps {
namespace {

class FuzzSimpleToken : public SimpleToken {
 public:
  int64_t a;
  int32_t b;
  FuzzSimpleToken(int64_t a_ = 0, int32_t b_ = 0) : a(a_), b(b_) {}
  DPS_IDENTIFY(FuzzSimpleToken);
};

class FuzzComplexToken : public ComplexToken {
 public:
  CT<int32_t> id;
  CT<std::string> name;
  Buffer<uint32_t> values;
  DPS_IDENTIFY(FuzzComplexToken);
};

std::vector<std::byte> valid_token_bytes() {
  FuzzComplexToken t;
  t.id = 7;
  t.name = std::string("fuzz");
  for (uint32_t i = 0; i < 16; ++i) t.values.push_back(i);
  Writer w;
  serialize_token(t, w);
  return w.take();
}

std::vector<std::byte> valid_envelope_bytes() {
  Envelope e;
  e.app = 1;
  e.graph = 2;
  e.vertex = 3;
  e.call = 4;
  e.frames.push_back(SplitFrame{9, 1, 1, 5, 0});
  e.token = Ptr<Token>(new FuzzSimpleToken(1, 2));
  Writer w;
  e.encode(w);
  return w.take();
}

std::vector<std::byte> valid_trace_bytes() {
  std::vector<obs::TaggedEvent> events;
  for (uint64_t i = 0; i < 20; ++i) {
    obs::TaggedEvent ev;
    ev.e.t_ns = i * 100 + 1;
    ev.e.kind = static_cast<uint16_t>(i % 2 == 0 ? obs::EventKind::kEnqueue
                                                 : obs::EventKind::kOpStart);
    ev.e.node = static_cast<uint32_t>(i % 3);
    ev.e.a = i;
    ev.e.b = i * 2;
    ev.e.c = i * 3;
    ev.e.d = i * 4;
    ev.thread = static_cast<uint32_t>(i % 2);
    ev.thread_name = "fuzz-" + std::to_string(i % 2);
    events.push_back(std::move(ev));
  }
  Writer w;
  obs::encode_trace(w, events);
  return w.take();
}

class FuzzSeed : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FuzzSeed, RandomBytesNeverCrashTokenDecoder) {
  std::mt19937 rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    std::vector<std::byte> bytes(rng() % 256);
    for (auto& b : bytes) b = static_cast<std::byte>(rng() & 0xff);
    Reader r(bytes.data(), bytes.size());
    try {
      auto t = deserialize_token(r);
      // Random bytes that happen to decode are fine — the registry id must
      // then have matched a registered type.
      EXPECT_NE(t.get(), nullptr);
    } catch (const Error&) {
      // expected in the overwhelming majority of rounds
    }
  }
}

TEST_P(FuzzSeed, BitFlipsNeverCrashTokenDecoder) {
  std::mt19937 rng(GetParam() ^ 0x9e3779b9u);
  const auto base = valid_token_bytes();
  for (int round = 0; round < 300; ++round) {
    auto bytes = base;
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng() % bytes.size();
      bytes[pos] ^= static_cast<std::byte>(1u << (rng() % 8));
    }
    Reader r(bytes.data(), bytes.size());
    try {
      auto t = deserialize_token(r);
      (void)t;  // a flip confined to payload values decodes "successfully"
    } catch (const Error&) {
    }
  }
}

TEST_P(FuzzSeed, TruncationsNeverCrashEnvelopeDecoder) {
  std::mt19937 rng(GetParam() ^ 0x51f15eedu);
  const auto base = valid_envelope_bytes();
  for (size_t len = 0; len < base.size(); ++len) {
    Reader r(base.data(), len);
    EXPECT_THROW((void)Envelope::decode(r), Error) << "len=" << len;
  }
  (void)rng;
}

TEST_P(FuzzSeed, BitFlipsNeverCrashEnvelopeDecoder) {
  std::mt19937 rng(GetParam() ^ 0xabcdef01u);
  const auto base = valid_envelope_bytes();
  for (int round = 0; round < 300; ++round) {
    auto bytes = base;
    const size_t pos = rng() % bytes.size();
    bytes[pos] ^= static_cast<std::byte>(1u << (rng() % 8));
    Reader r(bytes.data(), bytes.size());
    try {
      Envelope e = Envelope::decode(r);
      (void)e;
    } catch (const Error&) {
    }
  }
}

TEST_P(FuzzSeed, RandomBytesNeverCrashTraceDecoder) {
  std::mt19937 rng(GetParam() ^ 0x0b5e7a11u);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::byte> bytes(rng() % 256);
    for (auto& b : bytes) b = static_cast<std::byte>(rng() & 0xff);
    Reader r(bytes.data(), bytes.size());
    // Random bytes essentially never reproduce the magic, so decoding must
    // throw — and in every case must neither crash nor over-allocate.
    EXPECT_THROW((void)obs::decode_trace(r), Error);
  }
}

TEST_P(FuzzSeed, BitFlipsNeverCrashTraceDecoder) {
  std::mt19937 rng(GetParam() ^ 0x7ace5eedu);
  const auto base = valid_trace_bytes();
  for (int round = 0; round < 300; ++round) {
    auto bytes = base;
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng() % bytes.size();
      bytes[pos] ^= static_cast<std::byte>(1u << (rng() % 8));
    }
    Reader r(bytes.data(), bytes.size());
    try {
      auto events = obs::decode_trace(r);
      (void)events;  // flips confined to payload fields decode fine
    } catch (const Error&) {
    }
  }
}

TEST_P(FuzzSeed, TruncationsNeverCrashTraceDecoder) {
  const auto base = valid_trace_bytes();
  // The decoder reads an exact event count and then requires end-of-buffer,
  // so every strict prefix must throw (and never read out of bounds).
  for (size_t len = 0; len < base.size(); ++len) {
    Reader r(base.data(), len);
    EXPECT_THROW((void)obs::decode_trace(r), Error) << "len=" << len;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeed, ::testing::Values(1u, 2u, 3u, 4u));

// Oversized length prefixes must be rejected by bounds checks, not cause
// allocation explosions: a claimed 4 GiB buffer inside 40 bytes throws.
TEST(FuzzDecode, HugeClaimedLengthsRejected) {
  Writer w;
  w.put(FuzzComplexToken::staticTypeInfo().id);
  w.put<int32_t>(1);                 // id field
  w.put<uint32_t>(0xfffffff0u);      // name length: absurd
  Reader r(w.bytes());
  EXPECT_THROW((void)deserialize_token(r), Error);
}

TEST(FuzzDecode, HugeBufferCountRejected) {
  Writer w;
  w.put(FuzzComplexToken::staticTypeInfo().id);
  w.put<int32_t>(1);
  w.put_string("x");
  w.put<uint64_t>(0x7fffffffffffull);  // element count: absurd
  Reader r(w.bytes());
  EXPECT_THROW((void)deserialize_token(r), Error);
}

// Regression (found by the asan-ubsan preset): decoding a token whose
// string/buffer fields are empty made Reader::get_raw call memcpy with the
// empty container's null data() — UB flagged by -fsanitize=undefined's
// nonnull check ("null pointer passed as argument 1"), and the same held
// for Writer::put_raw on encode and std::string(nullptr, 0) in get_string.
// Zero-size reads/writes must be exact no-ops.
TEST(FuzzDecode, EmptyFieldsRoundTripWithoutTouchingNullData) {
  FuzzComplexToken t;
  t.id = 42;
  t.name = std::string();  // empty: data() is null in the decoded copy
  // values deliberately left empty too
  Writer w;
  serialize_token(t, w);
  Reader r(w.bytes());
  auto decoded = deserialize_token(r);
  auto* ct = dynamic_cast<FuzzComplexToken*>(decoded.get());
  ASSERT_NE(ct, nullptr);
  EXPECT_EQ(ct->id.get(), 42);
  EXPECT_EQ(ct->name.get(), "");
  EXPECT_EQ(ct->values.size(), 0u);
}

// Same surface, byte-level: zero-size raw accessors against a Reader over
// an empty buffer (data() == nullptr) must neither move the cursor nor
// dereference anything.
TEST(FuzzDecode, ZeroSizeRawAccessOnEmptyBufferIsANoOp) {
  std::vector<std::byte> empty;
  Reader r(empty);
  r.get_raw(nullptr, 0);  // must not reach memcpy
  EXPECT_THROW(r.get_raw(nullptr, 1), Error);

  Writer w;
  w.put_raw(empty.data(), 0);  // null src, zero size: no-op
  w.put_string(std::string());
  EXPECT_EQ(w.bytes().size(), sizeof(uint32_t));  // just the length prefix
  Reader r2(w.bytes());
  EXPECT_EQ(r2.get_string(), "");
}

TEST(FuzzDecode, TraceHugeThreadCountRejected) {
  Writer w;
  w.put<uint32_t>(obs::kTraceMagic);
  w.put<uint16_t>(obs::kTraceVersion);
  w.put<uint16_t>(0);
  w.put<uint32_t>(0xffffffffu);  // thread-name table entries: absurd
  Reader r(w.bytes());
  EXPECT_THROW((void)obs::decode_trace(r), Error);
}

TEST(FuzzDecode, TraceHugeEventCountRejected) {
  Writer w;
  w.put<uint32_t>(obs::kTraceMagic);
  w.put<uint16_t>(obs::kTraceVersion);
  w.put<uint16_t>(0);
  w.put<uint32_t>(0);                  // no thread names
  w.put<uint64_t>(0x7fffffffffffull);  // event count: absurd
  Reader r(w.bytes());
  EXPECT_THROW((void)obs::decode_trace(r), Error);
}

// --- kFlowAck -----------------------------------------------------------------
//
// A flow ack is exactly [u64 context | u32 n]. Whatever a peer sends as a
// kFlowAck either decodes to a value that re-encodes to the same bytes, or
// raises Error(kProtocol).

std::vector<std::byte> flow_ack_bytes(ContextId context, uint32_t n) {
  Writer w;
  encode_flow_ack(w, FlowAck{context, n});
  return w.take();
}

/// Checks the property on one payload; returns whether it decoded.
bool flow_ack_round_trips_or_rejects(const std::vector<std::byte>& bytes) {
  Reader r(bytes);
  FlowAck ack;
  try {
    ack = decode_flow_ack(r);
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kProtocol) << bytes.size() << " bytes";
    return false;
  }
  Writer w;
  encode_flow_ack(w, ack);
  EXPECT_EQ(w.bytes(), bytes) << "decoded ack re-encodes differently";
  return true;
}

TEST(FuzzDecode, FlowAckRandomBytesRoundTripOrReject) {
  const uint32_t seed = dps_testing::effective_seed(0xf10aac01);
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  std::mt19937 rng(seed);
  for (int round = 0; round < 500; ++round) {
    std::vector<std::byte> bytes(rng() % 25);
    for (auto& b : bytes) b = static_cast<std::byte>(rng() & 0xff);
    EXPECT_EQ(flow_ack_round_trips_or_rejects(bytes),
              bytes.size() == kFlowAckSize)
        << "round " << round << ", " << bytes.size() << " bytes";
  }
}

TEST(FuzzDecode, FlowAckRejectsTruncationsAndExtensions) {
  const std::vector<std::byte> full = flow_ack_bytes(0x0102030405060708, 9);
  ASSERT_EQ(full.size(), kFlowAckSize);
  EXPECT_TRUE(flow_ack_round_trips_or_rejects(full));
  for (size_t len = 0; len < kFlowAckSize; ++len) {
    EXPECT_FALSE(flow_ack_round_trips_or_rejects(std::vector<std::byte>(
        full.begin(), full.begin() + static_cast<ptrdiff_t>(len))))
        << "len=" << len;
  }
  for (size_t extra = 1; extra <= 8; ++extra) {
    std::vector<std::byte> longer = full;
    longer.resize(kFlowAckSize + extra, std::byte{0x5a});
    EXPECT_FALSE(flow_ack_round_trips_or_rejects(longer))
        << "len=" << longer.size();
  }
  // The retired layout carried a u32 receiver-depth trailer.
  Writer old;
  old.put<ContextId>(0x0102030405060708);
  old.put<uint32_t>(9);
  old.put<uint32_t>(3);
  EXPECT_FALSE(flow_ack_round_trips_or_rejects(old.bytes()));
}

TEST(FuzzDecode, FlowAckMutatedFramesRoundTripOrReject) {
  const uint32_t seed = dps_testing::effective_seed(0xf10aacf1);
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  std::mt19937 rng(seed);
  for (int round = 0; round < 500; ++round) {
    const ContextId ctx = (static_cast<uint64_t>(rng()) << 32) | rng();
    std::vector<std::byte> bytes = flow_ack_bytes(ctx, rng());
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng() % bytes.size();
      bytes[pos] ^= static_cast<std::byte>(1u << (rng() % 8));
    }
    if (rng() % 4 == 0) bytes.resize(rng() % (2 * kFlowAckSize));
    EXPECT_EQ(flow_ack_round_trips_or_rejects(bytes),
              bytes.size() == kFlowAckSize)
        << "round " << round;
  }
}

// --- ReliableFabric receive side ---------------------------------------------
//
// Whatever a peer sends as kReliable / kAck / kHeartbeat reaches the
// decorator's receive handler, which runs on a transport thread: it must
// never throw. A frame that does not decode goes up as a kPeerDown report.

/// Inner fabric that exposes the decorator's receive handler to the test
/// and swallows everything sent through it (acks, re-acks).
class CaptureFabric : public Fabric {
 public:
  void attach_batch(NodeId self, BatchHandler handler) override {
    handlers[self] = std::move(handler);
  }
  void send(NodeId, NodeId, FrameKind, std::vector<std::byte>) override {
    ++sent;
  }
  void shutdown() override {}
  uint64_t bytes_sent() const override { return 0; }
  uint64_t messages_sent() const override { return sent; }

  std::map<NodeId, BatchHandler> handlers;
  uint64_t sent = 0;
};

/// Node 1 of a three-node decorator over a CaptureFabric; `up` collects
/// what reaches the layer above.
struct ReliableRx {
  std::shared_ptr<CaptureFabric> capture = std::make_shared<CaptureFabric>();
  std::unique_ptr<ReliableFabric> rf;
  std::vector<NodeMessage> up;

  ReliableRx() {
    FaultToleranceConfig ft;
    ft.reliable = true;
    rf = std::make_unique<ReliableFabric>(capture, 3, ft);
    rf->attach_batch(1, [this](std::vector<NodeMessage>&& msgs) {
      for (NodeMessage& m : msgs) up.push_back(std::move(m));
    });
  }
  ReliableRx(const ReliableRx&) = delete;  // the handler captures `this`
  ReliableRx& operator=(const ReliableRx&) = delete;

  void deliver(NodeId from, FrameKind kind, std::vector<std::byte> payload) {
    std::vector<NodeMessage> batch;
    batch.push_back(NodeMessage{from, kind, std::move(payload)});
    capture->handlers.at(1)(std::move(batch));
  }
};

std::vector<std::byte> reliable_bytes(uint64_t seq, uint64_t ack,
                                      size_t body) {
  Writer w;
  w.put<uint64_t>(seq);
  w.put<uint64_t>(ack);
  w.put<uint16_t>(static_cast<uint16_t>(FrameKind::kEnvelope));
  for (size_t i = 0; i < body; ++i) w.put<uint8_t>(static_cast<uint8_t>(i));
  return w.take();
}

constexpr size_t kReliableHeader = 18;

TEST(FuzzDecode, ReliableReceiveSurvivesRandomFrames) {
  const uint32_t seed = dps_testing::effective_seed(0x3e11ab1e);
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  std::mt19937 rng(seed);
  ReliableRx rx;
  const FrameKind kinds[] = {FrameKind::kReliable, FrameKind::kAck,
                             FrameKind::kHeartbeat};
  for (int round = 0; round < 300; ++round) {
    std::vector<NodeMessage> batch(1 + rng() % 4);
    for (NodeMessage& m : batch) {
      m.from = static_cast<NodeId>(rng() % 4);  // node 3 does not exist
      m.kind = kinds[rng() % 3];
      m.payload.resize(rng() % 48);
      for (auto& b : m.payload) b = static_cast<std::byte>(rng() & 0xff);
    }
    EXPECT_NO_THROW(rx.capture->handlers.at(1)(std::move(batch)))
        << "round " << round;
  }
}

TEST(FuzzDecode, ReliableReceiveReportsTruncatedFrames) {
  ReliableRx rx;
  const std::vector<std::byte> full = reliable_bytes(1, 0, 6);
  for (size_t len = 0; len < kReliableHeader; ++len) {
    rx.up.clear();
    ASSERT_NO_THROW(rx.deliver(
        0, FrameKind::kReliable,
        std::vector<std::byte>(full.begin(),
                               full.begin() + static_cast<ptrdiff_t>(len))));
    ASSERT_EQ(rx.up.size(), 1u) << "len=" << len;
    EXPECT_EQ(rx.up[0].kind, FrameKind::kPeerDown) << "len=" << len;
    EXPECT_EQ(rx.up[0].from, 0u);
  }
  for (FrameKind kind : {FrameKind::kAck, FrameKind::kHeartbeat}) {
    for (size_t len = 0; len < sizeof(uint64_t); ++len) {
      rx.up.clear();
      ASSERT_NO_THROW(rx.deliver(2, kind, std::vector<std::byte>(len)));
      ASSERT_EQ(rx.up.size(), 1u) << "len=" << len;
      EXPECT_EQ(rx.up[0].kind, FrameKind::kPeerDown) << "len=" << len;
    }
    rx.up.clear();
    rx.deliver(2, kind, std::vector<std::byte>(sizeof(uint64_t)));
    EXPECT_TRUE(rx.up.empty()) << "a well-formed ack carrier is consumed";
  }
  // A whole header with a short body is a frame like any other.
  for (size_t body = 0; body < 6; ++body) {
    rx.up.clear();
    rx.deliver(0, FrameKind::kReliable, reliable_bytes(body + 1, 0, body));
    ASSERT_EQ(rx.up.size(), 1u);
    EXPECT_EQ(rx.up[0].kind, FrameKind::kEnvelope);
    EXPECT_EQ(rx.up[0].payload.size(), body);
  }
  rx.up.clear();
  rx.deliver(0, FrameKind::kReliable, reliable_bytes(3, 0, 4));
  EXPECT_TRUE(rx.up.empty()) << "a repeated sequence number is suppressed";
  EXPECT_EQ(rx.rf->duplicates_suppressed(), 1u);
}

TEST(FuzzDecode, ReliableReceiveSurvivesMutatedFrames) {
  const uint32_t seed = dps_testing::effective_seed(0x3e11f11b);
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  std::mt19937 rng(seed);
  ReliableRx rx;
  for (int round = 0; round < 300; ++round) {
    std::vector<std::byte> bytes =
        reliable_bytes(1 + rng() % 64, rng() % 64, rng() % 16);
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng() % bytes.size();
      bytes[pos] ^= static_cast<std::byte>(1u << (rng() % 8));
    }
    if (rng() % 4 == 0) bytes.resize(rng() % bytes.size());
    const NodeId from = static_cast<NodeId>(rng() % 3);
    ASSERT_NO_THROW(rx.deliver(from, FrameKind::kReliable, std::move(bytes)))
        << "round " << round;
  }
  for (const NodeMessage& m : rx.up) {
    EXPECT_NE(m.kind, FrameKind::kReliable) << "frames go up unwrapped";
  }
}

}  // namespace
}  // namespace dps
