// Robustness tests for the wire decoders: random garbage, bit flips, and
// truncations must produce Error exceptions (kProtocol / kNotFound), never
// crashes, hangs, or silent misreads. Seed-parameterized gtest.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "core/envelope.hpp"
#include "core/mcast.hpp"
#include "net/framing.hpp"
#include "net/reliable_fabric.hpp"
#include "net/socket.hpp"
#include "net/tcp_transport.hpp"
#include "obs/trace_format.hpp"
#include "serial/buffer_pool.hpp"
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

// --- kMcastEnvelope header -----------------------------------------------------
//
// A multicast frame is [u8 0 | u32 n | n x {u32 node | u32 thread | u32 seq}]
// followed by one envelope body. The header decode either returns entries
// that re-encode to exactly the bytes it consumed, or raises
// Error(kProtocol). The body then goes through Envelope::decode, whose
// contract the Adopt fuzzers pin: a decoded envelope re-encodes to the same
// bytes, and garbage raises kProtocol (or kNotFound for a token type id
// nobody registered).

/// A multicast frame with `n` random entries and a valid envelope body.
std::vector<std::byte> mcast_frame_bytes(std::mt19937& rng, size_t n) {
  std::vector<McastEntry> entries(n);
  for (McastEntry& e : entries) {
    e = McastEntry{static_cast<uint32_t>(rng()), static_cast<uint32_t>(rng()),
                   static_cast<uint32_t>(rng())};
  }
  Writer w;
  encode_mcast_header(w, entries.data(), entries.size());
  const std::vector<std::byte> body = valid_envelope_bytes();
  w.put_raw(body.data(), body.size());
  return w.take();
}

/// Decodes `bytes` the way Controller::handle_mcast does and checks the
/// property. Returns whether the header decoded; *body_ok says whether the
/// envelope body did too.
bool mcast_round_trips_or_rejects(const std::vector<std::byte>& bytes,
                                  bool* body_ok = nullptr) {
  if (body_ok != nullptr) *body_ok = false;
  Reader r(bytes);
  std::vector<McastEntry> entries;
  try {
    entries = decode_mcast_header(r);
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kProtocol) << e.what();
    return false;
  }
  const size_t consumed = bytes.size() - r.remaining();
  Writer header;
  encode_mcast_header(header, entries.data(), entries.size());
  EXPECT_TRUE(std::equal(header.bytes().begin(), header.bytes().end(),
                         bytes.begin(), bytes.begin() + consumed) &&
              header.bytes().size() == consumed)
      << "decoded header re-encodes differently (" << entries.size()
      << " entries)";
  Envelope env;
  try {
    env = Envelope::decode(r);
  } catch (const Error& e) {
    EXPECT_TRUE(e.code() == Errc::kProtocol || e.code() == Errc::kNotFound)
        << to_string(e.code()) << ": " << e.what();
    return true;
  }
  Writer body;
  env.encode(body);
  EXPECT_TRUE(std::equal(body.bytes().begin(), body.bytes().end(),
                         bytes.begin() + consumed, bytes.end()) &&
              body.bytes().size() == bytes.size() - consumed)
      << "decoded body re-encodes differently";
  if (body_ok != nullptr) *body_ok = true;
  return true;
}

TEST(FuzzDecode, McastHeaderValidFramesRoundTrip) {
  const uint32_t seed = dps_testing::effective_seed(0x3ca57001);
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  std::mt19937 rng(seed);
  for (size_t n = 0; n <= 64; ++n) {
    bool body_ok = false;
    EXPECT_TRUE(mcast_round_trips_or_rejects(mcast_frame_bytes(rng, n),
                                             &body_ok))
        << "n=" << n;
    EXPECT_TRUE(body_ok) << "n=" << n;
  }
}

TEST(FuzzDecode, McastHeaderRandomBytesRoundTripOrReject) {
  const uint32_t seed = dps_testing::effective_seed(0x3ca57002);
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  std::mt19937 rng(seed);
  for (int round = 0; round < 500; ++round) {
    std::vector<std::byte> bytes(rng() % (mcast_header_size(64) + 64));
    for (auto& b : bytes) b = static_cast<std::byte>(rng() & 0xff);
    // Small counts are where random bytes can actually decode.
    if (bytes.size() >= 5 && rng() % 2 == 0) {
      bytes[0] = std::byte{0};
      const uint32_t n = rng() % 8;
      std::memcpy(bytes.data() + 1, &n, sizeof(n));
    }
    (void)mcast_round_trips_or_rejects(bytes);
  }
}

TEST(FuzzDecode, McastHeaderTruncationsAreRejected) {
  const uint32_t seed = dps_testing::effective_seed(0x3ca57003);
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  std::mt19937 rng(seed);
  for (size_t n = 0; n <= 64; ++n) {
    const std::vector<std::byte> full = mcast_frame_bytes(rng, n);
    const size_t header = mcast_header_size(n);
    for (size_t len = 0; len < full.size(); ++len) {
      const std::vector<std::byte> part(
          full.begin(), full.begin() + static_cast<ptrdiff_t>(len));
      bool body_ok = true;
      const bool header_ok = mcast_round_trips_or_rejects(part, &body_ok);
      EXPECT_EQ(header_ok, len >= header) << "n=" << n << ", len=" << len;
      EXPECT_FALSE(body_ok) << "n=" << n << ", len=" << len;
    }
  }
}

TEST(FuzzDecode, McastHeaderMutatedFramesRoundTripOrReject) {
  const uint32_t seed = dps_testing::effective_seed(0x3ca57004);
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  std::mt19937 rng(seed);
  int decoded = 0, rejected = 0;
  for (int round = 0; round < 1000; ++round) {
    const size_t n = rng() % 65;
    std::vector<std::byte> bytes = mcast_frame_bytes(rng, n);
    // One byte of the header: the topology byte, the count, or an entry.
    const size_t pos = rng() % mcast_header_size(n);
    bytes[pos] ^= static_cast<std::byte>(1 + rng() % 255);
    ++(mcast_round_trips_or_rejects(bytes) ? decoded : rejected);
  }
  EXPECT_GT(decoded, 0) << "no mutation left a decodable header";
  EXPECT_GT(rejected, 0) << "no mutation was rejected";
}

TEST(FuzzDecode, McastHeaderOverlongCountRaisesBeforeAllocating) {
  const uint32_t seed = dps_testing::effective_seed(0x3ca57005);
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  std::mt19937 rng(seed);
  for (size_t n = 0; n <= 64; ++n) {
    std::vector<std::byte> bytes = mcast_frame_bytes(rng, n);
    // One entry more than the whole rest of the frame holds, and 2^32 - 1,
    // which would ask for 48 GiB if the decode sized its vector first.
    const uint64_t fits = (bytes.size() - 5) / sizeof(McastEntry);
    for (uint64_t claim : {fits + 1, uint64_t{0xffffffff}}) {
      const auto count = static_cast<uint32_t>(claim);
      std::memcpy(bytes.data() + 1, &count, sizeof(count));
      Reader r(bytes);
      try {
        (void)decode_mcast_header(r);
        ADD_FAILURE() << "count " << count << " decoded, n=" << n;
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), Errc::kProtocol) << e.what();
      }
    }
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

// --- Adopting decodes -----------------------------------------------------------
//
// The controller decodes every envelope-bearing frame through an adoptable
// reader, so a large Buffer<T> at the frame's tail may take the frame's
// storage. A frame must decode to an envelope that re-encodes to the same
// bytes, or raise kProtocol (kNotFound when a flip hits the type id, by
// the registry's contract).

class FuzzBlobToken : public ComplexToken {
 public:
  CT<int32_t> tag;
  Buffer<uint8_t> blob;
  DPS_IDENTIFY(FuzzBlobToken);
};

class FuzzWordsToken : public ComplexToken {
 public:
  CT<int32_t> tag;
  Buffer<uint32_t> words;  // the run is at offset 84: adoptable
  DPS_IDENTIFY(FuzzWordsToken);
};

/// An envelope frame whose token ends in a Buffer run of a random size on
/// either side of kPooledBlockBytes.
std::vector<std::byte> adopt_frame_bytes(std::mt19937& rng) {
  Envelope e;
  e.app = 1;
  e.graph = 2;
  e.vertex = 3;
  e.call = rng();
  e.frames.push_back(
      SplitFrame{rng(), static_cast<uint32_t>(rng() % 64), 0, 0, 1});
  const size_t bytes = kPooledBlockBytes / 2 + rng() % (2 * kPooledBlockBytes);
  if (rng() % 2 == 0) {
    auto* t = new FuzzWordsToken();
    t->tag = static_cast<int32_t>(rng());
    t->words.resize(bytes / sizeof(uint32_t));
    for (uint32_t& v : t->words) v = rng();
    e.token = Ptr<Token>(t);
  } else {
    auto* t = new FuzzBlobToken();
    t->tag = static_cast<int32_t>(rng());
    t->blob.resize(bytes);
    for (uint8_t& v : t->blob) v = static_cast<uint8_t>(rng());
    e.token = Ptr<Token>(t);
  }
  Writer w;
  e.encode(w);
  return w.take();
}

/// Decodes `bytes` the way the controller does. True when it decoded (and
/// re-encoded to the same bytes); *adopted then says whether the token
/// took the frame. False when the decode raised.
bool adopt_round_trips_or_rejects(const std::vector<std::byte>& bytes,
                                  bool* adopted = nullptr) {
  std::vector<std::byte> frame = bytes;  // the decode may take this copy
  Reader r = Reader::adoptable(frame);
  Envelope e;
  try {
    e = Envelope::decode(r);
  } catch (const Error& err) {
    EXPECT_TRUE(err.code() == Errc::kProtocol ||
                err.code() == Errc::kNotFound)
        << to_string(err.code()) << ": " << err.what();
    return false;
  }
  if (adopted != nullptr) *adopted = frame.empty();
  Writer w;
  e.encode(w);
  EXPECT_TRUE(w.bytes() == bytes) << "a decoded envelope re-encodes "
                                     "differently ("
                                  << bytes.size() << " bytes)";
  return true;
}

TEST(FuzzDecode, AdoptValidFramesRoundTrip) {
  const uint32_t seed = dps_testing::effective_seed(0xad0971);
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  std::mt19937 rng(seed);
  int adopted_count = 0;
  for (int round = 0; round < 60; ++round) {
    bool adopted = false;
    ASSERT_TRUE(adopt_round_trips_or_rejects(adopt_frame_bytes(rng), &adopted))
        << "round " << round;
    adopted_count += adopted ? 1 : 0;
  }
  EXPECT_GT(adopted_count, 0) << "no frame exercised the adopting path";
  EXPECT_LT(adopted_count, 60) << "no frame exercised the copying path";
}

TEST(FuzzDecode, AdoptTruncatedFramesAreRejected) {
  const uint32_t seed = dps_testing::effective_seed(0xad0972);
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  std::mt19937 rng(seed);
  for (int round = 0; round < 40; ++round) {
    const std::vector<std::byte> full = adopt_frame_bytes(rng);
    for (int cut = 0; cut < 8; ++cut) {
      // Mostly near the end, where the run and the adopt decision live.
      const size_t len = cut < 4 ? full.size() - 1 - rng() % 64
                                 : rng() % full.size();
      const std::vector<std::byte> part(
          full.begin(), full.begin() + static_cast<ptrdiff_t>(len));
      EXPECT_FALSE(adopt_round_trips_or_rejects(part))
          << "round " << round << ", " << len << " of " << full.size();
    }
  }
}

TEST(FuzzDecode, AdoptMutatedFramesRoundTripOrReject) {
  const uint32_t seed = dps_testing::effective_seed(0xad0973);
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  std::mt19937 rng(seed);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::byte> bytes = adopt_frame_bytes(rng);
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      // Half the flips land in the envelope header, the token's type id
      // and its run count, which steer the decode.
      const size_t pos = rng() % 2 == 0 ? rng() % std::min<size_t>(96, bytes.size())
                                        : rng() % bytes.size();
      bytes[pos] ^= static_cast<std::byte>(1u << (rng() % 8));
    }
    if (rng() % 4 == 0) {
      for (uint32_t extra = 1 + rng() % 8; extra > 0; --extra) {
        bytes.push_back(static_cast<std::byte>(rng()));  // trailing bytes
      }
    }
    (void)adopt_round_trips_or_rejects(bytes);
  }
}

TEST(FuzzDecode, AdoptRandomTokenBytesRoundTripOrReject) {
  const uint32_t seed = dps_testing::effective_seed(0xad0974);
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  std::mt19937 rng(seed);
  for (int round = 0; round < 200; ++round) {
    // A valid envelope header, then garbage where the token would be.
    std::vector<std::byte> bytes = adopt_frame_bytes(rng);
    const size_t keep = rng() % 80;
    bytes.resize(keep + rng() % (2 * kPooledBlockBytes));
    for (size_t i = keep; i < bytes.size(); ++i) {
      bytes[i] = static_cast<std::byte>(rng());
    }
    (void)adopt_round_trips_or_rejects(bytes);
  }
}

// --- FrameReader -------------------------------------------------------------
//
// Frame streams written to a loopback connection in randomly split chunks.
// Valid frames come out byte-identical, garbage raises, nothing hangs, and
// a header claiming more than kMaxFrameLength is refused before anything
// is allocated for it.

struct WireFrame {
  uint16_t kind = 0;
  uint32_t from = 0;
  std::vector<std::byte> payload;
};

void put_frame(Writer& w, uint32_t magic, const WireFrame& f, uint32_t length) {
  w.put<uint32_t>(magic);
  w.put<uint16_t>(f.kind);
  w.put<uint16_t>(0);
  w.put<uint32_t>(f.from);
  w.put<uint32_t>(length);
  w.put_raw(f.payload.data(), f.payload.size());
}

/// Random frames, small and large: some longer than FrameReader's 64 kB
/// receive chunk, so both of its payload paths run.
std::vector<WireFrame> random_frames(std::mt19937& rng) {
  std::vector<WireFrame> frames(1 + rng() % 12);
  for (WireFrame& f : frames) {
    f.kind = static_cast<uint16_t>(1 + rng() % 10);
    f.from = rng() % 8;
    const uint32_t pick = rng() % 8;
    const size_t len = pick == 0   ? 0
                       : pick < 5  ? rng() % 2048
                       : pick < 7  ? rng() % (64 * 1024)
                                   : 64 * 1024 + rng() % (96 * 1024);
    f.payload.resize(len);
    for (std::byte& b : f.payload) b = static_cast<std::byte>(rng());
  }
  return frames;
}

/// How a stream ends for a reader that decodes it front to back.
enum class StreamEnd { kCleanEof, kProtocol, kNetwork };

/// Reference decoder for `wire`: the frames before the end, and the end.
StreamEnd reference_decode(const std::vector<std::byte>& wire,
                           std::vector<WireFrame>* out) {
  size_t pos = 0;
  for (;;) {
    if (pos == wire.size()) return StreamEnd::kCleanEof;
    if (wire.size() - pos < 16) return StreamEnd::kNetwork;
    uint32_t magic, from, length;
    uint16_t kind;
    std::memcpy(&magic, &wire[pos], 4);
    std::memcpy(&kind, &wire[pos + 4], 2);
    std::memcpy(&from, &wire[pos + 8], 4);
    std::memcpy(&length, &wire[pos + 12], 4);
    if (magic != kFrameMagic || length > kMaxFrameLength) {
      return StreamEnd::kProtocol;
    }
    if (wire.size() - pos - 16 < length) return StreamEnd::kNetwork;
    WireFrame f;
    f.kind = kind;
    f.from = from;
    f.payload.assign(wire.begin() + static_cast<ptrdiff_t>(pos + 16),
                     wire.begin() + static_cast<ptrdiff_t>(pos + 16 + length));
    out->push_back(std::move(f));
    pos += 16 + length;
  }
}

/// Writes `wire` into a loopback connection in random chunks while a
/// FrameReader decodes the other end; checks the reader against
/// reference_decode. The writer also cuts, and pauses, at every offset in
/// `pauses`, so the reader sees the stream end there for a while.
void expect_frame_reader_matches_reference(const std::vector<std::byte>& wire,
                                           std::mt19937& rng,
                                           std::vector<size_t> pauses = {}) {
  std::vector<WireFrame> want;
  const StreamEnd want_end = reference_decode(wire, &want);

  TcpListener listener = TcpListener::bind(0);
  TcpConn tx = TcpConn::connect("127.0.0.1", listener.port());
  TcpConn rx = listener.accept();
  std::vector<size_t> cuts;
  for (size_t at = 0; at < wire.size();) {
    at += 1 + rng() % 9000;
    cuts.push_back(std::min(at, wire.size()));
  }
  std::sort(pauses.begin(), pauses.end());
  for (const size_t at : pauses) {
    if (at > 0 && at < wire.size()) cuts.push_back(at);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::thread writer([&wire, &cuts, &pauses, conn = std::move(tx)]() mutable {
    size_t from = 0;
    try {
      for (size_t i = 0; i < cuts.size(); ++i) {
        conn.send_all(wire.data() + from, cuts[i] - from);
        from = cuts[i];
        if (i % 3 == 0 ||
            std::binary_search(pauses.begin(), pauses.end(), cuts[i])) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
    } catch (const Error&) {
      // The reader stopped early and closed its end.
    }
  });  // closing `conn` on exit is the EOF the reader waits for

  BufferPool& pool = BufferPool::instance();
  std::vector<Frame> got;
  StreamEnd end = StreamEnd::kCleanEof;
  {
    FrameReader reader(rx);
    for (;;) {
      const uint64_t acquires = pool.stats().acquires;
      Frame f;
      try {
        if (!reader.next(&f)) break;
      } catch (const Error& e) {
        end = e.code() == Errc::kProtocol ? StreamEnd::kProtocol
                                          : StreamEnd::kNetwork;
        if (end == StreamEnd::kProtocol) {
          EXPECT_EQ(pool.stats().acquires, acquires)
              << "a refused header must not allocate";
        }
        break;
      }
      got.push_back(std::move(f));
    }
  }
  rx.close();  // unblocks a writer the reader abandoned
  writer.join();

  EXPECT_EQ(static_cast<int>(end), static_cast<int>(want_end));
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(static_cast<uint16_t>(got[i].kind), want[i].kind) << i;
    EXPECT_EQ(got[i].from, want[i].from) << i;
    EXPECT_TRUE(got[i].payload == want[i].payload) << "frame " << i;
  }
}

TEST(FuzzDecode, FrameReaderSplitStreamsDecodeByteIdentical) {
  const uint32_t seed = dps_testing::effective_seed(0xf7a3e1);
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  std::mt19937 rng(seed);
  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    Writer w;
    for (const WireFrame& f : random_frames(rng)) {
      put_frame(w, kFrameMagic, f, static_cast<uint32_t>(f.payload.size()));
    }
    expect_frame_reader_matches_reference(w.bytes(), rng);
  }
}

TEST(FuzzDecode, FrameReaderGarbageRaisesWithoutOverAllocating) {
  const uint32_t seed = dps_testing::effective_seed(0xf7a3e2);
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  std::mt19937 rng(seed);
  for (int round = 0; round < 24; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    const std::vector<WireFrame> frames = random_frames(rng);
    Writer w;
    for (const WireFrame& f : frames) {
      const uint32_t pick = rng() % 8;
      uint32_t length = static_cast<uint32_t>(f.payload.size());
      uint32_t magic = kFrameMagic;
      if (pick == 0) {
        length = kMaxFrameLength + 1 + rng() % (UINT32_MAX - kMaxFrameLength);
      } else if (pick == 1) {
        magic ^= 1u << (rng() % 32);
      } else if (pick == 2) {
        // A length that runs into the next frame, but stays small: a legal
        // claim up to kMaxFrameLength would only make the reader wait for,
        // and allocate, that many bytes.
        length += rng() % 4096;
      }
      put_frame(w, magic, f, length);
    }
    std::vector<std::byte> wire = w.take();
    if (rng() % 3 == 0) wire.resize(rng() % (wire.size() + 1));  // torn
    expect_frame_reader_matches_reference(wire, rng);
  }
}

/// A frame of `len` random payload bytes.
WireFrame frame_of(std::mt19937& rng, size_t len) {
  WireFrame f;
  f.kind = static_cast<uint16_t>(1 + rng() % 10);
  f.from = rng() % 8;
  f.payload.resize(len);
  for (std::byte& b : f.payload) b = static_cast<std::byte>(rng());
  return f;
}

size_t large_length(std::mt19937& rng) {
  return kPooledBlockBytes + rng() % (150 * 1024);
}

/// Appends a run of 1-4 large frames, each followed by a pause inside the
/// header that comes after it. Most of them are larger than the reader's
/// 64 kB chunk, after which it reads the next header on its own.
void put_large_run(Writer& w, std::mt19937& rng, std::vector<size_t>* pauses) {
  for (uint32_t i = 1 + rng() % 4; i > 0; --i) {
    const WireFrame f = frame_of(rng, large_length(rng));
    put_frame(w, kFrameMagic, f, static_cast<uint32_t>(f.payload.size()));
    pauses->push_back(w.size() + 1 + rng() % 15);
  }
}

// Runs of consecutive large frames followed by small ones: the reader
// switches between reading a header on its own and its chunk and back, and
// decodes every frame byte-identical whatever the split points.
TEST(FuzzDecode, FrameReaderLargeRunsThenSmallDecodeByteIdentical) {
  const uint32_t seed = dps_testing::effective_seed(0xf7a3e3);
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  std::mt19937 rng(seed);
  for (int round = 0; round < 10; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    Writer w;
    std::vector<size_t> pauses;
    for (uint32_t run = 1 + rng() % 3; run > 0; --run) {
      put_large_run(w, rng, &pauses);
      for (uint32_t i = rng() % 4; i > 0; --i) {
        const WireFrame f = frame_of(rng, rng() % 2048);
        put_frame(w, kFrameMagic, f, static_cast<uint32_t>(f.payload.size()));
      }
    }
    expect_frame_reader_matches_reference(w.bytes(), rng, pauses);
  }
}

// A stream that ends or goes bad right after large frames, where the next
// header may be read on its own: an over-long or bad header raises kProtocol
// before anything is allocated, EOF inside the header or the payload
// raises kNetwork, and EOF at the frame boundary is a clean end.
TEST(FuzzDecode, FrameReaderHeaderFirstEndsLikeTheChunkPath) {
  const uint32_t seed = dps_testing::effective_seed(0xf7a3e4);
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  std::mt19937 rng(seed);
  for (int round = 0; round < 18; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    Writer w;
    std::vector<size_t> pauses;
    put_large_run(w, rng, &pauses);
    if (rng() % 3 == 0) {  // a small frame puts the reader back on its chunk
      const WireFrame f = frame_of(rng, rng() % 512);
      put_frame(w, kFrameMagic, f, static_cast<uint32_t>(f.payload.size()));
    }
    const WireFrame next = frame_of(rng, rng() % 2 == 0 ? rng() % 512
                                                        : large_length(rng));
    const uint32_t len = static_cast<uint32_t>(next.payload.size());
    std::vector<std::byte> wire;
    switch (round % 6) {
      case 0:  // clean EOF at the boundary
        wire = w.take();
        break;
      case 1:  // over-long header
        put_frame(w, kFrameMagic, next,
                  kMaxFrameLength + 1 + rng() % (UINT32_MAX - kMaxFrameLength));
        wire = w.take();
        break;
      case 2:  // bad magic
        put_frame(w, kFrameMagic ^ (1u << (rng() % 32)), next, len);
        wire = w.take();
        break;
      case 3: {  // EOF inside the header
        const size_t at = w.size();
        put_frame(w, kFrameMagic, next, len);
        wire = w.take();
        wire.resize(at + 1 + rng() % 15);
        break;
      }
      case 4: {  // EOF inside the payload
        const size_t at = w.size();
        put_frame(w, kFrameMagic, next, len + 1);
        wire = w.take();
        wire.resize(at + 16 + rng() % (len + 1));
        break;
      }
      default:  // a valid frame after all
        put_frame(w, kFrameMagic, next, len);
        wire = w.take();
        break;
    }
    expect_frame_reader_matches_reference(wire, rng, pauses);
  }
}

// --- Hello frames ------------------------------------------------------------
//
// Every frame of a TCP connection is tagged with the node id its hello
// names. Random hellos, each followed by an envelope frame and a shutdown
// frame: a hello is accepted only with an id of the fabric's, and no frame
// is ever delivered under any other id.

TEST(FuzzDecode, HelloRandomHeadersAreAcceptedInRangeOrRefused) {
  const uint32_t seed = dps_testing::effective_seed(0x4e110);
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  std::mt19937 rng(seed);
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
  int accepted_rounds = 0;
  for (uint32_t round = 0; round < 48; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    WireFrame hello = frame_of(rng, rng() % 33);
    const uint32_t kind_pick = rng() % 8;
    hello.kind = kind_pick < 6 ? static_cast<uint16_t>(FrameKind::kHello)
                               : static_cast<uint16_t>(rng());
    const uint32_t from_pick = rng() % 3;
    hello.from = from_pick == 0   ? rng() % kNodes
                 : from_pick == 1 ? kNodes + rng() % 8
                                  : static_cast<uint32_t>(rng());
    const uint32_t magic =
        rng() % 8 == 0 ? kFrameMagic ^ (1u << (rng() % 32)) : kFrameMagic;
    const bool exact = rng() % 8 != 0;
    const uint32_t length = static_cast<uint32_t>(hello.payload.size()) +
                            (exact ? 0 : 1 + rng() % 8);
    Writer w;
    put_frame(w, magic, hello, length);
    WireFrame env;
    env.kind = static_cast<uint16_t>(FrameKind::kEnvelope);
    env.from = static_cast<uint32_t>(rng());
    Writer marker;
    marker.put<uint32_t>(round);
    env.payload = marker.take();
    put_frame(w, kFrameMagic, env, 4);
    WireFrame bye;
    bye.kind = static_cast<uint16_t>(FrameKind::kShutdown);
    put_frame(w, kFrameMagic, bye, 0);

    TcpConn conn =
        TcpConn::connect("127.0.0.1", fabric.port_of(rng() % kNodes));
    try {
      conn.send_all(w.bytes().data(), w.size());
      conn.shutdown_write();
      // The receiver closes the connection when it is done with it, after
      // delivering whatever it accepted.
      char sink;
      while (conn.recv_all(&sink, 1)) {
      }
    } catch (const Error&) {
      // reset by a receiver that refused the stream: just as final
    }
    conn.close();

    const bool valid = magic == kFrameMagic &&
                       hello.kind == static_cast<uint16_t>(FrameKind::kHello) &&
                       hello.from < kNodes;
    std::vector<NodeMessage> round_got;
    {
      std::lock_guard<std::mutex> lock(mu);
      round_got.swap(got);
    }
    for (const NodeMessage& m : round_got) {
      EXPECT_TRUE(valid) << "a frame delivered for a refused hello";
      EXPECT_EQ(m.from, hello.from) << "delivered under another id";
      EXPECT_LT(m.from, kNodes);
    }
    if (valid && exact) {
      ++accepted_rounds;
      ASSERT_EQ(round_got.size(), 1u);
      EXPECT_EQ(round_got[0].kind, FrameKind::kEnvelope);
      Reader r(round_got[0].payload);
      EXPECT_EQ(r.get<uint32_t>(), round);
    } else if (!valid) {
      EXPECT_TRUE(round_got.empty());
    }
  }
  EXPECT_GT(accepted_rounds, 0) << "the sweep must accept some hellos";
  fabric.shutdown();
}

}  // namespace
}  // namespace dps
