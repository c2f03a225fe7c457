// Unit tests for the serialization substrate: wire reader/writer, simple
// tokens (memcpy family), complex tokens (field-wrapper family), nesting,
// inheritance, the registry, Ptr<> reference counting, the buffer pool, and
// Buffer<T> storage, including decodes that adopt the received frame.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/reliable_fabric.hpp"
#include "net/shm_fabric.hpp"
#include "net/tcp_transport.hpp"
#include "serial/buffer_pool.hpp"
#include "serial/registry.hpp"

namespace dps {
namespace {

// --- Wire primitives --------------------------------------------------------

TEST(Wire, ScalarRoundTrip) {
  Writer w;
  w.put<int32_t>(-7);
  w.put<uint64_t>(1ull << 40);
  w.put<double>(3.25);
  Reader r(w.bytes());
  EXPECT_EQ(r.get<int32_t>(), -7);
  EXPECT_EQ(r.get<uint64_t>(), 1ull << 40);
  EXPECT_EQ(r.get<double>(), 3.25);
  EXPECT_TRUE(r.at_end());
}

TEST(Wire, StringRoundTrip) {
  Writer w;
  w.put_string("hello");
  w.put_string("");
  w.put_string(std::string("a\0b", 3));
  Reader r(w.bytes());
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_string(), std::string("a\0b", 3));
}

TEST(Wire, OverrunThrowsProtocol) {
  Writer w;
  w.put<uint16_t>(42);
  Reader r(w.bytes());
  EXPECT_EQ(r.get<uint16_t>(), 42);
  try {
    (void)r.get<uint32_t>();
    FAIL() << "expected overrun";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kProtocol);
  }
}

TEST(Wire, TruncatedStringThrows) {
  Writer w;
  w.put<uint32_t>(100);  // claims 100 bytes, provides none
  Reader r(w.bytes());
  EXPECT_THROW((void)r.get_string(), Error);
}

// --- Tokens under test ------------------------------------------------------

// The paper's tutorial token, verbatim semantics.
class SCharToken : public SimpleToken {
 public:
  char chr = 0;
  int pos = 0;
  SCharToken(char c = 0, int p = 0) : chr(c), pos(p) {}
  DPS_IDENTIFY(SCharToken);
};

class SEmptyToken : public SimpleToken {
  DPS_IDENTIFY(SEmptyToken);
};

struct Inner : Serializable {
  CT<int> id;
  CT<std::string> label;
};

// Mirrors the paper's MyComplexToken.
class SComplexTok : public ComplexToken {
 public:
  CT<int> id;
  CT<std::string> name;
  Vector<Inner> children;
  Buffer<int> numbers;
  DPS_IDENTIFY(SComplexTok);
};

// Inheritance: derived complex tokens serialize base + derived fields.
class SDerivedTok : public SComplexTok {
 public:
  CT<double> extra;
  DPS_IDENTIFY(SDerivedTok);
};

// Direct nesting of a field-bearing struct as a plain member.
class SNestingTok : public ComplexToken {
 public:
  Inner direct;
  CT<Inner> wrapped;
  DPS_IDENTIFY(SNestingTok);
};

Ptr<Token> round_trip(const Token& t) {
  Writer w;
  serialize_token(t, w);
  Reader r(w.bytes());
  Ptr<Token> out = deserialize_token(r);
  EXPECT_TRUE(r.at_end());
  return out;
}

// --- Simple tokens ----------------------------------------------------------

TEST(SimpleTokens, RoundTrip) {
  SCharToken in('Q', 1234);
  auto out = token_cast<SCharToken>(round_trip(in));
  ASSERT_TRUE(out);
  EXPECT_EQ(out->chr, 'Q');
  EXPECT_EQ(out->pos, 1234);
}

TEST(SimpleTokens, EmptyPayload) {
  SEmptyToken in;
  auto out = token_cast<SEmptyToken>(round_trip(in));
  ASSERT_TRUE(out);
}

TEST(SimpleTokens, PayloadSizeIsDerivedRegion) {
  Writer w;
  serialize_token(SCharToken('x', 1), w);
  // u64 type id + (sizeof(SCharToken) - sizeof(SimpleToken)) payload bytes.
  EXPECT_EQ(w.size(), 8 + sizeof(SCharToken) - sizeof(SimpleToken));
}

// --- Complex tokens ---------------------------------------------------------

TEST(ComplexTokens, RoundTrip) {
  SComplexTok in;
  in.id = 42;
  in.name = std::string("widget");
  Inner a;
  a.id = 1;
  a.label = std::string("first");
  Inner b;
  b.id = 2;
  b.label = std::string("second");
  in.children.push_back(a);
  in.children.push_back(b);
  for (int i = 0; i < 100; ++i) in.numbers.push_back(i * i);

  auto out = token_cast<SComplexTok>(round_trip(in));
  ASSERT_TRUE(out);
  EXPECT_EQ(out->id.get(), 42);
  EXPECT_EQ(out->name.get(), "widget");
  ASSERT_EQ(out->children.size(), 2u);
  EXPECT_EQ(out->children[0].id.get(), 1);
  EXPECT_EQ(out->children[0].label.get(), "first");
  EXPECT_EQ(out->children[1].label.get(), "second");
  ASSERT_EQ(out->numbers.size(), 100u);
  EXPECT_EQ(out->numbers[99], 99 * 99);
}

TEST(ComplexTokens, EmptyContainers) {
  SComplexTok in;
  auto out = token_cast<SComplexTok>(round_trip(in));
  ASSERT_TRUE(out);
  EXPECT_EQ(out->children.size(), 0u);
  EXPECT_EQ(out->numbers.size(), 0u);
}

TEST(ComplexTokens, DerivedClassCarriesBaseAndOwnFields) {
  SDerivedTok in;
  in.id = 7;
  in.name = std::string("base-part");
  in.extra = 2.5;
  auto out = token_cast<SDerivedTok>(round_trip(in));
  ASSERT_TRUE(out);
  EXPECT_EQ(out->id.get(), 7);
  EXPECT_EQ(out->name.get(), "base-part");
  EXPECT_EQ(out->extra.get(), 2.5);
}

TEST(ComplexTokens, DirectAndWrappedNesting) {
  SNestingTok in;
  in.direct.id = 5;
  in.direct.label = std::string("direct");
  in.wrapped.get().id = 6;
  in.wrapped.get().label = std::string("wrapped");
  auto out = token_cast<SNestingTok>(round_trip(in));
  ASSERT_TRUE(out);
  EXPECT_EQ(out->direct.id.get(), 5);
  EXPECT_EQ(out->direct.label.get(), "direct");
  EXPECT_EQ(out->wrapped.get().id.get(), 6);
  EXPECT_EQ(out->wrapped.get().label.get(), "wrapped");
}

TEST(ComplexTokens, FieldTableCountsAllWrappers) {
  // SComplexTok: id, name, children, numbers -> 4 wrapper fields.
  EXPECT_EQ(FieldTable::of<SComplexTok>().field_count(), 4u);
  // SDerivedTok adds one.
  EXPECT_EQ(FieldTable::of<SDerivedTok>().field_count(), 5u);
  // SNestingTok: direct.{id,label} and wrapped's inner {id,label} register
  // individually (CT<field-bearing> delegates to the inner wrappers) -> 4.
  EXPECT_EQ(FieldTable::of<SNestingTok>().field_count(), 4u);
}

TEST(ComplexTokens, CopyingTokensOutsideCaptureIsInert) {
  SComplexTok a;
  a.id = 9;
  SComplexTok b(a);  // wrapper copy-ctors run; must not disturb the table
  EXPECT_EQ(b.id.get(), 9);
  EXPECT_EQ(FieldTable::of<SComplexTok>().field_count(), 4u);
}

// --- Registry ---------------------------------------------------------------

TEST(Registry, FindByIdAndName) {
  const TokenTypeInfo& info = SCharToken::staticTypeInfo();
  EXPECT_EQ(info.name, "SCharToken");
  EXPECT_EQ(&TokenRegistry::instance().find(info.id), &info);
  EXPECT_EQ(&TokenRegistry::instance().find_by_name("SCharToken"), &info);
  EXPECT_TRUE(TokenRegistry::instance().contains(info.id));
}

TEST(Registry, UnknownIdThrowsNotFound) {
  try {
    TokenRegistry::instance().find(0xdeadbeefdeadbeefull);
    FAIL() << "expected not_found";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kNotFound);
  }
}

TEST(Registry, CorruptTypeTagRejected) {
  Writer w;
  serialize_token(SCharToken('a', 1), w);
  auto bytes = w.take();
  bytes[0] = std::byte{0xFF};  // clobber the type id
  Reader r(bytes.data(), bytes.size());
  EXPECT_THROW((void)deserialize_token(r), Error);
}

TEST(Registry, CloneProducesIndependentObject) {
  SComplexTok in;
  in.id = 1;
  in.numbers.push_back(10);
  auto c = token_cast<SComplexTok>(clone_token(in));
  ASSERT_TRUE(c);
  c->numbers[0] = 99;
  EXPECT_EQ(in.numbers[0], 10);
}

// --- Ptr<> ------------------------------------------------------------------

struct SProbeToken : SimpleToken {
  static inline int live = 0;
  SProbeToken() { ++live; }
  SProbeToken(const SProbeToken&) = delete;
  ~SProbeToken() override { --live; }
  DPS_IDENTIFY(SProbeToken);
};

TEST(Ptr, DeletesAtZero) {
  {
    Ptr<SProbeToken> p(new SProbeToken);
    EXPECT_EQ(SProbeToken::live, 1);
    {
      Ptr<SProbeToken> q = p;
      EXPECT_EQ(p->token_refs(), 2u);
    }
    EXPECT_EQ(p->token_refs(), 1u);
  }
  EXPECT_EQ(SProbeToken::live, 0);
}

TEST(Ptr, MoveDoesNotChangeCount) {
  Ptr<SProbeToken> p(new SProbeToken);
  Ptr<SProbeToken> q(std::move(p));
  EXPECT_FALSE(p);
  EXPECT_EQ(q->token_refs(), 1u);
  q.reset();
  EXPECT_EQ(SProbeToken::live, 0);
}

TEST(Ptr, UpcastAndTokenCast) {
  Ptr<SCharToken> c(new SCharToken('z', 3));
  Ptr<Token> t = c;  // upcast
  EXPECT_EQ(t->token_refs(), 2u);
  auto back = token_cast<SCharToken>(t);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->chr, 'z');
  auto wrong = token_cast<SComplexTok>(t);
  EXPECT_FALSE(wrong);
}

TEST(Ptr, SharedIntrusiveCountFromRaw) {
  SProbeToken* raw = new SProbeToken;
  Ptr<SProbeToken> a(raw);
  Ptr<SProbeToken> b(raw);  // second wrap of the same raw pointer is safe
  EXPECT_EQ(raw->token_refs(), 2u);
  a.reset();
  EXPECT_EQ(SProbeToken::live, 1);
  b.reset();
  EXPECT_EQ(SProbeToken::live, 0);
}

// --- Hashing ----------------------------------------------------------------

TEST(Fnv, KnownVectorsAndDistinctness) {
  EXPECT_EQ(fnv1a(""), 14695981039346656037ull);
  EXPECT_NE(fnv1a("SCharToken"), fnv1a("charToken"));
  EXPECT_EQ(fnv1a("SCharToken"), SCharToken::staticTypeInfo().id);
}

// --- Arithmetic sizing + the encode buffer pool ----------------------------
//
// The transmit path sizes every encode up front (serialized_token_size) and
// draws an exact-size buffer from the pool, so a serialize must never grow
// the writer. These tests pin the size arithmetic to the actual bytes
// produced for every token family.

size_t actual_serialized_size(const Token& t) {
  Writer w;
  serialize_token(t, w);
  return w.size();
}

TEST(SizedEncode, SimpleTokenSizeMatchesBytes) {
  SCharToken t('x', 99);
  EXPECT_EQ(serialized_token_size(t), actual_serialized_size(t));
  SEmptyToken e;
  EXPECT_EQ(serialized_token_size(e), actual_serialized_size(e));
}

TEST(SizedEncode, ComplexTokenSizeMatchesBytes) {
  SComplexTok t;
  t.id = 7;
  t.name = std::string("a complex token with a heap string");
  t.children.resize(3);
  for (size_t i = 0; i < 3; ++i) {
    t.children[i].id = static_cast<int>(i);
    t.children[i].label = "child-" + std::to_string(i);
  }
  t.numbers.resize(17);
  EXPECT_EQ(serialized_token_size(t), actual_serialized_size(t));

  SDerivedTok d;
  d.id = 1;
  d.name = std::string("derived");
  d.extra = 2.5;
  EXPECT_EQ(serialized_token_size(d), actual_serialized_size(d));

  SNestingTok n;
  n.direct.label = std::string("direct");
  n.wrapped.get().label = std::string("wrapped");
  EXPECT_EQ(serialized_token_size(n), actual_serialized_size(n));
}

TEST(SizedEncode, ReservedWriterNeverGrows) {
  SComplexTok t;
  t.name = std::string(200, 'n');
  t.numbers.resize(64);
  const size_t need = serialized_token_size(t);
  Writer w;
  w.reserve(need);
  serialize_token(t, w);
  EXPECT_EQ(w.size(), need);
  EXPECT_EQ(w.growth_count(), 0u)
      << "an exact reserve must absorb the whole encode";

  Writer tight;  // no reserve: the growth counter must notice
  serialize_token(t, tight);
  EXPECT_GT(tight.growth_count(), 0u);
}

TEST(BufferPoolTest, RecyclesCapacityAndCountsStats) {
  BufferPool& pool = BufferPool::instance();
  pool.trim();
  pool.reset_stats();

  std::vector<std::byte> a = pool.acquire(2 * kPooledBlockBytes);
  EXPECT_GE(a.capacity(), 2 * kPooledBlockBytes);
  EXPECT_TRUE(a.empty());
  pool.release(std::move(a));

  // The freed capacity must satisfy the next fitting request without a
  // fresh allocation.
  std::vector<std::byte> b = pool.acquire(kPooledBlockBytes);
  EXPECT_GE(b.capacity(), kPooledBlockBytes);
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.acquires, 2u);
  EXPECT_EQ(s.releases, 1u);
  EXPECT_EQ(s.reuses, 1u);
  EXPECT_EQ(s.encode_growths, 0u);
  pool.release(std::move(b));
  pool.trim();
  pool.reset_stats();
}

TEST(BufferPoolTest, OversizedBuffersAreNotRetained) {
  BufferPool& pool = BufferPool::instance();
  pool.trim();
  pool.reset_stats();
  std::vector<std::byte> huge;
  huge.reserve((1 << 20) + 1);  // beyond the per-buffer retention cap
  pool.release(std::move(huge));
  EXPECT_EQ(pool.stats().dropped, 1u);
  pool.reset_stats();
}

TEST(BufferPoolTest, SizedAcquireReusesWithoutRefilling) {
  BufferPool& pool = BufferPool::instance();
  pool.trim();
  pool.reset_stats();
  constexpr size_t kK = kPooledBlockBytes;

  std::vector<std::byte> a = pool.acquire_sized(4 * kK);
  ASSERT_EQ(a.size(), 4 * kK);
  std::memset(a.data(), 0xab, a.size());
  const std::byte* storage = a.data();
  pool.release(std::move(a));

  // A smaller sized request shrinks the retained buffer: same storage, and
  // the old bytes are still there because nothing refilled them.
  std::vector<std::byte> b = pool.acquire_sized(2 * kK);
  EXPECT_EQ(b.size(), 2 * kK);
  EXPECT_EQ(b.data(), storage);
  EXPECT_EQ(b[0], std::byte{0xab});
  EXPECT_EQ(b[2 * kK - 1], std::byte{0xab});
  EXPECT_EQ(pool.stats().reuses, 1u);
  pool.release(std::move(b));

  // A retained buffer keeps its size, but acquire() still hands out an
  // empty vector.
  std::vector<std::byte> c = pool.acquire(kK);
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.data(), storage);
  EXPECT_EQ(pool.stats().reuses, 2u);
  c.assign(18, std::byte{0x11});  // a small header in the large buffer

  std::vector<std::byte> full = pool.acquire_sized(6 * kK);
  const std::byte* full_storage = full.data();
  std::memset(full.data(), 0xcd, full.size());
  pool.release(std::move(c));
  pool.release(std::move(full));

  // A sized request takes a buffer whose bytes already cover it, not the
  // smaller-capacity one that would need all but 18 bytes refilled.
  std::vector<std::byte> d = pool.acquire_sized(4 * kK);
  EXPECT_EQ(d.data(), full_storage);
  EXPECT_EQ(d[4 * kK - 1], std::byte{0xcd});

  // With none that covers it, a shorter buffer is topped up: the bytes
  // past its size are zero-filled, never stale.
  std::vector<std::byte> f = pool.acquire_sized(4 * kK);
  EXPECT_EQ(f.data(), storage);
  EXPECT_EQ(f[17], std::byte{0x11});
  EXPECT_EQ(f[18], std::byte{0});
  EXPECT_EQ(f[4 * kK - 1], std::byte{0});
  EXPECT_EQ(pool.stats().reuses, 4u);
  pool.release(std::move(d));
  pool.release(std::move(f));
  pool.trim();
  pool.reset_stats();
}

// A ~100-byte encode head must not take (and pin) a retained 100 kB block,
// and small buffers must not crowd the free list.
TEST(BufferPoolTest, SmallRequestsNeverTakeARetainedBlock) {
  BufferPool& pool = BufferPool::instance();
  pool.trim();
  pool.reset_stats();
  std::vector<std::byte> block = pool.acquire_sized(100 * 1000);
  const std::byte* storage = block.data();
  pool.release(std::move(block));

  std::vector<std::byte> small = pool.acquire(100);
  EXPECT_GE(small.capacity(), 100u);
  EXPECT_NE(small.data(), storage);
  std::vector<std::byte> small_sized = pool.acquire_sized(100);
  EXPECT_EQ(small_sized.size(), 100u);
  EXPECT_NE(small_sized.data(), storage);

  // The block still serves the next large request.
  std::vector<std::byte> large = pool.acquire_sized(60 * 1000);
  EXPECT_EQ(large.data(), storage);
  BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.acquires, 4u) << "small acquisitions are counted too";
  EXPECT_EQ(s.reuses, 1u);

  // Small releases free their buffers: counted as dropped, never retained.
  pool.release(std::move(small));
  pool.release(std::move(small_sized));
  s = pool.stats();
  EXPECT_EQ(s.releases, 1u);
  EXPECT_EQ(s.dropped, 2u);
  pool.release(std::move(large));
  pool.trim();
  pool.reset_stats();
}

// --- Buffer<T> storage ---------------------------------------------------------

class SBytesTok : public ComplexToken {
 public:
  Buffer<uint8_t> bytes;
  DPS_IDENTIFY(SBytesTok);
};

class SOddWordsTok : public ComplexToken {
 public:
  CT<uint8_t> pad;  // type id (8) + pad (1) + count (8): the run is at 17
  Buffer<uint32_t> words;
  DPS_IDENTIFY(SOddWordsTok);
};

class SOddDoublesTok : public ComplexToken {
 public:
  CT<uint8_t> pad;
  Buffer<double> values;
  DPS_IDENTIFY(SOddDoublesTok);
};

class SWordsTok : public ComplexToken {
 public:
  Buffer<uint32_t> words;  // type id (8) + count (8): the run is at 16
  DPS_IDENTIFY(SWordsTok);
};

/// A large Buffer that is not the token's tail.
class SNotTailTok : public ComplexToken {
 public:
  Buffer<uint8_t> bytes;
  CT<int32_t> after;
  DPS_IDENTIFY(SNotTailTok);
};

/// A large Buffer tail behind an even larger string.
class SMinorityTailTok : public ComplexToken {
 public:
  CT<std::string> head;
  Buffer<uint8_t> bytes;
  DPS_IDENTIFY(SMinorityTailTok);
};

constexpr size_t kBig = 3 * kPooledBlockBytes;

/// An exact-size frame, like the ones the receive paths hand out.
std::vector<std::byte> encode(const Token& t) {
  std::vector<std::byte> buf;
  buf.reserve(serialized_token_size(t));
  Writer w(std::move(buf));
  serialize_token(t, w);
  return w.take();
}

/// Decodes `frame` through an adoptable reader; *adopted reports whether
/// the token took the frame's storage.
template <class T>
Ptr<T> decode_adoptable(std::vector<std::byte> frame, bool* adopted) {
  Reader r = Reader::adoptable(frame);
  Ptr<T> out = token_cast<T>(deserialize_token(r));
  EXPECT_TRUE(r.at_end());
  *adopted = frame.empty();
  return out;
}

Ptr<SBytesTok> big_bytes_token(size_t n) {
  Ptr<SBytesTok> t(new SBytesTok());
  t->bytes.resize(n);
  for (size_t i = 0; i < n; ++i) t->bytes[i] = static_cast<uint8_t>(i * 7);
  return t;
}

TEST(BufferStorage, CopyOfAnAdoptedBufferIsDeep) {
  bool adopted = false;
  Ptr<SBytesTok> t =
      decode_adoptable<SBytesTok>(encode(*big_bytes_token(kBig)), &adopted);
  ASSERT_TRUE(adopted);
  SBytesTok copy(*t);
  Buffer<uint8_t> assigned;
  assigned = t->bytes;
  copy.bytes[0] = 0xee;
  assigned[1] = 0xdd;
  EXPECT_EQ(t->bytes[0], 0);
  EXPECT_EQ(t->bytes[1], 7);
  t->bytes[2] = 0xcc;
  EXPECT_EQ(copy.bytes[2], 14);
  EXPECT_EQ(assigned[2], 14);
  EXPECT_NE(copy.bytes.data(), t->bytes.data());
  for (size_t i = 3; i < kBig; ++i) {
    ASSERT_EQ(copy.bytes[i], static_cast<uint8_t>(i * 7)) << i;
  }
}

struct SDefaulted {
  int32_t x = 7;
  int32_t y = -3;
};

TEST(BufferStorage, ResizeValueInitializesOverRecycledBytes) {
  BufferPool& pool = BufferPool::instance();
  pool.trim();
  // Leave stale bytes in the pool for the resizes below to pick up.
  for (int i = 0; i < 2; ++i) {
    std::vector<std::byte> junk = pool.acquire_sized(16 * kPooledBlockBytes);
    std::memset(junk.data(), 0x5a, junk.size());
    pool.release(std::move(junk));
  }

  Buffer<SDefaulted> d;
  d.resize(3);
  d.resize(kPooledBlockBytes);  // a pooled block: stale bytes underneath
  for (const SDefaulted& e : d) {
    ASSERT_EQ(e.x, 7);
    ASSERT_EQ(e.y, -3);
  }
  Buffer<uint8_t> b(kPooledBlockBytes);
  for (uint8_t v : b) ASSERT_EQ(v, 0);
  pool.trim();
}

TEST(BufferStorage, PushBackGrowsAcrossThePoolThreshold) {
  BufferPool& pool = BufferPool::instance();
  pool.trim();
  pool.reset_stats();
  Buffer<uint32_t> b;
  const size_t n = kPooledBlockBytes;  // 4 * n bytes in the end
  for (size_t i = 0; i < n; ++i) {
    b.push_back(static_cast<uint32_t>(i * 3));
    if (i == 1000) {  // 1024 elements of capacity: 4 kB
      EXPECT_EQ(pool.stats().acquires, 0u) << "small blocks skip the pool";
    }
  }
  ASSERT_EQ(b.size(), n);
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(b[i], i * 3) << i;
  EXPECT_GT(pool.stats().acquires, 0u) << "large blocks come from the pool";
  b.push_back(b[0]);  // the argument lives in the block a regrow replaces
  EXPECT_EQ(b[n], 0u);
  pool.trim();
  pool.reset_stats();
}

TEST(BufferStorage, AssignAndClear) {
  const int src[] = {1, 2, 3, 4, 5};
  Buffer<int> b;
  b.assign(src, src + 5);
  ASSERT_EQ(b.size(), 5u);
  EXPECT_EQ(b[4], 5);
  b.assign(b.begin() + 1, b.end());  // overlapping, inside the block
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 2);
  EXPECT_EQ(b[3], 5);
  std::vector<int> big(kBig / sizeof(int));
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<int>(i);
  b.assign(big.data(), big.data() + big.size());
  ASSERT_EQ(b.size(), big.size());
  EXPECT_EQ(b[big.size() - 1], static_cast<int>(big.size() - 1));
  b.clear();
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.begin(), b.end());
  b.push_back(42);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0], 42);
  b.assign(src, src);
  EXPECT_TRUE(b.empty());
}

TEST(BufferStorage, MisalignedTailsAreCopiedNotAdopted) {
  bool adopted = true;
  SOddWordsTok w;
  w.words.resize(kBig / sizeof(uint32_t));
  for (size_t i = 0; i < w.words.size(); ++i) w.words[i] = 0x01020304u * i;
  Ptr<SOddWordsTok> wb = decode_adoptable<SOddWordsTok>(encode(w), &adopted);
  EXPECT_FALSE(adopted) << "a u32 run at an odd offset must be copied";
  ASSERT_EQ(wb->words.size(), w.words.size());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(wb->words.data()) % alignof(uint32_t),
            0u);
  for (size_t i = 0; i < w.words.size(); ++i) {
    ASSERT_EQ(wb->words[i], w.words[i]) << i;
  }

  SOddDoublesTok d;
  d.values.resize(kBig / sizeof(double));
  for (size_t i = 0; i < d.values.size(); ++i) d.values[i] = 0.5 * i;
  adopted = true;
  Ptr<SOddDoublesTok> db = decode_adoptable<SOddDoublesTok>(encode(d), &adopted);
  EXPECT_FALSE(adopted) << "a double run at an odd offset must be copied";
  for (size_t i = 0; i < d.values.size(); ++i) {
    ASSERT_EQ(db->values[i], d.values[i]) << i;
  }

  // The same run at an aligned offset is adopted.
  SWordsTok a;
  a.words.assign(w.words.begin(), w.words.end());
  Ptr<SWordsTok> ab = decode_adoptable<SWordsTok>(encode(a), &adopted);
  EXPECT_TRUE(adopted);
  for (size_t i = 0; i < a.words.size(); ++i) {
    ASSERT_EQ(ab->words[i], a.words[i]) << i;
  }
}

TEST(BufferStorage, OnlyALargeTailThatIsMostOfTheFrameIsAdopted) {
  bool adopted = true;
  (void)decode_adoptable<SBytesTok>(
      encode(*big_bytes_token(kPooledBlockBytes - 1)), &adopted);
  EXPECT_FALSE(adopted) << "below the threshold";

  SNotTailTok nt;
  nt.bytes.resize(kBig);
  nt.after = 5;
  Ptr<SNotTailTok> ntb = decode_adoptable<SNotTailTok>(encode(nt), &adopted);
  EXPECT_FALSE(adopted) << "not the frame's tail";
  EXPECT_EQ(ntb->after.get(), 5);

  SMinorityTailTok mt;
  mt.head = std::string(kBig + 64, 'h');
  mt.bytes.resize(kBig);
  (void)decode_adoptable<SMinorityTailTok>(encode(mt), &adopted);
  EXPECT_FALSE(adopted) << "less than half the frame";

  mt.head = std::string(kBig - 64, 'h');
  (void)decode_adoptable<SMinorityTailTok>(encode(mt), &adopted);
  EXPECT_TRUE(adopted) << "at least half the frame";

  // Half of the frame's allocation, not of its bytes: a run in a buffer
  // over twice its size would pin the spare capacity.
  std::vector<std::byte> roomy = encode(*big_bytes_token(kBig));
  roomy.reserve(3 * roomy.size());
  (void)decode_adoptable<SBytesTok>(std::move(roomy), &adopted);
  EXPECT_FALSE(adopted) << "less than half the frame's capacity";

  // A plain reader never adopts.
  const std::vector<std::byte> frame = encode(*big_bytes_token(kBig));
  Reader r(frame);
  Ptr<SBytesTok> t = token_cast<SBytesTok>(deserialize_token(r));
  const std::byte* first = frame.data();
  const auto* at = reinterpret_cast<const std::byte*>(t->bytes.data());
  EXPECT_TRUE(at < first || at >= first + frame.size());
}

TEST(BufferStorage, AdoptedFrameReturnsToThePoolWhenItsTokenDies) {
  std::vector<std::byte> frame = encode(*big_bytes_token(kBig));
  const std::byte* storage = frame.data();
  BufferPool& pool = BufferPool::instance();
  pool.trim();  // drops the source token's block
  pool.reset_stats();
  bool adopted = false;
  Ptr<SBytesTok> t = decode_adoptable<SBytesTok>(std::move(frame), &adopted);
  ASSERT_TRUE(adopted);
  EXPECT_EQ(pool.stats().releases, 0u);
  t.reset();
  EXPECT_EQ(pool.stats().releases, 1u);
  // The next large request gets the frame's storage back.
  std::vector<std::byte> again = pool.acquire_sized(kBig);
  EXPECT_EQ(again.data(), storage);
  pool.release(std::move(again));
  pool.trim();
  pool.reset_stats();
}

// --- Adopt on receive over the fabrics ----------------------------------------

/// Sends one large token from node 0 to node 1. Node 1 decodes it inside
/// its delivery handler through an adoptable reader, as the controller
/// does; the token must stay intact after the handler returned and the
/// fabric shut down, when its NodeMessage is long gone.
void expect_adopted_token_outlives_its_message(Fabric& fabric) {
  // A frame is adopted only from a buffer at most twice its size; start
  // from an empty pool so no larger leftover takes the frame.
  BufferPool::instance().trim();
  std::mutex mu;
  std::condition_variable cv;
  Ptr<SBytesTok> got;
  bool adopted = false;
  fabric.attach_batch(0, [](std::vector<NodeMessage>&&) {});
  fabric.attach_batch(1, [&](std::vector<NodeMessage>&& msgs) {
    for (NodeMessage& m : msgs) {
      if (m.kind != FrameKind::kEnvelope) continue;
      Reader r = Reader::adoptable(m.payload);
      Ptr<SBytesTok> t = token_cast<SBytesTok>(deserialize_token(r));
      std::lock_guard<std::mutex> lock(mu);
      adopted = m.payload.empty();
      got = std::move(t);
      cv.notify_all();
    }
  });
  fabric.send(0, 1, FrameKind::kEnvelope, encode(*big_bytes_token(kBig)));
  bool arrived = false;
  {
    std::unique_lock<std::mutex> lock(mu);
    arrived = cv.wait_for(lock, std::chrono::seconds(10),
                          [&] { return got.get() != nullptr; });
  }
  fabric.shutdown();
  ASSERT_TRUE(arrived);
  EXPECT_TRUE(adopted);
  ASSERT_EQ(got->bytes.size(), kBig);
  for (size_t i = 0; i < kBig; ++i) {
    ASSERT_EQ(got->bytes[i], static_cast<uint8_t>(i * 7)) << i;
  }
}

TEST(AdoptOnReceive, TokenOutlivesItsMessageOverTcp) {
  TcpFabric fabric(2);
  expect_adopted_token_outlives_its_message(fabric);
}

TEST(AdoptOnReceive, TokenOutlivesItsMessageOverShm) {
  if (!shm_available()) GTEST_SKIP() << "POSIX shared memory unavailable";
  ShmFabric fabric(2);
  expect_adopted_token_outlives_its_message(fabric);
}

TEST(AdoptOnReceive, TokenOutlivesItsMessageOverReliableFabric) {
  FaultToleranceConfig ft;
  ft.reliable = true;
  ReliableFabric fabric(std::make_shared<TcpFabric>(2), 2, ft);
  expect_adopted_token_outlives_its_message(fabric);
}

}  // namespace
}  // namespace dps
