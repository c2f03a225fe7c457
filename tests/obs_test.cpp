// Flight-recorder unit tests: ring-buffer wraparound and concurrent drains
// (the TSan target), Chrome-JSON and binary round-trips, metrics, and the
// TraceQuery assertions (happens-before, per-link order, overlap windows)
// on hand-built event streams, plus the engine's runtime switch: a cluster
// records nothing while the recorder is off. Tests that assert on the
// events a schedule emits live in core_engine_test / chaos_test.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "core/cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_format.hpp"
#include "obs/trace_query.hpp"
#include "serial/wire.hpp"
#include "tests/toupper_app.hpp"
#include "util/error.hpp"

namespace dps::obs {
namespace {

TraceEvent make_event(uint64_t t_ns, EventKind kind, uint32_t node = 0,
                      uint64_t a = 0, uint64_t b = 0, uint64_t c = 0,
                      uint64_t d = 0) {
  TraceEvent e;
  e.t_ns = t_ns;
  e.kind = static_cast<uint16_t>(kind);
  e.node = node;
  e.a = a;
  e.b = b;
  e.c = c;
  e.d = d;
  return e;
}

TaggedEvent tagged(uint64_t t_ns, EventKind kind, uint32_t thread = 0,
                   uint32_t node = 0, uint64_t a = 0, uint64_t b = 0,
                   uint64_t c = 0, uint64_t d = 0) {
  TaggedEvent ev;
  ev.e = make_event(t_ns, kind, node, a, b, c, d);
  ev.thread = thread;
  ev.thread_name = "t" + std::to_string(thread);
  return ev;
}

// --- TraceBuffer -----------------------------------------------------------

TEST(Obs, RingKeepsEverythingBelowCapacity) {
  TraceBuffer ring(16);
  for (uint64_t i = 0; i < 10; ++i) {
    ring.record(make_event(i + 1, EventKind::kEnqueue, 0, i));
  }
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ(events[i].a, i);
  EXPECT_EQ(ring.recorded(), 10u);
}

TEST(Obs, RingWraparoundKeepsNewestEvents) {
  TraceBuffer ring(8);
  ASSERT_EQ(ring.capacity(), 8u);
  for (uint64_t i = 0; i < 100; ++i) {
    ring.record(make_event(i + 1, EventKind::kEnqueue, 0, i));
  }
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest first, and exactly the last `capacity` records survive.
  for (uint64_t i = 0; i < 8; ++i) EXPECT_EQ(events[i].a, 92 + i);
  EXPECT_EQ(ring.recorded(), 100u);
}

TEST(Obs, RingCapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceBuffer(0).capacity(), 8u);
  EXPECT_EQ(TraceBuffer(9).capacity(), 16u);
  EXPECT_EQ(TraceBuffer(4096).capacity(), 4096u);
}

TEST(Obs, RingClearEmptiesAndRestarts) {
  TraceBuffer ring(8);
  ring.record(make_event(1, EventKind::kEnqueue));
  ring.clear();
  EXPECT_TRUE(ring.snapshot().empty());
  ring.record(make_event(2, EventKind::kDequeue, 0, 7));
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].a, 7u);
}

// The TSan target: one writer hammering the ring while a drainer snapshots
// concurrently. The seqlock must make torn slots detectable (skipped), so
// every event a drain returns is internally consistent. A full-speed writer
// can lap the reader so thoroughly that mid-run drains discard everything,
// which is correct behavior — so the count assertions run on a final,
// quiescent drain after the writer joins.
TEST(Obs, ConcurrentWriterAndDrainersSeeOnlyConsistentEvents) {
  constexpr uint64_t kWrites = 200000;
  TraceBuffer ring(64);
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (uint64_t i = 1; i <= kWrites; ++i) {
      // All payload words carry the same value: any mix is a torn read.
      ring.record(make_event(i, EventKind::kOpStart, 0, i, i, i, i));
    }
    done.store(true, std::memory_order_release);
  });
  auto check = [](const TraceEvent& e) {
    EXPECT_EQ(e.kind, static_cast<uint16_t>(EventKind::kOpStart));
    EXPECT_EQ(e.a, e.t_ns);
    EXPECT_EQ(e.b, e.t_ns);
    EXPECT_EQ(e.c, e.t_ns);
    EXPECT_EQ(e.d, e.t_ns);
  };
  while (!done.load(std::memory_order_acquire)) {
    for (const TraceEvent& e : ring.snapshot()) check(e);
  }
  writer.join();
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 64u);
  for (const TraceEvent& e : events) {
    check(e);
    EXPECT_GT(e.t_ns, kWrites - 64);
    EXPECT_LE(e.t_ns, kWrites);
  }
  EXPECT_EQ(ring.recorded(), kWrites);
}

// --- Trace registry --------------------------------------------------------

TEST(Obs, RecorderDisabledByDefaultAndTogglable) {
  Trace& trace = Trace::instance();
  trace.reset();
  trace.set_enabled(false);
  trace.record(EventKind::kEnqueue, 0, 1);
  EXPECT_TRUE(trace.collect().empty());

  trace.configure({/*enabled=*/true, /*sample_every=*/1,
                   /*buffer_capacity=*/256});
  trace.set_thread_name("obs-test");
  trace.record(EventKind::kEnqueue, 3, 1, 2, 3, 4);
  trace.record(EventKind::kDequeue, 3, 1, 2, 3, 4);
  const auto events = trace.collect();
  trace.set_enabled(false);
  trace.reset();
  ASSERT_GE(events.size(), 2u);
  bool found = false;
  for (const TaggedEvent& ev : events) {
    if (ev.e.kind == static_cast<uint16_t>(EventKind::kEnqueue) &&
        ev.e.node == 3) {
      found = true;
      EXPECT_EQ(ev.thread_name, "obs-test");
    }
  }
  EXPECT_TRUE(found);
}

/// One toupper call on a two-node in-process cluster, so tokens cross the
/// fabric as well as local mailboxes.
void run_toupper_call() {
  Cluster cluster(ClusterConfig::inproc(2));
  Application app(cluster, "toupper");
  auto graph = dps_tutorial::build_toupper_graph(app, 4);
  ActorScope scope(cluster.domain(), "main");
  auto result = token_cast<dps_tutorial::StringToken>(
      graph->call(new dps_tutorial::StringToken("recorder switch")));
  ASSERT_TRUE(result);
  EXPECT_EQ(std::string(result->str, static_cast<size_t>(result->len)),
            "RECORDER SWITCH");
}

// The engine's instrumentation is in every build; the runtime switch alone
// decides whether it records.
TEST(Obs, EngineRecordsOnlyWhileEnabled) {
  Trace& trace = Trace::instance();
  trace.configure({/*enabled=*/false, /*sample_every=*/1,
                   /*buffer_capacity=*/4096});
  trace.reset();
  run_toupper_call();
  EXPECT_EQ(trace.events_recorded(), 0u);

  trace.set_enabled(true);
  run_toupper_call();
  TraceQuery q(trace.collect());
  trace.set_enabled(false);
  trace.reset();
  for (EventKind kind : {EventKind::kOpStart, EventKind::kOpEnd,
                         EventKind::kEnqueue, EventKind::kFabricSend}) {
    EXPECT_GT(q.count(kind), 0u) << to_string(kind);
  }
}

TEST(Obs, SamplingRecordsOneInN) {
  Trace& trace = Trace::instance();
  trace.reset();
  trace.configure({/*enabled=*/true, /*sample_every=*/10,
                   /*buffer_capacity=*/4096});
  for (int i = 0; i < 1000; ++i) trace.record(EventKind::kEnqueue, 9, 1);
  uint64_t mine = 0;
  for (const TaggedEvent& ev : trace.collect()) {
    if (ev.e.node == 9) ++mine;
  }
  trace.set_enabled(false);
  trace.reset();
  EXPECT_EQ(mine, 100u);
}

TEST(Obs, CollectMergesThreadsInTimeOrder) {
  Trace& trace = Trace::instance();
  trace.reset();
  trace.configure({/*enabled=*/true, /*sample_every=*/1,
                   /*buffer_capacity=*/256});
  std::thread a([&] {
    trace.set_thread_name("worker-a");
    trace.record(EventKind::kOpStart, 1, 11);
  });
  a.join();
  std::thread b([&] {
    trace.set_thread_name("worker-b");
    trace.record(EventKind::kOpStart, 1, 22);
  });
  b.join();
  const auto events = trace.collect(/*clear=*/true);
  trace.set_enabled(false);
  std::vector<std::string> names;
  uint64_t last_t = 0;
  for (const TaggedEvent& ev : events) {
    EXPECT_GE(ev.e.t_ns, last_t) << "collect must sort by timestamp";
    last_t = ev.e.t_ns;
    if (ev.e.node == 1) names.push_back(ev.thread_name);
  }
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "worker-a");
  EXPECT_EQ(names[1], "worker-b");
}

// --- Metrics ---------------------------------------------------------------

TEST(Metrics, CounterGaugeHistogramRoundTrip) {
  Metrics& m = Metrics::instance();
  m.reset();
  m.counter("t.count").inc();
  m.counter("t.count").inc(4);
  m.gauge("t.depth").set(3);
  m.gauge("t.depth").update_max(3);
  m.gauge("t.depth").update_max(9);
  m.gauge("t.depth").update_max(5);
  m.histogram("t.lat").observe(0);
  m.histogram("t.lat").observe(1);
  m.histogram("t.lat").observe(1000);

  const MetricsSnapshot snap = m.snapshot();
  EXPECT_EQ(snap.counter("t.count"), 5u);
  EXPECT_EQ(snap.gauge("t.depth"), 3);
  EXPECT_EQ(snap.values.at("t.depth").gauge_max, 9);
  const MetricValue& h = snap.values.at("t.lat");
  EXPECT_EQ(h.hist_count, 3u);
  EXPECT_EQ(h.hist_sum, 1001u);
  EXPECT_TRUE(snap.has("t.lat"));
  EXPECT_FALSE(snap.has("t.nope"));
  EXPECT_GT(snap.t_ns, 0u);
}

TEST(Metrics, ReferencesStayValidAcrossReset) {
  Metrics& m = Metrics::instance();
  Counter& c = m.counter("t.stable");
  c.inc(7);
  m.reset();
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  EXPECT_EQ(m.counter("t.stable").value(), 1u);
  EXPECT_EQ(&m.counter("t.stable"), &c);
}

TEST(Metrics, TypeClashIsAnError) {
  Metrics& m = Metrics::instance();
  m.counter("t.clash");
  EXPECT_THROW(m.gauge("t.clash"), Error);
  EXPECT_THROW(m.histogram("t.clash"), Error);
}

TEST(Metrics, HistogramBucketsArePowersOfTwo) {
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(1024), 11);
  EXPECT_EQ(Histogram::bucket_of(UINT64_MAX), 64);
  Histogram h;
  for (uint64_t v = 1; v <= 1024; ++v) h.observe(v);
  EXPECT_EQ(h.count(), 1024u);
  EXPECT_DOUBLE_EQ(h.mean(), 512.5);
  EXPECT_GE(h.quantile_bound(0.5), 512u);
}

// --- Chrome trace JSON -----------------------------------------------------

TEST(Obs, ChromeTraceRoundTripsRawFields) {
  std::vector<TaggedEvent> in;
  in.push_back(tagged(1000, EventKind::kOpStart, 1, 2, 30, 1, 40, 50));
  in.push_back(tagged(2000, EventKind::kFabricSend, 1, 2, 3, 6, 7, 64));
  in.push_back(tagged(3000, EventKind::kOpEnd, 1, 2, 30, 1, 40, 50));
  in[0].thread_name = in[1].thread_name = in[2].thread_name = "w\"1\"";

  const std::string json = chrome_trace_json(in);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);

  const auto out = parse_chrome_trace(json);
  ASSERT_EQ(out.size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].e.t_ns, in[i].e.t_ns);
    EXPECT_EQ(out[i].e.kind, in[i].e.kind);
    EXPECT_EQ(out[i].e.node, in[i].e.node);
    EXPECT_EQ(out[i].e.a, in[i].e.a);
    EXPECT_EQ(out[i].e.b, in[i].e.b);
    EXPECT_EQ(out[i].e.c, in[i].e.c);
    EXPECT_EQ(out[i].e.d, in[i].e.d);
    EXPECT_EQ(out[i].thread, in[i].thread);
    EXPECT_EQ(out[i].thread_name, in[i].thread_name);
  }
}

TEST(Obs, ChromeTraceParserRejectsForeignJson) {
  EXPECT_THROW((void)parse_chrome_trace("{\"hello\": 1}"), Error);
}

// --- Binary format ---------------------------------------------------------

TEST(Obs, BinaryTraceRoundTrips) {
  std::vector<TaggedEvent> in;
  for (uint64_t i = 0; i < 50; ++i) {
    in.push_back(tagged(i * 10 + 1, EventKind::kEnqueue,
                        static_cast<uint32_t>(i % 3), 0, i, i * 2, i * 3,
                        i * 4));
  }
  Writer w;
  encode_trace(w, in);
  Reader r(w.bytes());
  const auto out = decode_trace(r);
  ASSERT_EQ(out.size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].e.t_ns, in[i].e.t_ns);
    EXPECT_EQ(out[i].e.a, in[i].e.a);
    EXPECT_EQ(out[i].thread, in[i].thread);
    EXPECT_EQ(out[i].thread_name, in[i].thread_name);
  }
}

TEST(Obs, BinaryTraceRejectsBadMagicAndVersion) {
  Writer w;
  encode_trace(w, {tagged(1, EventKind::kEnqueue)});
  auto bytes = w.take();
  bytes[0] ^= std::byte{0xff};  // magic
  {
    Reader r(bytes.data(), bytes.size());
    EXPECT_THROW((void)decode_trace(r), Error);
  }
  bytes[0] ^= std::byte{0xff};
  bytes[4] ^= std::byte{0xff};  // version
  {
    Reader r(bytes.data(), bytes.size());
    EXPECT_THROW((void)decode_trace(r), Error);
  }
}

TEST(Obs, BinaryTraceRejectsTrailingBytes) {
  Writer w;
  encode_trace(w, {tagged(1, EventKind::kEnqueue)});
  w.put<uint8_t>(0);
  Reader r(w.bytes());
  EXPECT_THROW((void)decode_trace(r), Error);
}

// --- TraceQuery ------------------------------------------------------------

TEST(TraceQuery, KindFiltersAndOrdering) {
  TraceQuery q({
      tagged(30, EventKind::kOpEnd, 0, 0, 5),
      tagged(10, EventKind::kOpStart, 0, 0, 5),
      tagged(20, EventKind::kEnqueue, 1, 0, 9),
  });
  // Constructor sorts by time regardless of input order.
  EXPECT_EQ(q.events().front().e.t_ns, 10u);
  EXPECT_EQ(q.count(EventKind::kOpStart), 1u);
  EXPECT_EQ(q.of_kind(EventKind::kEnqueue).size(), 1u);
  EXPECT_FALSE(q.first(EventKind::kRetransmit).has_value());

  const auto start = q.first(EventKind::kOpStart);
  const auto end = q.last(EventKind::kOpEnd);
  ASSERT_TRUE(start && end);
  EXPECT_TRUE(TraceQuery::happens_before(*start, *end));
  EXPECT_FALSE(TraceQuery::happens_before(*end, *start));
}

TEST(TraceQuery, ExistsOrderedAndAllOrdered) {
  TraceQuery q({
      tagged(10, EventKind::kFabricSend, 0, 0, 1),
      tagged(20, EventKind::kFabricSend, 0, 0, 2),
      tagged(15, EventKind::kFabricRecv, 1, 1, 0),
      tagged(25, EventKind::kFabricRecv, 1, 1, 0),
  });
  const auto any = [](const TaggedEvent&) { return true; };
  EXPECT_TRUE(
      q.exists_ordered(EventKind::kFabricSend, any, EventKind::kFabricRecv, any));
  // Not ALL sends precede ALL receives: send@20 is after recv@15.
  EXPECT_FALSE(
      q.all_ordered(EventKind::kFabricSend, any, EventKind::kFabricRecv, any));
  // An empty side is a test bug, not a vacuous pass.
  EXPECT_FALSE(
      q.all_ordered(EventKind::kRetransmit, any, EventKind::kFabricRecv, any));
}

TEST(TraceQuery, IntervalsPairStartsWithEnds) {
  const uint64_t kLeaf = static_cast<uint64_t>(1);
  TraceQuery q({
      tagged(10, EventKind::kOpStart, 1, 0, /*vertex=*/7, kLeaf, 100, 0),
      tagged(40, EventKind::kOpEnd, 1, 0, 7, kLeaf, 100, 0),
      tagged(20, EventKind::kOpStart, 2, 0, 7, kLeaf, 100, 1),
      tagged(60, EventKind::kOpEnd, 2, 0, 7, kLeaf, 100, 1),
      tagged(30, EventKind::kOpStart, 1, 0, 8, kLeaf, 100, 0),  // no end
  });
  const auto all = q.intervals();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].begin_ns, 10u);
  EXPECT_EQ(all[0].end_ns, 40u);
  EXPECT_EQ(all[0].duration_ns(), 30u);
  EXPECT_EQ(all[1].seq, 1u);
  EXPECT_TRUE(all[0].overlaps(all[1]));

  const auto v7 = q.intervals(7);
  EXPECT_EQ(v7.size(), 2u);
  EXPECT_TRUE(q.intervals(99).empty());
}

TEST(TraceQuery, NestedIntervalsOnOneThread) {
  // Re-entrant dispatch: a merge suspends while a leaf with the same
  // identity fields would be ill-formed, but same-key nesting (stream
  // re-execution) must pair inner end with inner start.
  TraceQuery q({
      tagged(10, EventKind::kOpStart, 1, 0, 5, 2, 77, 0),
      tagged(20, EventKind::kOpStart, 1, 0, 5, 2, 77, 0),
      tagged(30, EventKind::kOpEnd, 1, 0, 5, 2, 77, 0),
      tagged(50, EventKind::kOpEnd, 1, 0, 5, 2, 77, 0),
  });
  const auto ivs = q.intervals(5);
  ASSERT_EQ(ivs.size(), 2u);
  EXPECT_EQ(ivs[0].begin_ns, 10u);
  EXPECT_EQ(ivs[0].end_ns, 50u);
  EXPECT_EQ(ivs[1].begin_ns, 20u);
  EXPECT_EQ(ivs[1].end_ns, 30u);
}

TEST(TraceQuery, OverlapWindowComputation) {
  using Interval = TraceQuery::Interval;
  auto iv = [](uint64_t b, uint64_t e) {
    Interval i;
    i.begin_ns = b;
    i.end_ns = e;
    return i;
  };
  // xs covers [0,100); ys covers [50,70) and [90,120): overlap 20 + 10.
  EXPECT_EQ(TraceQuery::overlap_ns({iv(0, 100)}, {iv(50, 70), iv(90, 120)}),
            30u);
  // Disjoint.
  EXPECT_EQ(TraceQuery::overlap_ns({iv(0, 10)}, {iv(10, 20)}), 0u);
  // Overlapping intervals within one set do not double-count.
  EXPECT_EQ(TraceQuery::overlap_ns({iv(0, 50), iv(10, 60)}, {iv(20, 30)}),
            10u);
  EXPECT_EQ(TraceQuery::overlap_ns({}, {iv(0, 10)}), 0u);
}

}  // namespace
}  // namespace dps::obs
