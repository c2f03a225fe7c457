// TraceQuery: turn a drained flight-recorder trace into test assertions.
//
// Scheduling properties the paper only states — implicit pipelining,
// compute/communication overlap (Table 1), per-link delivery order — become
// checkable predicates over the recorded event stream:
//
//   auto q = obs::TraceQuery(obs::Trace::instance().collect());
//   auto merges = q.intervals(merge_vertex);
//   auto leaves = q.intervals(leaf_vertex);
//   EXPECT_GT(obs::TraceQuery::overlap_ns(merges, leaves), 0u);
//
// All queries run over an immutable snapshot sorted by the shared monotonic
// clock, so "happens before" is well defined across threads and in-process
// nodes of one run.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace dps::obs {

class TraceQuery {
 public:
  using Pred = std::function<bool(const TaggedEvent&)>;

  /// One operation execution reconstructed from a kOpStart/kOpEnd pair.
  struct Interval {
    uint64_t begin_ns = 0;
    uint64_t end_ns = 0;
    uint64_t vertex = 0;   ///< event field a
    uint64_t opkind = 0;   ///< event field b (dps::OpKind)
    uint64_t context = 0;  ///< event field c
    uint64_t seq = 0;      ///< event field d (token index within the split)
    uint32_t node = 0;
    uint32_t thread = 0;
    std::string thread_name;

    uint64_t duration_ns() const { return end_ns - begin_ns; }
    bool overlaps(const Interval& o) const {
      return begin_ns < o.end_ns && o.begin_ns < end_ns;
    }
  };

  explicit TraceQuery(std::vector<TaggedEvent> events);

  const std::vector<TaggedEvent>& events() const { return events_; }
  size_t size() const { return events_.size(); }

  /// All events of one kind, in time order.
  std::vector<TaggedEvent> of_kind(EventKind kind) const;
  size_t count(EventKind kind) const;

  /// First / last event satisfying kind + predicate (time order).
  std::optional<TaggedEvent> first(EventKind kind, const Pred& pred = {}) const;
  std::optional<TaggedEvent> last(EventKind kind, const Pred& pred = {}) const;

  /// Strict happens-before on the shared clock. Events with equal stamps
  /// are not ordered (returns false both ways).
  static bool happens_before(const TaggedEvent& x, const TaggedEvent& y) {
    return x.e.t_ns < y.e.t_ns;
  }

  /// True when some event matching (k1, p1) precedes some event matching
  /// (k2, p2): first(k1) happens-before last(k2).
  bool exists_ordered(EventKind k1, const Pred& p1, EventKind k2,
                      const Pred& p2) const;

  /// True when EVERY (k1, p1) event precedes every (k2, p2) event — the
  /// strong form: last(k1) happens-before first(k2). Vacuously false when
  /// either set is empty (an assertion about nothing is a test bug).
  bool all_ordered(EventKind k1, const Pred& p1, EventKind k2,
                   const Pred& p2) const;

  /// Operation executions of `vertex` (kOpStart paired with the matching
  /// kOpEnd on the same thread / vertex / context / seq), time order.
  /// vertex == UINT64_MAX returns every execution.
  std::vector<Interval> intervals(uint64_t vertex = UINT64_MAX) const;

  /// Generic start/end pairing for non-operation interval events: each
  /// `start` event on a thread opens an interval closed by the next `end`
  /// event on the same thread (the async sender's kTxBatchStart/kTxBatchEnd
  /// are strictly sequential per sender thread). `node` filters to one
  /// node's events; UINT32_MAX keeps all. Interval a/b/c/d fields come from
  /// the start event (vertex=a, opkind=b, context=c, seq=d).
  std::vector<Interval> paired_intervals(EventKind start, EventKind end,
                                         uint32_t node = UINT32_MAX) const;

  /// Transmit batches recorded by TcpFabric's async senders: the windows
  /// during which `node`'s sender threads had a coalesced writev in flight.
  /// The compute/communication-overlap assertion intersects these with
  /// operation intervals on the same node.
  std::vector<Interval> transmit_intervals(uint32_t node = UINT32_MAX) const {
    return paired_intervals(EventKind::kTxBatchStart, EventKind::kTxBatchEnd,
                            node);
  }

  /// Total wall/virtual time during which at least one interval of `xs` and
  /// one of `ys` run concurrently — the overlap window the paper's Table 1
  /// credits DPS's implicit pipelining with.
  static uint64_t overlap_ns(const std::vector<Interval>& xs,
                             const std::vector<Interval>& ys);

 private:
  std::vector<TaggedEvent> events_;  // sorted by t_ns
};

}  // namespace dps::obs
