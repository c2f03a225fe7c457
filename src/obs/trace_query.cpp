#include "obs/trace_query.hpp"

#include <algorithm>
#include <map>

namespace dps::obs {

TraceQuery::TraceQuery(std::vector<TaggedEvent> events)
    : events_(std::move(events)) {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const TaggedEvent& x, const TaggedEvent& y) {
                     return x.e.t_ns < y.e.t_ns;
                   });
}

std::vector<TaggedEvent> TraceQuery::of_kind(EventKind kind) const {
  std::vector<TaggedEvent> out;
  for (const TaggedEvent& ev : events_) {
    if (ev.e.kind == static_cast<uint16_t>(kind)) out.push_back(ev);
  }
  return out;
}

size_t TraceQuery::count(EventKind kind) const {
  size_t n = 0;
  for (const TaggedEvent& ev : events_) {
    if (ev.e.kind == static_cast<uint16_t>(kind)) ++n;
  }
  return n;
}

std::optional<TaggedEvent> TraceQuery::first(EventKind kind,
                                             const Pred& pred) const {
  for (const TaggedEvent& ev : events_) {
    if (ev.e.kind != static_cast<uint16_t>(kind)) continue;
    if (!pred || pred(ev)) return ev;
  }
  return std::nullopt;
}

std::optional<TaggedEvent> TraceQuery::last(EventKind kind,
                                            const Pred& pred) const {
  for (auto it = events_.rbegin(); it != events_.rend(); ++it) {
    if (it->e.kind != static_cast<uint16_t>(kind)) continue;
    if (!pred || pred(*it)) return *it;
  }
  return std::nullopt;
}

bool TraceQuery::exists_ordered(EventKind k1, const Pred& p1, EventKind k2,
                                const Pred& p2) const {
  const auto x = first(k1, p1);
  const auto y = last(k2, p2);
  return x && y && happens_before(*x, *y);
}

bool TraceQuery::all_ordered(EventKind k1, const Pred& p1, EventKind k2,
                             const Pred& p2) const {
  const auto x = last(k1, p1);
  const auto y = first(k2, p2);
  return x && y && happens_before(*x, *y);
}

std::vector<TraceQuery::Interval> TraceQuery::intervals(
    uint64_t vertex) const {
  // Executions nest on one thread (re-entrant dispatch while a merge
  // collects), so open starts form a per-thread stack keyed by identity.
  struct Key {
    uint32_t thread;
    uint64_t vertex, ctx, seq;
    bool operator<(const Key& o) const {
      if (thread != o.thread) return thread < o.thread;
      if (vertex != o.vertex) return vertex < o.vertex;
      if (ctx != o.ctx) return ctx < o.ctx;
      return seq < o.seq;
    }
  };
  std::map<Key, std::vector<TaggedEvent>> open;
  std::vector<Interval> out;
  for (const TaggedEvent& ev : events_) {
    const auto kind = static_cast<EventKind>(ev.e.kind);
    if (kind != EventKind::kOpStart && kind != EventKind::kOpEnd) continue;
    if (vertex != UINT64_MAX && ev.e.a != vertex) continue;
    const Key key{ev.thread, ev.e.a, ev.e.c, ev.e.d};
    if (kind == EventKind::kOpStart) {
      open[key].push_back(ev);
      continue;
    }
    auto it = open.find(key);
    if (it == open.end() || it->second.empty()) continue;  // lost start
    const TaggedEvent& start = it->second.back();
    Interval iv;
    iv.begin_ns = start.e.t_ns;
    iv.end_ns = ev.e.t_ns;
    iv.vertex = ev.e.a;
    iv.opkind = ev.e.b;
    iv.context = ev.e.c;
    iv.seq = ev.e.d;
    iv.node = ev.e.node;
    iv.thread = ev.thread;
    iv.thread_name = ev.thread_name;
    out.push_back(std::move(iv));
    it->second.pop_back();
  }
  std::sort(out.begin(), out.end(), [](const Interval& x, const Interval& y) {
    return x.begin_ns < y.begin_ns;
  });
  return out;
}

std::vector<TraceQuery::Interval> TraceQuery::paired_intervals(
    EventKind start, EventKind end, uint32_t node) const {
  std::map<uint32_t, TaggedEvent> open;  // per recording thread
  std::vector<Interval> out;
  for (const TaggedEvent& ev : events_) {
    const auto kind = static_cast<EventKind>(ev.e.kind);
    if (kind != start && kind != end) continue;
    if (node != UINT32_MAX && ev.e.node != node) continue;
    if (kind == start) {
      open.insert_or_assign(ev.thread, ev);  // lost end: keep the newest
      continue;
    }
    auto it = open.find(ev.thread);
    if (it == open.end()) continue;  // lost start (ring overwrote it)
    const TaggedEvent& s = it->second;
    Interval iv;
    iv.begin_ns = s.e.t_ns;
    iv.end_ns = ev.e.t_ns;
    iv.vertex = s.e.a;
    iv.opkind = s.e.b;
    iv.context = s.e.c;
    iv.seq = s.e.d;
    iv.node = s.e.node;
    iv.thread = s.thread;
    iv.thread_name = s.thread_name;
    out.push_back(std::move(iv));
    open.erase(it);
  }
  std::sort(out.begin(), out.end(), [](const Interval& x, const Interval& y) {
    return x.begin_ns < y.begin_ns;
  });
  return out;
}

uint64_t TraceQuery::overlap_ns(const std::vector<Interval>& xs,
                                const std::vector<Interval>& ys) {
  // Sweep the union coverage of each set, then intersect: +1/-1 deltas per
  // boundary, time counted where both sets are active.
  struct Edge {
    uint64_t t;
    int which;  // 0 = xs, 1 = ys
    int delta;
  };
  std::vector<Edge> edges;
  edges.reserve(2 * (xs.size() + ys.size()));
  for (const Interval& iv : xs) {
    edges.push_back({iv.begin_ns, 0, +1});
    edges.push_back({iv.end_ns, 0, -1});
  }
  for (const Interval& iv : ys) {
    edges.push_back({iv.begin_ns, 1, +1});
    edges.push_back({iv.end_ns, 1, -1});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.delta < b.delta;  // close before open at equal stamps
  });
  int active[2] = {0, 0};
  uint64_t last = 0, total = 0;
  for (const Edge& e : edges) {
    if (active[0] > 0 && active[1] > 0) total += e.t - last;
    active[e.which] += e.delta;
    last = e.t;
  }
  return total;
}

}  // namespace dps::obs
