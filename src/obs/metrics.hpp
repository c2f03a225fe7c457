// Metrics registry: named counters, gauges, and histograms with cheap
// lock-free updates and a consistent point-in-time snapshot.
//
// Companion of the flight recorder (obs/trace.hpp): the trace answers
// "what happened, in what order", the metrics answer "how much, how often".
// Engine instrumentation sites update their series while the recorder is
// enabled (obs::tracing_active()), except dps.svc.* and dps.leaf.cells,
// which are always updated; tests and tools may define their own series.
//
// Instruments registered once never move: `counter("x")` returns a stable
// reference that call sites may cache in a function-local static. reset()
// zeroes values but never invalidates references.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dps::obs {

class Counter {
 public:
  void inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

class Gauge {
 public:
  void set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void sub(int64_t n) { v_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() {
    v_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

  /// Highest value ever set through update_max (retransmit bursts, queue
  /// high-water marks).
  void update_max(int64_t v) {
    int64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t max_value() const { return max_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
  std::atomic<int64_t> max_{0};
};

/// Power-of-two histogram: observation v lands in bucket floor(log2(v))+1
/// (bucket 0 holds v == 0). Covers the full u64 range in 65 buckets —
/// coarse, allocation-free, and mergeable.
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  void observe(uint64_t v) {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  static int bucket_of(uint64_t v) {
    if (v == 0) return 0;
    return 64 - __builtin_clzll(v) ;
  }
  /// Inclusive upper bound of a bucket (UINT64_MAX for the last).
  static uint64_t bucket_bound(int bucket);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  double mean() const {
    const uint64_t c = count();
    return c == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(c);
  }
  /// Upper bound of the bucket containing the q-quantile (q in [0,1]).
  uint64_t quantile_bound(double q) const;

  void reset();

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// One registry entry in a snapshot.
struct MetricValue {
  enum class Type { kCounter, kGauge, kHistogram } type = Type::kCounter;
  uint64_t counter = 0;
  int64_t gauge = 0;
  int64_t gauge_max = 0;
  uint64_t hist_count = 0;
  uint64_t hist_sum = 0;
  std::vector<uint64_t> hist_buckets;  ///< non-empty only for histograms
};

struct MetricsSnapshot {
  uint64_t t_ns = 0;  ///< monotonic capture time
  std::map<std::string, MetricValue> values;

  uint64_t counter(const std::string& name) const;
  int64_t gauge(const std::string& name) const;
  bool has(const std::string& name) const {
    return values.count(name) != 0;
  }
};

class Metrics {
 public:
  static Metrics& instance();

  /// Find-or-create; the returned reference is valid forever. Requesting an
  /// existing name with a different instrument type throws Error(kState).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  MetricsSnapshot snapshot() const;

  /// Zeroes every instrument (references stay valid). Test isolation.
  void reset();

 private:
  Metrics() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace dps::obs
