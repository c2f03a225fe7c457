// The four workloads, driven through the code the repo ships: the Fig. 6
// ring through apps::build_ring_graph and the Table 2 calls through
// apps::LifeApp's published "life/read" service.
#include <sys/resource.h>

#include <condition_variable>
#include <deque>
#include <fstream>
#include <mutex>
#include <optional>
#include <random>
#include <thread>

#include "apps/life.hpp"
#include "apps/ring.hpp"
#include "bench.hpp"
#include "serial/buffer_pool.hpp"

namespace perfbench {

using namespace dps;

namespace {

constexpr int kNodes = 4;
constexpr uint32_t kRingFlowWindow = 64;  // as in bench/fig6_throughput
constexpr int kWarmupBlocks = 8;  // one call through every lazy connection
// Untimed steady-state warm-up before every timed loop: the first second
// after set-up can run several times slower (socket buffers and pools
// still growing), which would otherwise land in the tail figures.
constexpr double kWarmSeconds = 1.0;

// Table 2 calls: a 1024^2 world, 40x40 blocks at seeded random positions,
// offered open-loop at a fixed rate by a client on the last node.
constexpr int kWorld = 1024;
constexpr int kCallBlock = 40;
constexpr int kCallRate = 10000;  // calls per second
constexpr NodeId kClientNode = kNodes - 1;
constexpr int kWarmupCalls = 16;
constexpr size_t kMaxErrors = 8;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

int64_t ns_of(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

ClusterConfig config_for(Transport t) {
  switch (t) {
    case Transport::kTcp:
      return ClusterConfig::tcp(kNodes);
    case Transport::kShm:
      return ClusterConfig::shm(kNodes);
    case Transport::kInproc:
      break;
  }
  return ClusterConfig::inproc(kNodes);
}

void note_error(RunStats& s, const std::string& what) {
  if (s.errors.size() < kMaxErrors) s.errors.push_back(what);
}

/// Counters read before and after the timed region.
struct Counters {
  uint64_t frames = 0, wire_bytes = 0, dispatched = 0;
  BufferPool::Stats pool;

  static Counters read(Cluster& c) {
    Counters k;
    k.frames = c.fabric().messages_sent();
    k.wire_bytes = c.fabric().bytes_sent();
    for (NodeId i = 0; i < c.node_count(); ++i) {
      k.dispatched += c.controller(i).dispatched();
    }
    k.pool = BufferPool::instance().stats();
    return k;
  }
};

void add_deltas(RunStats& s, const Counters& a, const Counters& b) {
  s.frames = b.frames - a.frames;
  s.wire_bytes = b.wire_bytes - a.wire_bytes;
  s.dispatched = b.dispatched - a.dispatched;
  s.pool_acquires = b.pool.acquires - a.pool.acquires;
  s.pool_reuses = b.pool.reuses - a.pool.reuses;
  s.encode_growths = b.pool.encode_growths - a.pool.encode_growths;
}

/// Flow accounts drain when the last credits come home, which may trail
/// the call's result by a few frames; wait for that before calling one a
/// leak.
uint64_t leaked_flow_accounts(Cluster& c) {
  const auto give_up = Clock::now() + std::chrono::seconds(2);
  for (;;) {
    uint64_t live = 0;
    for (NodeId i = 0; i < c.node_count(); ++i) {
      live += c.controller(i).flow_account_count();
    }
    if (live == 0 || Clock::now() > give_up) return live;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Cumulative {steal, total} ticks of the host's aggregate cpu line in
/// /proc/stat; zeros where it cannot be read.
std::array<double, 2> host_ticks() {
  std::ifstream f("/proc/stat");
  std::string label;
  f >> label;
  double total = 0, steal = 0, ticks = 0;
  for (int i = 0; i < 8 && f >> ticks; ++i) {
    total += ticks;
    if (i == 7) steal = ticks;
  }
  if (label != "cpu" || !f) return {0, 0};
  return {steal, total};
}

/// Samples host_ticks() every 100 ms while alive, so run.py can tell which
/// calls ran while other guests of the host held this machine's CPUs
/// (steal time).
class HostSampler {
 public:
  HostSampler(Clock::time_point t0, std::vector<HostSample>* out)
      : t0_(t0), out_(out), thread_([this] { loop(); }) {}
  ~HostSampler() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  HostSampler(const HostSampler&) = delete;
  HostSampler& operator=(const HostSampler&) = delete;

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    do {
      sample();
    } while (!cv_.wait_for(lock, std::chrono::milliseconds(100),
                           [this] { return stop_; }));
    sample();
  }
  void sample() {
    const auto [steal, total] = host_ticks();
    out_->push_back({seconds_between(t0_, Clock::now()), steal, total});
  }

  Clock::time_point t0_;
  std::vector<HostSample>* out_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

/// A warm-up run is part of set-up: its failures abort the benchmark.
void check_warmup(const RunStats& warm) {
  if (warm.failed_ops != 0) {
    raise(Errc::kState, "warm-up failed: " +
                            (warm.errors.empty() ? std::string("wrong output")
                                                 : warm.errors.front()));
  }
}

/// Builds one rig and appends its build time, with the host ticks that
/// passed meanwhile, to `out` (when set).
template <class Rig, class Make>
std::unique_ptr<Rig> timed_setup(std::vector<HostSample>* out, Make make) {
  const auto ticks0 = host_ticks();
  const auto t0 = Clock::now();
  std::unique_ptr<Rig> rig = make();
  const double secs = seconds_between(t0, Clock::now());
  const auto ticks1 = host_ticks();
  if (out != nullptr) {
    out->push_back({secs, ticks1[0] - ticks0[0], ticks1[1] - ticks0[1]});
  }
  return rig;
}

// --- ring -------------------------------------------------------------------

struct RingRig {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Application> app;
  std::shared_ptr<Flowgraph> graph;

  RingRig(Transport t, int block_bytes) {
    ClusterConfig cfg = config_for(t);
    cfg.flow_window = kRingFlowWindow;
    cluster = std::make_unique<Cluster>(cfg);
    app = std::make_unique<Application>(*cluster, "ring");
    graph = apps::build_ring_graph(*app, kNodes);
    // Opens the lazy connections and fills the buffer pool.
    auto done = token_cast<apps::RingDoneToken>(
        graph->call(new apps::RingStartToken(kWarmupBlocks, block_bytes)));
    DPS_CHECK(done && done->blocks == kWarmupBlocks, "ring warm-up failed");
  }
};

/// Back-to-back ring calls for `seconds`; the seed's generator draws each
/// call's block count within +-5% of the nominal.
RunStats ring_loop(RingRig& rig, const Workload& w, std::mt19937_64& rng,
                   double seconds) {
  RunStats s;
  const int n0 = w.blocks_per_call;
  std::uniform_int_distribution<int> count(n0 - n0 / 20, n0 + n0 / 20);
  const int64_t bytes = w.block_bytes;

  const Counters before = Counters::read(*rig.cluster);
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration<double>(seconds);
  auto prev_done = t0;
  std::optional<HostSampler> sampler(std::in_place, t0, &s.host);
  while (Clock::now() < end) {
    const int n = count(rng);
    const auto issue = Clock::now();
    s.ops += static_cast<uint64_t>(n);
    Ptr<apps::RingDoneToken> done;
    try {
      SpanScope span(SpanName::kRingCall, static_cast<uint32_t>(n));
      done = token_cast<apps::RingDoneToken>(
          rig.graph->call(new apps::RingStartToken(n, w.block_bytes)));
    } catch (const Error& e) {
      s.failed_ops += static_cast<uint64_t>(n);
      note_error(s, std::string("ring call failed: ") + e.what());
      break;  // the engine's state is unknown after a failed call
    }
    const auto finished = Clock::now();
    s.late_ms.push_back(ms_between(prev_done, issue));
    prev_done = finished;
    if (!done || done->blocks != n || done->payload_bytes != n * bytes) {
      s.failed_ops += static_cast<uint64_t>(n);
      note_error(s, "ring total mismatch: sent " + std::to_string(n) +
                        " blocks, merge counted " +
                        (done ? std::to_string(done->blocks) : "nothing"));
      continue;
    }
    s.call_ms.push_back(ms_between(issue, finished));
    s.call_bytes.push_back(static_cast<double>(n * bytes));
    s.call_end_s.push_back(seconds_between(t0, finished));
  }
  sampler.reset();
  s.wall_s = seconds_between(t0, Clock::now());
  s.cpu_s = cpu_seconds() - cpu0;
  add_deltas(s, before, Counters::read(*rig.cluster));
  return s;
}

RunStats run_ring(const Workload& w, Transport t, uint64_t seed,
                  double seconds, std::vector<HostSample>* setups) {
  auto rig = timed_setup<RingRig>(setups, [&] {
    return std::make_unique<RingRig>(t, w.block_bytes);
  });
  std::mt19937_64 rng(seed);
  check_warmup(ring_loop(*rig, w, rng, kWarmSeconds));
  RunStats s = ring_loop(*rig, w, rng, seconds);
  s.leaked_flow_accounts = leaked_flow_accounts(*rig->cluster);
  return s;
}

// --- service calls ----------------------------------------------------------

life::Band seeded_world(uint64_t seed) {
  life::Band world(kWorld, kWorld);
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  for (auto& cell : world.cells()) cell = (rng() % 3 == 0) ? 1 : 0;
  return world;
}

apps::LifeReadRequestToken* read_request(int x, int y, uint64_t world_id) {
  return new apps::LifeReadRequestToken(x, y, kCallBlock, kCallBlock, kWorld,
                                        kWorld, kNodes, world_id);
}

/// True when `subset` is exactly the 40x40 block of `world` at (x, y).
bool subset_matches(const apps::LifeSubsetToken* subset,
                    const life::Band& world, int x, int y) {
  if (subset == nullptr || subset->x.get() != x || subset->y.get() != y ||
      subset->w.get() != kCallBlock || subset->h.get() != kCallBlock ||
      subset->cells.size() != static_cast<size_t>(kCallBlock) * kCallBlock) {
    return false;
  }
  for (int r = 0; r < kCallBlock; ++r) {
    for (int c = 0; c < kCallBlock; ++c) {
      if (subset->cells[static_cast<size_t>(r) * kCallBlock + c] !=
          world.at(y + r, x + c)) {
        return false;
      }
    }
  }
  return true;
}

struct CallsRig {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<apps::LifeApp> life;
  std::unique_ptr<Application> client;

  CallsRig(Transport t, const life::Band& world) {
    cluster = std::make_unique<Cluster>(config_for(t));
    life = std::make_unique<apps::LifeApp>(*cluster, kNodes);
    life->scatter(world);
    life->publish_read_service("life/read");
    client = std::make_unique<Application>(*cluster, "viewer", kClientNode);
    for (int i = 0; i < kWarmupCalls; ++i) {
      const int x = (i * 97) % (kWorld - kCallBlock);
      const int y = (i * 389) % (kWorld - kCallBlock);
      auto subset = token_cast<apps::LifeSubsetToken>(
          client->call_service("life/read", read_request(x, y, life->world_id())));
      DPS_CHECK(subset_matches(subset.get(), world, x, y),
                "service warm-up read a wrong subset");
    }
  }
};

struct Pending {
  std::optional<CallHandle> handle;
  Clock::time_point due;
  int x = 0, y = 0;
  uint64_t span_id = 0;
};

/// Open-loop service calls for `seconds`; the seed's generator draws the
/// block positions.
RunStats calls_loop(CallsRig& rig, const life::Band& world,
                    std::mt19937_64& rng, double seconds) {
  Application& client = *rig.client;
  const uint64_t world_id = rig.life->world_id();
  RunStats s;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool sending_done = false;
  Clock::time_point last_done{};
  uint64_t wrong = 0;

  const Counters before = Counters::read(*rig.cluster);
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  std::optional<HostSampler> sampler(std::in_place, t0, &s.host);

  // Completion thread: waits on calls in issue order. Results nearly
  // always arrive in that order; one that overtakes an earlier call is
  // stamped when the earlier call's wait returns, which can only overstate
  // its latency.
  std::thread completer([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || sending_done; });
        if (queue.empty()) return;
        p = std::move(queue.front());
        queue.pop_front();
      }
      Ptr<apps::LifeSubsetToken> subset;
      try {
        SpanScope span(SpanName::kSvcWait, 0, p.span_id);
        subset = token_cast<apps::LifeSubsetToken>(p.handle->wait());
      } catch (const Error& e) {
        std::lock_guard<std::mutex> lock(mu);
        ++wrong;
        note_error(s, std::string("service call failed: ") + e.what());
        continue;
      }
      const auto finished = Clock::now();
      last_done = finished;
      if (p.span_id != 0) {
        Spans::instance().record(SpanName::kSvcCall, ns_of(p.due),
                                 ns_of(finished), p.span_id);
      }
      if (!subset_matches(subset.get(), world, p.x, p.y)) {
        std::lock_guard<std::mutex> lock(mu);
        ++wrong;
        note_error(s, "wrong subset at (" + std::to_string(p.x) + "," +
                          std::to_string(p.y) + ")");
        continue;
      }
      s.call_ms.push_back(ms_between(p.due, finished));
      s.call_bytes.push_back(kCallBlock * kCallBlock);
      s.call_end_s.push_back(seconds_between(t0, finished));
    }
  });

  // Sending thread (this one): calls are due on an absolute schedule, so
  // a late wake-up never shifts the calls after it.
  std::uniform_int_distribution<int> pos(0, kWorld - kCallBlock);
  const auto period = std::chrono::nanoseconds(1'000'000'000 / kCallRate);
  const auto first = t0 + std::chrono::milliseconds(1);
  const auto end = first + std::chrono::duration<double>(seconds);
  for (int64_t i = 0;; ++i) {
    Pending p;
    p.due = first + i * period;
    if (p.due >= end) break;
    p.x = pos(rng);
    p.y = pos(rng);
    std::this_thread::sleep_until(p.due);
    const auto issue = Clock::now();
    s.late_ms.push_back(ms_between(p.due, issue));
    ++s.ops;
    if (Spans::instance().on()) p.span_id = Spans::instance().next_id();
    try {
      SpanScope span(SpanName::kSvcIssue, 0, p.span_id);
      p.handle = client.call_service_async("life/read",
                                           read_request(p.x, p.y, world_id));
    } catch (const Error& e) {
      std::lock_guard<std::mutex> lock(mu);
      ++wrong;
      note_error(s, std::string("service call refused: ") + e.what());
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(std::move(p));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    sending_done = true;
  }
  cv.notify_one();
  completer.join();
  sampler.reset();

  s.failed_ops = wrong;
  s.wall_s = ms_between(first, std::max(last_done, first)) / 1e3;
  s.cpu_s = cpu_seconds() - cpu0;
  add_deltas(s, before, Counters::read(*rig.cluster));
  return s;
}

RunStats run_calls(Transport t, uint64_t seed, double seconds,
                   std::vector<HostSample>* setups) {
  const life::Band world = seeded_world(seed);
  auto rig = timed_setup<CallsRig>(setups, [&] {
    return std::make_unique<CallsRig>(t, world);
  });
  std::mt19937_64 rng(seed);
  check_warmup(calls_loop(*rig, world, rng, kWarmSeconds));
  RunStats s = calls_loop(*rig, world, rng, seconds);
  s.leaked_flow_accounts = leaked_flow_accounts(*rig->cluster);
  return s;
}

}  // namespace

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

RunStats run_workload(const Workload& w, Transport transport, uint64_t seed,
                      double seconds, std::vector<HostSample>* setups) {
  return w.ring ? run_ring(w, transport, seed, seconds, setups)
                : run_calls(transport, seed, seconds, setups);
}

void time_setups(const Workload& w, Transport transport, uint64_t seed,
                 int count, std::vector<HostSample>* setups) {
  const life::Band world = w.ring ? life::Band() : seeded_world(seed);
  for (int i = 0; i < count; ++i) {
    // Each rig is torn down at the end of its statement, untimed.
    if (w.ring) {
      timed_setup<RingRig>(setups, [&] {
        return std::make_unique<RingRig>(transport, w.block_bytes);
      });
    } else {
      timed_setup<CallsRig>(setups, [&] {
        return std::make_unique<CallsRig>(transport, world);
      });
    }
  }
}

}  // namespace perfbench
