// Shared declarations of the wall-clock benchmark driver.
//
// The driver measures; run.py turns what it measured into metrics. Each
// runner returns raw samples (per-call durations, counter deltas) and the
// span recorder keeps per-layer timings in memory until the run ends, when
// driver.cpp writes both out. No statistics are computed here beyond sums.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Process user+system CPU seconds (getrusage).
double cpu_seconds();

/// Which transport a run uses. kInproc is the engine with no transport.
enum class Transport { kTcp, kShm, kInproc };

/// One workload of BENCHMARK.json.
struct Workload {
  std::string name;
  bool ring = true;           ///< ring transfer (else Table 2 service calls)
  Transport transport = Transport::kTcp;
  int block_bytes = 0;        ///< ring block size, or bytes of one subset
  int blocks_per_call = 0;    ///< ring only: nominal blocks per graph call
};

/// Looks a workload up by name; returns false for an unknown name.
bool find_workload(const std::string& name, Workload* out);

// --- spans -----------------------------------------------------------------

/// Layer boundaries the benchmark times. Names are what run.py reads.
enum class SpanName : uint32_t {
  kRingCall,      ///< Flowgraph::call of one ring transfer
  kSvcCall,       ///< one service call, from its due time to its result
  kSvcIssue,      ///< Application::call_service_async
  kSvcWait,       ///< CallHandle::wait
  kFabricSend,    ///< Fabric::send (sampled 1 in 16 per thread)
  kFabricBatch,   ///< one attach_batch delivery (value = frames)
  kFabricRound,   ///< one round of the bare-fabric ring (value = blocks)
  kFabricRtt,     ///< one bare-fabric ping-pong
  kSocketsRound,  ///< one round of the raw-socket ring (value = blocks)
  kEncode,        ///< serialize_token batch (value = tokens)
  kDecode,        ///< deserialize_token batch (value = tokens)
  kCount
};

struct Span {
  uint32_t name;
  uint32_t value;
  uint64_t id;
  uint64_t parent;
  int64_t start_ns;
  int64_t end_ns;
};

/// In-memory span store: a fixed array filled through an atomic cursor, so
/// recording from any thread is one fetch_add and one store. Spans past
/// the capacity are counted and dropped. Off until enable().
class Spans {
 public:
  static Spans& instance();
  /// Allocates the store and starts recording.
  void enable(size_t capacity);
  /// Pauses or resumes recording (phases whose spans would mix with
  /// another phase's).
  void set_on(bool on) { on_.store(on && spans_, std::memory_order_relaxed); }
  bool on() const { return on_.load(std::memory_order_relaxed); }
  uint64_t next_id() { return ids_.fetch_add(1, std::memory_order_relaxed); }
  void record(SpanName name, int64_t start_ns, int64_t end_ns,
              uint64_t id = 0, uint64_t parent = 0, uint32_t value = 0);
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  /// CSV: name,id,parent,start_ns,end_ns,value.
  void write_csv(std::ostream& out) const;

 private:
  std::atomic<bool> on_{false};
  size_t capacity_ = 0;
  std::unique_ptr<Span[]> spans_;
  std::atomic<size_t> cursor_{0};
  std::atomic<uint64_t> ids_{1};
  std::atomic<uint64_t> dropped_{0};
};

/// Records one span over its own lifetime when tracing is on.
class SpanScope {
 public:
  explicit SpanScope(SpanName name, uint32_t value = 0, uint64_t parent = 0)
      : name_(name), value_(value), parent_(parent),
        start_(Spans::instance().on() ? now_ns() : 0) {}
  ~SpanScope() {
    if (start_ != 0) {
      Spans::instance().record(name_, start_, now_ns(), 0, parent_, value_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanName name_;
  uint32_t value_;
  uint64_t parent_;
  int64_t start_;
};

// --- engine runs ------------------------------------------------------------

/// {seconds, host steal ticks, host total ticks}: a host CPU sample (time
/// from the start of the timed region, cumulative ticks) or one set-up
/// (its duration and the ticks that passed during it), from /proc/stat.
using HostSample = std::array<double, 3>;

/// Raw results of one timed engine run (ring calls or service calls).
struct RunStats {
  double wall_s = 0;          ///< timed region
  double cpu_s = 0;           ///< process CPU over the timed region
  uint64_t ops = 0;           ///< ring blocks or service calls attempted
  uint64_t failed_ops = 0;    ///< ops of failed or wrong calls
  std::vector<double> call_ms;    ///< per verified call: latency
  std::vector<double> call_bytes; ///< per verified call: payload bytes
  std::vector<double> call_end_s; ///< per verified call: completion time
  std::vector<double> late_ms;    ///< per call: issue time minus due time
  std::vector<HostSample> host;  ///< sampled every 100 ms
  // Counter deltas over the timed region.
  uint64_t frames = 0;        ///< Fabric::messages_sent()
  uint64_t wire_bytes = 0;    ///< Fabric::bytes_sent()
  uint64_t dispatched = 0;    ///< sum of Controller::dispatched()
  uint64_t pool_acquires = 0;
  uint64_t pool_reuses = 0;
  uint64_t encode_growths = 0;
  uint64_t leaked_flow_accounts = 0;  ///< after the run drained
  std::vector<std::string> errors;    ///< first few failure messages
};

/// Sets the workload up (appending the set-up to `setups` when set) and
/// runs its timed loop for `seconds`.
RunStats run_workload(const Workload& w, Transport transport, uint64_t seed,
                      double seconds, std::vector<HostSample>* setups);

/// Sets the workload up and tears it down `count` times, appending each
/// set-up to `setups`.
void time_setups(const Workload& w, Transport transport, uint64_t seed,
                 int count, std::vector<HostSample>* setups);

// --- ladder rungs (trace run only) ------------------------------------------

/// Raw-socket 4-hop ring: MB/s of each round of `blocks` blocks.
std::vector<double> sockets_ring(int block_bytes, int blocks, double seconds);

struct FabricRing {
  std::vector<double> mbps;  ///< per round
  uint64_t frames = 0;       ///< frames seen by attach_batch handlers
  uint64_t batches = 0;      ///< attach_batch deliveries
};
/// Bare-fabric 4-hop frame ring, no engine: frames are forwarded from
/// inside each node's attach_batch handler.
FabricRing fabric_ring(Transport t, int block_bytes, int blocks,
                       double seconds);

/// Bare-fabric ping-pong of one `frame_bytes` frame; microseconds each.
std::vector<double> fabric_rtt(Transport t, int frame_bytes, double seconds);

struct ShmPair {
  uint64_t frames = 0;
  uint64_t doorbell_wakes = 0;
  uint64_t space_parks = 0;
};
/// A standalone ShmInbox/ShmPeerTx pair streaming `frame_bytes` frames.
ShmPair shm_pair(int frame_bytes, double seconds);

/// Encodes and then decodes the workload's token for `seconds` in all,
/// timed by spans.
void serial_codec(const Workload& w, uint64_t seed, double seconds);

}  // namespace perfbench
