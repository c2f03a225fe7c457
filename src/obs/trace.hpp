// Flight recorder: low-overhead per-thread trace rings (docs/OBSERVABILITY.md).
//
// The engine's pitch — implicit pipelining and compute/communication
// overlap — is invisible from results alone. The flight recorder captures
// per-token scheduling events (enqueue/dequeue, operation start/end, fabric
// send/recv/retransmit/ack, heartbeat and failure-detector verdicts) into
// per-thread lock-free ring buffers stamped with a monotonic clock, so
// tests can *assert* scheduling behavior and humans can view it in
// chrome://tracing (obs/trace_format.hpp).
//
// The instrumentation is always compiled in; Trace::configure/set_enabled
// is the only switch. Cost model:
//   * Recorder disabled (the default): one relaxed atomic load + branch
//     per site.
//   * Recording: a seqlock-protected write of 6 words into a thread-owned
//     ring; no locks, no allocation after the first event of a thread.
//
// Draining is safe at any time (per-slot seqlocks reject events caught
// mid-write) but is only *complete* at quiescence: a writer that laps the
// reader simply overwrites the oldest events — flight-recorder semantics.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dps::obs {

/// What happened. The meaning of the generic args a/b/c/d per kind is the
/// event schema table of docs/OBSERVABILITY.md — keep the two in sync.
enum class EventKind : uint16_t {
  kEnqueue = 1,       ///< envelope queued on a worker mailbox
  kDequeue = 2,       ///< envelope taken off a worker mailbox
  kOpStart = 3,       ///< operation execution begins
  kOpEnd = 4,         ///< operation execution ends
  kFabricSend = 5,    ///< frame handed to the fabric
  kFabricRecv = 6,    ///< frame delivered by the fabric
  kRetransmit = 7,    ///< reliable-delivery timer re-sent a frame
  kAckSend = 8,       ///< cumulative ack transmitted
  kAckRecv = 9,       ///< cumulative ack applied
  kDupSuppressed = 10,  ///< duplicate frame dropped by the receive filter
  kHeartbeat = 11,    ///< liveness beacon sent
  kNodeDown = 12,     ///< failure detector verdict: node declared dead
  kFlowAcquire = 13,  ///< split/stream took a flow-control window slot
  kFlowRelease = 14,  ///< flow-control credit returned
  kChaosDrop = 15,    ///< chaos fabric dropped a frame
  kChaosDup = 16,     ///< chaos fabric duplicated a frame
  kChaosDelay = 17,   ///< chaos fabric delayed a frame
  kSimAdvance = 18,   ///< virtual clock advanced
  kSimEvent = 19,     ///< simulation event fired
  kCollectionMap = 20,  ///< thread collection mapped onto nodes
  kTransportSend = 21,  ///< bytes written to a TCP connection
  kTransportRecv = 22,  ///< bytes read from a TCP connection
  kTxBatchStart = 23,   ///< async sender begins a coalesced writev batch
  kTxBatchEnd = 24,     ///< coalesced batch fully on the wire
  kRxBatchStart = 25,   ///< receiver begins delivering one decoded chunk
  kRxBatchEnd = 26,     ///< grouped delivery of the chunk handed off
  kSvcAdmit = 27,       ///< service call admitted (a=tenant, d=inflight)
  kSvcShed = 28,        ///< service call shed with kBackpressure (a=tenant)
  kSvcDeadline = 29,    ///< call retired by deadline expiry (a=tenant)

  // Multicast collectives (docs/PERFORMANCE.md).
  kMcastSend = 30,     ///< collective posted (a=target vertex, b=K,
                       ///< c=remote dests, d=encoded body bytes)
  // 31 was kMcastForward (tree/ring relay hops, removed); not reused.
  kMcastDeliver = 32,  ///< local deliveries of one frame (a=target vertex,
                       ///< b=delivered, c=header entries, d=body bytes)
  // 33 was kFlowWindow (adaptive flow window, removed); not reused.
  // 34 was kSteal (work stealing, removed); not reused.

  // Shared-memory fabric.
  kShmBatch = 35,  ///< shm inbox delivered one drained batch (a=frames,
                   ///< b=ring bytes)

  // Leaf-compute backend seam (compute/backend.hpp).
  kLeafStep = 36,  ///< one leaf kernel interval (a=kernel id, b=rows,
                   ///< c=cols, d=duration ns)
};

const char* to_string(EventKind kind) noexcept;

/// One recorded event. 48 trivially copyable bytes; a/b/c/d are
/// kind-specific (see docs/OBSERVABILITY.md).
struct TraceEvent {
  uint64_t t_ns = 0;   ///< monotonic nanoseconds (trace_clock_ns)
  uint16_t kind = 0;   ///< EventKind
  uint16_t pad = 0;
  uint32_t node = 0;   ///< NodeId the event belongs to (or 0)
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  uint64_t d = 0;
};
static_assert(sizeof(TraceEvent) == 48);
static_assert(std::is_trivially_copyable_v<TraceEvent>);

/// An event plus the identity of the thread that recorded it.
struct TaggedEvent {
  TraceEvent e;
  uint32_t thread = 0;       ///< recorder-assigned thread index
  std::string thread_name;   ///< label set via Trace::set_thread_name
};

/// Monotonic nanoseconds; the shared timestamp base of every ring.
inline uint64_t trace_clock_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace detail {
/// Recording flag, mirrored by Trace::set_enabled/configure. An inline
/// global (not a Trace member) so call sites inline the check without
/// paying the singleton's init guard.
inline std::atomic<bool> g_trace_on{false};
}  // namespace detail

/// True while the recorder is enabled — the one relaxed load + branch that
/// instrumentation sites pay when idle. Sites with side work beyond a
/// record() call (metrics updates, clock reads) must gate it on this.
inline bool tracing_active() noexcept {
  return detail::g_trace_on.load(std::memory_order_relaxed);
}

/// One thread's ring. Single writer (the owning thread); any thread may
/// snapshot concurrently — per-slot seqlocks make torn reads detectable
/// and skipped, never returned.
class TraceBuffer {
 public:
  /// Capacity is rounded up to a power of two; minimum 8 slots.
  explicit TraceBuffer(size_t capacity);

  void record(const TraceEvent& e) noexcept;

  /// Events currently readable, oldest first. Events overwritten or
  /// mid-write during the call are omitted.
  std::vector<TraceEvent> snapshot() const;

  /// Number of record() calls ever made (including overwritten events).
  uint64_t recorded() const { return head_.load(std::memory_order_acquire); }

  size_t capacity() const { return mask_ + 1; }

  void clear();

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

 private:
  struct Slot {
    std::atomic<uint64_t> seq{0};  ///< seqlock: odd while being written
    std::atomic<uint64_t> w[6];
  };

  size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> head_{0};  ///< next write position (monotonic)
  std::string name_;
};

/// Runtime knobs. `configure` applies to buffers created afterwards
/// (capacity) and to every subsequent record() (enabled, sample_every).
struct TraceConfig {
  bool enabled = false;
  uint32_t sample_every = 1;  ///< record one event in N per thread (>= 1)
  size_t buffer_capacity = 4096;  ///< slots per thread ring
};

/// Process-wide recorder: hands each recording thread its own ring and
/// aggregates them for draining. All methods are thread safe.
class Trace {
 public:
  static Trace& instance();

  void configure(const TraceConfig& config);
  void set_enabled(bool enabled) {
    detail::g_trace_on.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return tracing_active(); }

  /// Fast path of every instrumentation site. Inlines to one relaxed load +
  /// branch when disabled; otherwise applies sampling and appends to the
  /// caller's ring.
  void record(EventKind kind, uint32_t node, uint64_t a = 0, uint64_t b = 0,
              uint64_t c = 0, uint64_t d = 0) noexcept {
    if (!tracing_active()) return;
    record_impl(kind, node, a, b, c, d);
  }

  /// Names the calling thread's ring (worker labels in drained traces).
  void set_thread_name(const std::string& name);

  /// Drains every ring: all readable events of all threads, tagged and
  /// sorted by timestamp. With `clear`, rings are emptied and the rings of
  /// exited threads become reusable.
  std::vector<TaggedEvent> collect(bool clear = false);

  /// Empties all rings and re-arms reuse; recording state is unchanged.
  void reset();

  /// Total record() calls accepted since the last reset (post-sampling).
  uint64_t events_recorded() const;

 private:
  Trace() = default;
  struct Registry;
  Registry& registry();

  void record_impl(EventKind kind, uint32_t node, uint64_t a, uint64_t b,
                   uint64_t c, uint64_t d) noexcept;

  std::atomic<uint32_t> sample_every_{1};
  std::atomic<size_t> capacity_{4096};
};

}  // namespace dps::obs
