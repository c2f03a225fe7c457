#include "obs/trace.hpp"

#include <algorithm>
#include <cstring>

#include "util/thread_annotations.hpp"

namespace dps::obs {

const char* to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kEnqueue: return "enqueue";
    case EventKind::kDequeue: return "dequeue";
    case EventKind::kOpStart: return "op_start";
    case EventKind::kOpEnd: return "op_end";
    case EventKind::kFabricSend: return "fabric_send";
    case EventKind::kFabricRecv: return "fabric_recv";
    case EventKind::kRetransmit: return "retransmit";
    case EventKind::kAckSend: return "ack_send";
    case EventKind::kAckRecv: return "ack_recv";
    case EventKind::kDupSuppressed: return "dup_suppressed";
    case EventKind::kHeartbeat: return "heartbeat";
    case EventKind::kNodeDown: return "node_down";
    case EventKind::kFlowAcquire: return "flow_acquire";
    case EventKind::kFlowRelease: return "flow_release";
    case EventKind::kChaosDrop: return "chaos_drop";
    case EventKind::kChaosDup: return "chaos_dup";
    case EventKind::kChaosDelay: return "chaos_delay";
    case EventKind::kSimAdvance: return "sim_advance";
    case EventKind::kSimEvent: return "sim_event";
    case EventKind::kCollectionMap: return "collection_map";
    case EventKind::kTransportSend: return "transport_send";
    case EventKind::kTransportRecv: return "transport_recv";
    case EventKind::kTxBatchStart: return "tx_batch_start";
    case EventKind::kTxBatchEnd: return "tx_batch_end";
    case EventKind::kRxBatchStart: return "rx_batch_start";
    case EventKind::kRxBatchEnd: return "rx_batch_end";
    case EventKind::kSvcAdmit: return "svc_admit";
    case EventKind::kSvcShed: return "svc_shed";
    case EventKind::kSvcDeadline: return "svc_deadline";
    case EventKind::kMcastSend: return "mcast_send";
    case EventKind::kMcastDeliver: return "mcast_deliver";
    case EventKind::kShmBatch: return "shm_batch";
    case EventKind::kLeafStep: return "leaf_step";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// TraceBuffer
// ---------------------------------------------------------------------------

namespace {

size_t round_pow2(size_t n) {
  size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

void pack(const TraceEvent& e, uint64_t out[6]) {
  static_assert(sizeof(TraceEvent) == 6 * sizeof(uint64_t));
  std::memcpy(out, &e, sizeof(TraceEvent));
}

void unpack(const uint64_t in[6], TraceEvent* e) {
  // TraceEvent is trivially copyable; the cast mutes -Wclass-memaccess
  // (its NSDMIs make the default constructor non-trivial).
  std::memcpy(static_cast<void*>(e), in, sizeof(TraceEvent));
}

}  // namespace

TraceBuffer::TraceBuffer(size_t capacity)
    : mask_(round_pow2(capacity) - 1),
      slots_(std::make_unique<Slot[]>(mask_ + 1)) {}

void TraceBuffer::record(const TraceEvent& e) noexcept {
  const uint64_t h = head_.load(std::memory_order_relaxed);
  Slot& s = slots_[h & mask_];
  uint64_t words[6];
  pack(e, words);
  // Single-writer seqlock: odd marks the slot in flight; the release fence
  // orders the odd store before the payload so a reader that sees any new
  // word re-reads an odd or advanced sequence and discards the slot.
  const uint64_t seq = s.seq.load(std::memory_order_relaxed);
  s.seq.store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  for (int i = 0; i < 6; ++i) s.w[i].store(words[i], std::memory_order_relaxed);
  s.seq.store(seq + 2, std::memory_order_release);
  head_.store(h + 1, std::memory_order_release);
}

std::vector<TraceEvent> TraceBuffer::snapshot() const {
  const uint64_t h = head_.load(std::memory_order_acquire);
  const uint64_t cap = mask_ + 1;
  const uint64_t begin = h > cap ? h - cap : 0;
  std::vector<TraceEvent> out;
  out.reserve(static_cast<size_t>(h - begin));
  for (uint64_t i = begin; i < h; ++i) {
    const Slot& s = slots_[i & mask_];
    const uint64_t s1 = s.seq.load(std::memory_order_acquire);
    if (s1 & 1) continue;  // mid-write
    uint64_t words[6];
    for (int k = 0; k < 6; ++k) {
      words[k] = s.w[k].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_relaxed) != s1) continue;  // overwritten
    TraceEvent e;
    unpack(words, &e);
    if (e.kind == 0) continue;  // never-written slot
    out.push_back(e);
  }
  return out;
}

void TraceBuffer::clear() {
  // Not meant to race the owning writer; any concurrent record() is simply
  // kept or lost, both fine for a diagnostics ring.
  const uint64_t cap = mask_ + 1;
  for (uint64_t i = 0; i < cap; ++i) {
    Slot& s = slots_[i];
    const uint64_t seq = s.seq.load(std::memory_order_relaxed);
    s.seq.store(seq + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    for (int k = 0; k < 6; ++k) s.w[k].store(0, std::memory_order_relaxed);
    s.seq.store(seq + 2, std::memory_order_release);
  }
  head_.store(0, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Trace (process-wide registry of per-thread rings)
// ---------------------------------------------------------------------------

struct Trace::Registry {
  struct Entry {
    std::unique_ptr<TraceBuffer> buffer;
    std::atomic<bool> live{false};  ///< owned by a running thread
  };

  Mutex mu;
  std::vector<std::unique_ptr<Entry>> entries DPS_GUARDED_BY(mu);
  /// Drained rings of exited threads.
  std::vector<uint32_t> free_list DPS_GUARDED_BY(mu);

  // Thread-local handle: releases the ring back to the registry when the
  // thread exits so its events survive until the next draining collect().
  struct Handle {
    Registry* registry = nullptr;
    uint32_t index = 0;
    TraceBuffer* buffer = nullptr;
    uint32_t sample_skip = 0;
    ~Handle() {
      if (registry == nullptr) return;
      MutexLock lock(registry->mu);
      registry->entries[index]->live.store(false, std::memory_order_relaxed);
    }
  };

  static Handle& handle() {
    thread_local Handle h;
    return h;
  }

  TraceBuffer* acquire(Handle& h, size_t capacity) {
    {
      MutexLock lock(mu);
      if (!free_list.empty()) {
        const uint32_t idx = free_list.back();
        Entry& e = *entries[idx];
        if (e.buffer->capacity() >= round_up(capacity)) {
          free_list.pop_back();
          e.buffer->set_name("");
          e.live.store(true, std::memory_order_relaxed);
          h.registry = this;
          h.index = idx;
          h.buffer = e.buffer.get();
          h.sample_skip = 0;
          return h.buffer;
        }
      }
    }
    // Built outside the lock: zero-filling a large ring takes milliseconds,
    // and every other thread's first event would wait for it.
    auto entry = std::make_unique<Entry>();
    entry->buffer = std::make_unique<TraceBuffer>(capacity);
    entry->live.store(true, std::memory_order_relaxed);
    MutexLock lock(mu);
    entries.push_back(std::move(entry));
    const uint32_t idx = static_cast<uint32_t>(entries.size() - 1);
    h.registry = this;
    h.index = idx;
    h.buffer = entries[idx]->buffer.get();
    h.sample_skip = 0;
    return h.buffer;
  }

  static size_t round_up(size_t n) {
    size_t p = 8;
    while (p < n) p <<= 1;
    return p;
  }
};

Trace& Trace::instance() {
  static Trace* t = new Trace();  // leaked: outlives exiting threads
  return *t;
}

Trace::Registry& Trace::registry() {
  static Registry* r = new Registry();
  return *r;
}

void Trace::configure(const TraceConfig& config) {
  sample_every_.store(config.sample_every == 0 ? 1 : config.sample_every,
                      std::memory_order_relaxed);
  capacity_.store(config.buffer_capacity, std::memory_order_relaxed);
  detail::g_trace_on.store(config.enabled, std::memory_order_relaxed);
}

void Trace::record_impl(EventKind kind, uint32_t node, uint64_t a, uint64_t b,
                        uint64_t c, uint64_t d) noexcept {
  Registry::Handle& h = Registry::handle();
  if (h.buffer == nullptr || h.registry == nullptr) {
    registry().acquire(h, capacity_.load(std::memory_order_relaxed));
  }
  const uint32_t every = sample_every_.load(std::memory_order_relaxed);
  if (every > 1) {
    if (++h.sample_skip < every) return;
    h.sample_skip = 0;
  }
  TraceEvent e;
  e.t_ns = trace_clock_ns();
  e.kind = static_cast<uint16_t>(kind);
  e.node = node;
  e.a = a;
  e.b = b;
  e.c = c;
  e.d = d;
  h.buffer->record(e);
}

void Trace::set_thread_name(const std::string& name) {
  Registry::Handle& h = Registry::handle();
  if (h.buffer == nullptr || h.registry == nullptr) {
    registry().acquire(h, capacity_.load(std::memory_order_relaxed));
  }
  MutexLock lock(registry().mu);
  h.buffer->set_name(name);
}

std::vector<TaggedEvent> Trace::collect(bool clear) {
  Registry& reg = registry();
  std::vector<TaggedEvent> out;
  {
    MutexLock lock(reg.mu);
    for (uint32_t i = 0; i < reg.entries.size(); ++i) {
      Registry::Entry& entry = *reg.entries[i];
      const std::string& name = entry.buffer->name();
      for (const TraceEvent& e : entry.buffer->snapshot()) {
        TaggedEvent t;
        t.e = e;
        t.thread = i;
        t.thread_name =
            name.empty() ? "thread-" + std::to_string(i) : name;
        out.push_back(std::move(t));
      }
      if (clear) {
        entry.buffer->clear();
        if (!entry.live.load(std::memory_order_relaxed)) {
          bool already = false;
          for (uint32_t f : reg.free_list) already = already || f == i;
          if (!already) reg.free_list.push_back(i);
        }
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TaggedEvent& x, const TaggedEvent& y) {
                     return x.e.t_ns < y.e.t_ns;
                   });
  return out;
}

void Trace::reset() { (void)collect(/*clear=*/true); }

uint64_t Trace::events_recorded() const {
  Registry& reg = const_cast<Trace*>(this)->registry();
  MutexLock lock(reg.mu);
  uint64_t n = 0;
  for (const auto& entry : reg.entries) n += entry->buffer->recorded();
  return n;
}

}  // namespace dps::obs
