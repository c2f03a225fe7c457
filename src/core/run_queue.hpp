// RunQueue: the worker's indexed pending-envelope structure.
//
// The engine's token-delivery hot path is two-phase (see controller.cpp):
// producers append envelopes to a worker's MPSC *inbox* under a short lock,
// and the owning worker thread drains the inbox in batch into this
// structure. Three intrusive lists over one node slab make every query O(1):
//
//   - a global FIFO of all pending envelopes (top-level worker_loop order),
//   - per-(vertex, context) buckets, so a merge/stream collection waiting
//     in waitForNextToken finds its next input by bucket lookup instead of
//     scanning the whole queue,
//   - per-tenant FIFOs of *dispatchable* envelopes — those safe to execute
//     re-entrantly while a collection waits (anything that does not start
//     a merge/stream collection; see find-dispatchable rationale in
//     controller.cpp). pop_dispatchable round-robins across the tenants
//     with pending work, so one tenant flooding a worker cannot starve the
//     re-entrant dispatch of the others (docs/SERVICE_MESH.md); within one
//     tenant the order stays FIFO, which preserves same-context ordering
//     (all tokens of a context share their call's tenant).
//
// An envelope that starts a collection is keyed into exactly one bucket;
// every other envelope is on its tenant's dispatchable list; all envelopes
// are on the global FIFO. Links are slab indices (stable across vector
// growth), and freed nodes recycle through a free list, so steady-state
// operation allocates nothing.
//
// Threading: the queue is worker-private. Only the owning worker thread
// pushes (from its inbox drain) and pops, so it takes no lock; producers on
// other threads only ever touch the worker's inbox.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/envelope.hpp"

namespace dps {

class RunQueue {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  bool has_dispatchable() const { return disp_count_ != 0; }

  /// Appends `env`. `dispatchable` says whether the envelope may run
  /// re-entrantly under a waiting collection; when false it is bucketed
  /// under (env.vertex, input context) for O(1) merge matching.
  void push(Envelope&& env, bool dispatchable) {
    const uint32_t n = alloc();
    Node& node = slab_[n];
    node.env = std::move(env);
    node.dispatchable = dispatchable;
    node.key = key_of(node.env);
    link_back(n, &global_head_, &global_tail_, &Node::gprev, &Node::gnext);
    if (dispatchable) {
      node.tq = tenant_queue(node.env.tenant);
      TenantQ& tq = tqs_[node.tq];
      link_back(n, &tq.head, &tq.tail, &Node::sprev, &Node::snext);
      ++disp_count_;
    } else {
      Bucket& b = buckets_[node.key];
      link_back(n, &b.head, &b.tail, &Node::sprev, &Node::snext);
    }
    ++size_;
  }

  /// Oldest pending envelope regardless of kind (top-level dispatch order).
  bool pop_front(Envelope* out) { return take(global_head_, out); }

  /// Oldest pending input of collection (vertex, ctx); FIFO per context.
  bool pop_context(VertexId vertex, ContextId ctx, Envelope* out) {
    const auto it = buckets_.find(Key{vertex, ctx});
    if (it == buckets_.end()) return false;
    return take(it->second.head, out);
  }

  /// Next envelope safe for re-entrant dispatch: round-robin across the
  /// tenants with pending dispatchable work, FIFO within each tenant.
  bool pop_dispatchable(Envelope* out) {
    if (disp_count_ == 0) return false;
    const size_t k = tqs_.size();
    for (size_t i = 0; i < k; ++i) {
      const size_t qi = (rr_next_ + i) % k;
      if (tqs_[qi].head != kNil) {
        rr_next_ = (qi + 1) % k;  // the next tenant gets the next turn
        return take(tqs_[qi].head, out);
      }
    }
    return false;  // unreachable while disp_count_ is maintained
  }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  struct Key {
    VertexId vertex;
    ContextId ctx;
    bool operator==(const Key& o) const {
      return vertex == o.vertex && ctx == o.ctx;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // splitmix-style combine; contexts are globally unique already.
      uint64_t h = k.ctx + 0x9e3779b97f4a7c15ULL * (k.vertex + 1);
      h ^= h >> 30;
      h *= 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 27;
      return static_cast<size_t>(h);
    }
  };
  struct Bucket {
    uint32_t head = kNil;
    uint32_t tail = kNil;
  };
  /// One tenant's dispatchable FIFO. Slots persist once created (bounded
  /// by the number of distinct tenants this worker ever saw — small).
  struct TenantQ {
    TenantId tenant = kNoTenant;
    uint32_t head = kNil;
    uint32_t tail = kNil;
  };
  struct Node {
    Envelope env;
    Key key{0, 0};
    bool dispatchable = false;
    uint32_t tq = 0;                      ///< index into tqs_ (dispatchable)
    uint32_t gprev = kNil, gnext = kNil;  ///< global FIFO links
    uint32_t sprev = kNil, snext = kNil;  ///< bucket or tenant-FIFO links
  };

  static Key key_of(const Envelope& e) {
    return Key{e.vertex, e.frames.empty() ? 0 : e.frames.back().context};
  }

  /// Index of tenant `t`'s dispatchable FIFO, created on first use. Linear
  /// scan: a worker serves a handful of tenants, and the scan only runs on
  /// the push path.
  uint32_t tenant_queue(TenantId t) {
    for (uint32_t i = 0; i < tqs_.size(); ++i) {
      if (tqs_[i].tenant == t) return i;
    }
    tqs_.push_back(TenantQ{t, kNil, kNil});
    return static_cast<uint32_t>(tqs_.size() - 1);
  }

  uint32_t alloc() {
    if (free_head_ != kNil) {
      const uint32_t n = free_head_;
      free_head_ = slab_[n].gnext;
      return n;
    }
    slab_.emplace_back();
    return static_cast<uint32_t>(slab_.size() - 1);
  }

  void link_back(uint32_t n, uint32_t* head, uint32_t* tail,
                 uint32_t Node::* prev, uint32_t Node::* next)
      {
    Node& node = slab_[n];
    node.*prev = *tail;
    node.*next = kNil;
    if (*tail != kNil) {
      slab_[*tail].*next = n;
    } else {
      *head = n;
    }
    *tail = n;
  }

  void unlink(uint32_t n, uint32_t* head, uint32_t* tail,
              uint32_t Node::* prev, uint32_t Node::* next)
      {
    Node& node = slab_[n];
    if (node.*prev != kNil) {
      slab_[node.*prev].*next = node.*next;
    } else {
      *head = node.*next;
    }
    if (node.*next != kNil) {
      slab_[node.*next].*prev = node.*prev;
    } else {
      *tail = node.*prev;
    }
  }

  /// Removes node `n` from all lists, moves its envelope to `out`, and
  /// recycles the slot. Returns false when n == kNil (empty list).
  bool take(uint32_t n, Envelope* out) {
    if (n == kNil) return false;
    Node& node = slab_[n];
    unlink(n, &global_head_, &global_tail_, &Node::gprev, &Node::gnext);
    if (node.dispatchable) {
      TenantQ& tq = tqs_[node.tq];
      unlink(n, &tq.head, &tq.tail, &Node::sprev, &Node::snext);
      --disp_count_;
    } else {
      const auto it = buckets_.find(node.key);
      unlink(n, &it->second.head, &it->second.tail, &Node::sprev,
             &Node::snext);
      if (it->second.head == kNil) buckets_.erase(it);
    }
    *out = std::move(node.env);
    node.env = Envelope{};  // drop the token reference eagerly
    node.gnext = free_head_;  // free list reuses the gnext link
    free_head_ = n;
    --size_;
    return true;
  }

  std::vector<Node> slab_;
  std::unordered_map<Key, Bucket, KeyHash> buckets_;
  std::vector<TenantQ> tqs_;  ///< per-tenant FIFOs
  size_t rr_next_ = 0;        ///< round-robin cursor
  size_t disp_count_ = 0;     ///< dispatchable pending
  uint32_t global_head_ = kNil;
  uint32_t global_tail_ = kNil;
  uint32_t free_head_ = kNil;
  size_t size_ = 0;
};

}  // namespace dps
