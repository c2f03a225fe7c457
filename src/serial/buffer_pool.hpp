// Free-list pool for large byte buffers: encode buffers, received frames and
// the storage of large Buffer<T> fields.
//
// Only blocks of at least kPooledBlockBytes are kept. A large frame comes
// from here on every receive path (acquire_sized) and goes back either
// when the Buffer<T> that adopted it dies or, when no field adopted it,
// right after the controller decoded it; a large Buffer<T> takes its block
// from here and returns it when replaced or destroyed. The pool is a
// process-wide singleton because buffers migrate between threads (worker
// encodes, sender releases) and between in-process "nodes".
//
// A smaller request is a plain allocation and a smaller release a plain
// free: neither takes the lock or scans the free list, which at ~1 kB per
// frame cost more than the allocation they saved, and a small request can
// never take (and pin) a retained large block. Both are still counted.
//
// The pool is deliberately small and bounded: it is a capacity cache, not
// an arena. Dropping a buffer on the floor (e.g. the inproc fabric hands
// payloads straight to the receiving controller, which frees them normally)
// is always correct — acquire/release need not pair up.
//
// A retained buffer keeps the size it was released with. acquire_sized
// picks one whose size() already covers the request and shrinks it, which
// writes no byte; only bytes a buffer never held are zero-filled.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/thread_annotations.hpp"

namespace dps {

/// Byte blocks at least this large cycle through the BufferPool: Buffer<T>
/// storage, and received frames no decode adopted. Smaller blocks use
/// plain allocation, which at ~1 kB per frame costs less than the pool's
/// lock. It is also the smallest Buffer<T> run a decode adopts from its
/// frame instead of copying (serial/fields.hpp), and the smallest one an
/// envelope encode sends by reference instead of copying (core/envelope.hpp).
inline constexpr size_t kPooledBlockBytes = 16 * 1024;

class BufferPool {
 public:
  /// The process-wide pool. It is never destroyed, so it outlives every
  /// Buffer<T> that returns storage to it, static tokens included.
  static BufferPool& instance();

  /// An empty vector with capacity >= size_hint, recycled when possible
  /// (only a size_hint of at least kPooledBlockBytes ever is).
  std::vector<std::byte> acquire(size_t size_hint);

  /// A vector of size n, recycled when possible (only an n of at least
  /// kPooledBlockBytes ever is). Its bytes are unspecified (stale bytes of
  /// a recycled buffer, zeros of a fresh one): the caller must write every
  /// byte before exposing it.
  std::vector<std::byte> acquire_sized(size_t n);

  /// Returns a buffer's capacity to the free list (contents are discarded).
  /// Buffers below kPooledBlockBytes or beyond the retention caps are
  /// simply freed.
  void release(std::vector<std::byte> buf);

  struct Stats {
    uint64_t acquires = 0;  ///< total acquire() / acquire_sized() calls
    uint64_t reuses = 0;    ///< acquires satisfied without an allocation
    uint64_t releases = 0;  ///< buffers returned to the free list
    uint64_t dropped = 0;   ///< releases freed instead: small buffers, and
                            ///< those the retention caps reject
    uint64_t encode_growths = 0;  ///< Writer reallocations noted via
                                  ///< note_growth — zero when every encode
                                  ///< got an exact-size buffer
  };
  Stats stats() const;
  void reset_stats();

  /// Folds a Writer::growth_count() into the stats; callers report it after
  /// finishing an encode so tests can assert the zero-realloc invariant.
  void note_growth(uint32_t growths);

  /// Frees every retained buffer (tests; leak-checker hygiene).
  void trim();

 private:
  BufferPool() = default;

  /// Takes the best-fitting retained buffer for `n` bytes out of the free
  /// list (empty when there is none) and counts the acquire. `sized` fits
  /// by size() (acquire_sized), otherwise by capacity() (acquire).
  std::vector<std::byte> take(size_t n, bool sized);

  // Caps chosen for the engine's working set: a handful of in-flight
  // frames per peer link. Oversized one-off buffers (multi-MB tokens) are
  // not retained so a single huge transfer can't pin memory forever.
  static constexpr size_t kMaxFreeBuffers = 64;
  static constexpr size_t kMaxRetainedCapacity = 1 << 20;  // 1 MB each

  Mutex mu_;
  std::vector<std::vector<std::byte>> free_ DPS_GUARDED_BY(mu_);
  // Counted without the lock, so small calls stay lock-free.
  std::atomic<uint64_t> acquires_{0};
  std::atomic<uint64_t> reuses_{0};
  std::atomic<uint64_t> releases_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> encode_growths_{0};
};

}  // namespace dps
