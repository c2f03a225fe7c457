#include "serial/buffer_pool.hpp"

namespace dps {

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;
}  // namespace

BufferPool& BufferPool::instance() {
  // Leaked on purpose: a Buffer<T> inside a static token may return its
  // block during static destruction, after a function-local static pool
  // would already be gone.
  static BufferPool* const pool = new BufferPool();
  return *pool;
}

std::vector<std::byte> BufferPool::take(size_t n, bool sized) {
  // A retained buffer fits when it can hand out n bytes without writing
  // one: acquire() clears, so all of its capacity counts; acquire_sized()
  // shrinks, so only the bytes it already holds, its size(), count.
  const auto fits = [n, sized](const std::vector<std::byte>& b) {
    return (sized ? b.size() : b.capacity()) >= n;
  };
  acquires_.fetch_add(1, kRelaxed);
  std::vector<std::byte> buf;
  MutexLock lock(mu_);
  // Prefer the smallest retained buffer that fits; fall back to the
  // largest one (topping it up writes only the bytes it lacks).
  size_t best = free_.size();
  for (size_t i = 0; i < free_.size(); ++i) {
    if (!fits(free_[i])) continue;
    if (best == free_.size() ||
        free_[i].capacity() < free_[best].capacity()) {
      best = i;
    }
  }
  if (best == free_.size() && !free_.empty()) {
    best = 0;
    for (size_t i = 1; i < free_.size(); ++i) {
      if (free_[i].capacity() > free_[best].capacity()) best = i;
    }
  }
  if (best < free_.size()) {
    buf = std::move(free_[best]);
    free_.erase(free_.begin() + static_cast<ptrdiff_t>(best));
    if (buf.capacity() >= n) reuses_.fetch_add(1, kRelaxed);
  }
  return buf;
}

std::vector<std::byte> BufferPool::acquire(size_t size_hint) {
  std::vector<std::byte> buf;
  if (size_hint < kPooledBlockBytes) {
    acquires_.fetch_add(1, kRelaxed);
  } else {
    buf = take(size_hint, false);
    // clear() is free for bytes, and it must come before reserve() so that
    // a regrow copies no stale byte.
    buf.clear();
  }
  if (buf.capacity() < size_hint) buf.reserve(size_hint);
  return buf;
}

std::vector<std::byte> BufferPool::acquire_sized(size_t n) {
  if (n < kPooledBlockBytes) {
    acquires_.fetch_add(1, kRelaxed);
    return std::vector<std::byte>(n);
  }
  std::vector<std::byte> buf = take(n, true);
  // A fitting buffer has size() >= n: resize shrinks it and writes
  // nothing. A shorter one with room zero-fills only the bytes it lacks; a
  // buffer too small is cleared first so the regrow copies nothing and
  // zero-fills only the fresh allocation.
  if (buf.capacity() < n) buf.clear();
  buf.resize(n);
  return buf;
}

void BufferPool::release(std::vector<std::byte> buf) {
  if (buf.capacity() == 0) return;
  if (buf.capacity() < kPooledBlockBytes ||
      buf.capacity() > kMaxRetainedCapacity) {
    dropped_.fetch_add(1, kRelaxed);
    return;  // buf destructs outside the pool
  }
  {
    MutexLock lock(mu_);
    if (free_.size() < kMaxFreeBuffers) {
      // The buffer keeps its size: those bytes are what acquire_sized can
      // hand out again without writing.
      free_.push_back(std::move(buf));
      releases_.fetch_add(1, kRelaxed);
      return;
    }
  }
  dropped_.fetch_add(1, kRelaxed);
}

BufferPool::Stats BufferPool::stats() const {
  Stats s;
  s.acquires = acquires_.load(kRelaxed);
  s.reuses = reuses_.load(kRelaxed);
  s.releases = releases_.load(kRelaxed);
  s.dropped = dropped_.load(kRelaxed);
  s.encode_growths = encode_growths_.load(kRelaxed);
  return s;
}

void BufferPool::reset_stats() {
  acquires_.store(0, kRelaxed);
  reuses_.store(0, kRelaxed);
  releases_.store(0, kRelaxed);
  dropped_.store(0, kRelaxed);
  encode_growths_.store(0, kRelaxed);
}

void BufferPool::note_growth(uint32_t growths) {
  if (growths != 0) encode_growths_.fetch_add(growths, kRelaxed);
}

void BufferPool::trim() {
  MutexLock lock(mu_);
  free_.clear();
  free_.shrink_to_fit();
}

}  // namespace dps
