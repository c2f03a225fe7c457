// Byte-level wire format primitives.
//
// DPS serializes tokens into flat byte buffers before they cross a node
// boundary (a real TCP socket, or the in-process serialized channel that
// reproduces the paper's "several kernels on one host" debugging mode).
// The format is little-endian, size-prefixed, and versioned one level up in
// net/framing.hpp. x86-64 only (asserted), matching the paper's platform.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace dps {

static_assert(std::endian::native == std::endian::little,
              "DPS wire format assumes a little-endian host");

/// Appends primitive values to a growable byte buffer.
class Writer {
 public:
  Writer() = default;

  /// Adopts `buf` as backing storage, keeping its capacity but discarding
  /// its contents — the constructor the buffer pool hands recycled
  /// allocations through. Combined with Envelope::encoded_size(), an
  /// exact-capacity buffer makes the whole encode allocation-free.
  explicit Writer(std::vector<std::byte> buf) : buf_(std::move(buf)) {
    buf_.clear();
  }

  /// Pre-sizes the backing buffer so subsequent puts don't reallocate.
  void reserve(size_t n) { buf_.reserve(n); }

  /// Raw bytes, no length prefix. Zero-size writes are no-ops so callers
  /// may pass data() of an empty container, which is null.
  void put_raw(const void* data, size_t size) {
    if (size == 0) return;
    if (run_ != nullptr) copy_run_in();
    if (buf_.size() + size > buf_.capacity()) ++growths_;
    const auto* bytes = static_cast<const std::byte*>(data);
    buf_.insert(buf_.end(), bytes, bytes + size);
  }

  /// Lets the put_run of exactly `size` bytes that starts once `at` bytes
  /// are written stay in the caller's memory: the writer records where it
  /// is (run()) instead of copying it, and the encoding is bytes()
  /// followed by the run. A put after the run copies it in first and counts
  /// that as a growth, so the bytes stay correct and the zero-growth
  /// checks notice.
  void defer_run(size_t at, size_t size) {
    run_at_ = at;
    run_size_ = size;
  }

  /// put_raw for a run that defer_run may leave in place (the elements of
  /// a Buffer<T>).
  void put_run(const void* data, size_t size) {
    if (run_ == nullptr && size != 0 && size == run_size_ &&
        buf_.size() == run_at_) {
      run_ = static_cast<const std::byte*>(data);
      return;
    }
    put_raw(data, size);
  }

  /// The run defer_run left in place, or nullptr; run_size() bytes long.
  const std::byte* run() const { return run_; }
  size_t run_size() const { return run_ != nullptr ? run_size_ : 0; }

  /// Any trivially copyable scalar/struct, by value.
  template <class T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Writer::put requires a trivially copyable type");
    put_raw(&value, sizeof(T));
  }

  /// Length-prefixed (u32) byte run.
  void put_bytes(const void* data, size_t size) {
    DPS_CHECK(size <= UINT32_MAX, "byte run exceeds u32 length prefix");
    put(static_cast<uint32_t>(size));
    put_raw(data, size);
  }

  /// Length-prefixed UTF-8/byte string.
  void put_string(const std::string& s) { put_bytes(s.data(), s.size()); }

  const std::vector<std::byte>& bytes() const { return buf_; }
  std::vector<std::byte> take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }
  size_t capacity() const { return buf_.capacity(); }

  /// Number of puts that outgrew the backing buffer's capacity (each one a
  /// reallocation + copy), plus deferred runs copied in after all. Zero for
  /// a writer seeded with an exact-size reserve — the invariant
  /// bench/micro_serialization locks in.
  uint32_t growth_count() const { return growths_; }

 private:
  void copy_run_in() {
    const std::byte* run = std::exchange(run_, nullptr);
    ++growths_;
    buf_.insert(buf_.end(), run, run + run_size_);
    run_size_ = 0;
  }

  std::vector<std::byte> buf_;
  uint32_t growths_ = 0;
  size_t run_at_ = 0;              ///< where a deferred run may start
  size_t run_size_ = 0;            ///< its length; 0 = nothing deferred
  const std::byte* run_ = nullptr;  ///< the deferred run, once recorded
};

/// Reads primitive values back out of a byte buffer. Every accessor checks
/// bounds and throws Error(kProtocol) on overrun, so a truncated or
/// corrupted message cannot read out of bounds.
class Reader {
 public:
  Reader(const void* data, size_t size)
      : data_(static_cast<const std::byte*>(data)), size_(size) {}

  explicit Reader(const std::vector<std::byte>& buf)
      : Reader(buf.data(), buf.size()) {}

  /// A reader over a received frame whose storage the decode may adopt
  /// (see adopt_tail), leaving `frame` empty. The caller keeps `frame`
  /// alive, and changes it only through this reader, while decoding.
  static Reader adoptable(std::vector<std::byte>& frame) {
    Reader r(frame);
    r.frame_ = &frame;
    return r;
  }

  void get_raw(void* out, size_t size) {
    require(size);
    // memcpy is declared nonnull; an empty container's data() is null, so a
    // zero-size read must not touch it (UBSan: "null passed as argument 1").
    if (size == 0) return;
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
  }

  template <class T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Reader::get requires a trivially copyable type");
    T value;
    get_raw(&value, sizeof(T));
    return value;
  }

  std::string get_string() {
    const uint32_t len = get<uint32_t>();
    require(len);
    if (len == 0) return {};  // basic_string(nullptr, 0) is undefined
    std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return s;
  }

  /// Returns a pointer into the underlying buffer for a length-prefixed run
  /// (zero-copy); the pointer is valid as long as the buffer is.
  const std::byte* get_bytes(uint32_t* out_len) {
    const uint32_t len = get<uint32_t>();
    require(len);
    const std::byte* p = data_ + pos_;
    pos_ += len;
    *out_len = len;
    return p;
  }

  /// Moves the frame's storage into *block instead of reading the next
  /// `size` bytes, when this reader is adoptable and those bytes are the
  /// frame's tail, start at an address aligned to `align`, and are at least
  /// half of the frame's allocation, its capacity() (so an adopted block
  /// never pins more foreign bytes than its own). The run then starts at
  /// block->data() + *offset and the reader is at its end. Otherwise reads
  /// nothing and returns false.
  bool adopt_tail(size_t size, size_t align, std::vector<std::byte>* block,
                  size_t* offset) {
    if (frame_ == nullptr || size != remaining() ||
        size < frame_->capacity() - size ||
        reinterpret_cast<uintptr_t>(data_ + pos_) % align != 0) {
      return false;
    }
    *offset = pos_;
    *block = std::exchange(*frame_, {});
    frame_ = nullptr;
    pos_ = size_;
    return true;
  }

  size_t remaining() const { return size_ - pos_; }
  bool at_end() const { return pos_ == size_; }

  /// Validates a decoded element count against the bytes actually present
  /// (each element needs at least `min_element_size` bytes). Protects
  /// containers from allocating storage for absurd claimed counts before
  /// the payload bounds checks would fire.
  void require_count(uint64_t count, size_t min_element_size) const {
    if (min_element_size == 0) min_element_size = 1;
    if (count > remaining() / min_element_size) {
      raise(Errc::kProtocol,
            "claimed element count " + std::to_string(count) +
                " exceeds the remaining payload");
    }
  }

 private:
  void require(size_t size) const {
    if (size_ - pos_ < size) {
      raise(Errc::kProtocol, "wire buffer overrun (need " +
                                 std::to_string(size) + " bytes, have " +
                                 std::to_string(size_ - pos_) + ")");
    }
  }

  const std::byte* data_;
  size_t size_;
  size_t pos_ = 0;
  std::vector<std::byte>* frame_ = nullptr;  ///< adoptable frame, if any
};

}  // namespace dps
