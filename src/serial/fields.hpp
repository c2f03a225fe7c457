// Automatic field serialization for complex tokens.
//
// The paper's complex data objects declare their serializable state through
// field wrappers — CT<T> for single values, Buffer<T> for variable-size
// arrays of simple elements, Vector<T> for arrays of complex elements —
// and "the serialization is performed with pointer arithmetic in order to
// traverse the elements of the data object ... without requiring redundant
// data declarations".
//
// This implementation realizes that idea with a one-time *capture
// construction* per concrete type: the first time a type is serialized, one
// probe instance is default-constructed inside a capture scope; every field
// wrapper constructor reports its own address, yielding a per-type table of
// {offset, serialize/deserialize ops}. All subsequent objects of that type
// are (de)serialized by walking the table — the pointer arithmetic of the
// paper, derived automatically and safely.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "serial/buffer_pool.hpp"
#include "serial/token.hpp"
#include "serial/wire.hpp"
#include "util/error.hpp"

namespace dps {

/// Tag base for plain structs (not tokens) that declare their state with
/// field wrappers and may appear inside Vector<> or CT<>.
struct Serializable {};

namespace detail {

/// Type-erased (de)serialization entry points for one field wrapper type.
struct FieldOps {
  void (*serialize)(const void* field, Writer& w);
  void (*deserialize)(void* field, Reader& r);
  /// Exact number of bytes serialize() would emit for this field value —
  /// lets Envelope::encoded_size() size the encode buffer arithmetically
  /// instead of doing a throwaway encode.
  size_t (*wire_size)(const void* field);
  /// Bytes of the raw run serialize() ends with (Writer::put_run), which
  /// an encoder may leave in place; null for fields that end otherwise.
  size_t (*tail_run)(const void* field) = nullptr;
};

struct FieldDescriptor {
  size_t offset;
  const FieldOps* ops;
};

/// One active capture scope (they nest across types during recursive table
/// construction). Lives on the stack of the thread building a table.
struct CaptureState {
  const char* base;
  size_t size;
  std::vector<FieldDescriptor>* fields;
  CaptureState* prev;
};

/// Thread-local top of the capture stack (nullptr outside table builds).
CaptureState*& capture_top() noexcept;

/// Called by every field wrapper constructor. No-op outside captures.
void register_field(const void* field, const FieldOps* ops);

template <class T>
constexpr bool is_field_bearing_v =
    std::is_base_of_v<Serializable, T> || std::is_base_of_v<Token, T>;

}  // namespace detail

/// Per-type table of serializable fields, built once per concrete type by a
/// capture construction.
class FieldTable {
 public:
  /// The table for T (built thread-safely on first use). T must be
  /// default-constructible and its constructor must have no side effects
  /// beyond initializing members.
  template <class T>
  static const FieldTable& of() {
    static_assert(std::is_default_constructible_v<T>,
                  "field-bearing types need a default constructor for the "
                  "deserialization factory");
    static const FieldTable table = build<T>();
    return table;
  }

  void serialize(const void* object, Writer& w) const {
    const char* base = static_cast<const char*>(object);
    for (const auto& f : fields_) f.ops->serialize(base + f.offset, w);
  }

  void deserialize(void* object, Reader& r) const {
    char* base = static_cast<char*>(object);
    for (const auto& f : fields_) f.ops->deserialize(base + f.offset, r);
  }

  /// Exact serialized size of `object`'s fields.
  size_t wire_size(const void* object) const {
    const char* base = static_cast<const char*>(object);
    size_t n = 0;
    for (const auto& f : fields_) n += f.ops->wire_size(base + f.offset);
    return n;
  }

  /// Bytes of the raw run `object`'s encoding ends with: the elements of
  /// its last field when that is a Buffer<T>, else 0.
  size_t tail_run(const void* object) const {
    if (fields_.empty() || fields_.back().ops->tail_run == nullptr) return 0;
    const detail::FieldDescriptor& f = fields_.back();
    return f.ops->tail_run(static_cast<const char*>(object) + f.offset);
  }

  size_t field_count() const { return fields_.size(); }

 private:
  template <class T>
  static FieldTable build() {
    FieldTable table;
    void* mem = ::operator new(sizeof(T), std::align_val_t(alignof(T)));
    detail::CaptureState cap{static_cast<const char*>(mem), sizeof(T),
                             &table.fields_, detail::capture_top()};
    detail::capture_top() = &cap;
    T* probe = nullptr;
    try {
      probe = ::new (mem) T();
    } catch (...) {
      detail::capture_top() = cap.prev;
      ::operator delete(mem, std::align_val_t(alignof(T)));
      throw;
    }
    detail::capture_top() = cap.prev;
    probe->~T();
    ::operator delete(mem, std::align_val_t(alignof(T)));
    return table;
  }

  std::vector<detail::FieldDescriptor> fields_;
};

// ---------------------------------------------------------------------------
// CT<T> — a single serializable value.
//
// Supports trivially copyable types (stored and copied raw), std::string
// (length-prefixed), and field-bearing structs (recursively serialized
// through their own FieldTable).
// ---------------------------------------------------------------------------

template <class T>
class CT {
  static_assert(std::is_trivially_copyable_v<T> ||
                    std::is_same_v<T, std::string> ||
                    detail::is_field_bearing_v<T>,
                "CT<T> supports trivially copyable types, std::string, and "
                "Serializable/Token-derived field-bearing structs");

 public:
  CT() : value_{} { self_register(); }
  CT(const T& v) : value_(v) { self_register(); }  // NOLINT
  CT(const CT& o) : value_(o.value_) { self_register(); }
  CT& operator=(const CT& o) {
    value_ = o.value_;
    return *this;
  }
  CT& operator=(const T& v) {
    value_ = v;
    return *this;
  }

  operator T&() noexcept { return value_; }              // NOLINT
  operator const T&() const noexcept { return value_; }  // NOLINT
  T& get() noexcept { return value_; }
  const T& get() const noexcept { return value_; }

 private:
  void self_register() {
    // Field-bearing payloads register their own inner wrappers during the
    // capture construction (they are members of value_, inside the probed
    // object's byte range), so CT itself must stay silent to avoid
    // serializing the payload twice.
    if constexpr (!detail::is_field_bearing_v<T>) {
      detail::register_field(this, ops());
    }
  }
  static const detail::FieldOps* ops() {
    static const detail::FieldOps o{&serialize_fn, &deserialize_fn,
                                    &wire_size_fn};
    return &o;
  }
  static void serialize_fn(const void* field, Writer& w) {
    const T& v = static_cast<const CT*>(field)->value_;
    if constexpr (std::is_same_v<T, std::string>) {
      w.put_string(v);
    } else {
      w.put(v);
    }
  }
  static void deserialize_fn(void* field, Reader& r) {
    T& v = static_cast<CT*>(field)->value_;
    if constexpr (std::is_same_v<T, std::string>) {
      v = r.get_string();
    } else {
      v = r.get<T>();
    }
  }
  static size_t wire_size_fn(const void* field) {
    if constexpr (std::is_same_v<T, std::string>) {
      return sizeof(uint32_t) +
             static_cast<const CT*>(field)->value_.size();
    } else {
      return sizeof(T);
    }
  }

  T value_;
};

// ---------------------------------------------------------------------------
// Buffer<T> — variable-size array of simple (trivially copyable) elements,
// serialized as count + one raw byte run.
//
// Storage is one byte block with the elements at an offset inside it. A
// block of at least kPooledBlockBytes comes from the BufferPool and goes
// back to it when replaced or destroyed; a smaller one is a plain
// allocation. A large run that ends an adoptable frame (Reader::adoptable)
// decodes without a copy: the received frame becomes the block and the
// elements start after its envelope prefix. On the way out the elements
// are a Writer run (put_run), which an envelope encode leaves in place
// when they end the token (core/envelope.hpp). Copies are deep.
// ---------------------------------------------------------------------------

template <class T>
class Buffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "Buffer<T> holds trivially copyable elements; use Vector<T> "
                "for complex elements");
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "Buffer<T> storage is aligned like operator new's");

 public:
  Buffer() { detail::register_field(this, ops()); }
  explicit Buffer(size_t n) : Buffer() { resize(n); }
  Buffer(const Buffer& o) : Buffer() { assign(o.begin(), o.end()); }
  Buffer& operator=(const Buffer& o) {
    if (this != &o) assign(o.begin(), o.end());
    return *this;
  }
  ~Buffer() { release_block(); }

  size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  /// New elements are value-initialized.
  void resize(size_t n) {
    if (n > capacity_) grow(n);
    if (n > size_) std::uninitialized_value_construct(data_ + size_, data_ + n);
    size_ = n;
  }
  void clear() noexcept { size_ = 0; }
  void push_back(const T& x) {
    if (size_ == capacity_) {
      const T copy = x;  // x may live in the block grow() replaces
      grow(size_ + 1);
      ::new (static_cast<void*>(data_ + size_++)) T(copy);
      return;
    }
    ::new (static_cast<void*>(data_ + size_++)) T(x);
  }
  T& operator[](size_t i) noexcept { return data_[i]; }
  const T& operator[](size_t i) const noexcept { return data_[i]; }
  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  T* begin() noexcept { return data_; }
  T* end() noexcept { return data_ + size_; }
  const T* begin() const noexcept { return data_; }
  const T* end() const noexcept { return data_ + size_; }
  void assign(const T* first, const T* last) {
    const auto n = static_cast<size_t>(last - first);
    // A range longer than the block cannot lie inside it, so the old
    // elements need not survive the reallocation.
    if (n > capacity_) reallocate(n, 0);
    if (n > 0) std::memmove(data_, first, n * sizeof(T));
    size_ = n;
  }

 private:
  /// Grows to at least `n` elements, doubling like std::vector.
  void grow(size_t n) { reallocate(std::max(n, 2 * capacity_), size_); }

  /// Moves to a fresh block of `n` elements, keeping the first `keep`. The
  /// rest of the block is unwritten: callers write before they expose it.
  void reallocate(size_t n, size_t keep) {
    if (n > SIZE_MAX / sizeof(T)) throw std::length_error("Buffer<T> size");
    const size_t bytes = n * sizeof(T);
    std::vector<std::byte> block =
        bytes >= kPooledBlockBytes ? BufferPool::instance().acquire_sized(bytes)
                                   : std::vector<std::byte>(bytes);
    if (keep > 0) std::memcpy(block.data(), data_, keep * sizeof(T));
    release_block();
    block_ = std::move(block);
    data_ = reinterpret_cast<T*>(block_.data());
    capacity_ = n;
  }

  void release_block() noexcept {
    if (block_.capacity() >= kPooledBlockBytes) {
      BufferPool::instance().release(std::move(block_));
    }
  }

  static const detail::FieldOps* ops() {
    static const detail::FieldOps o{&serialize_fn, &deserialize_fn,
                                    &wire_size_fn, &tail_run_fn};
    return &o;
  }
  static void serialize_fn(const void* field, Writer& w) {
    const auto& b = *static_cast<const Buffer*>(field);
    w.put(static_cast<uint64_t>(b.size_));
    w.put_run(b.data_, b.size_ * sizeof(T));
  }
  static size_t wire_size_fn(const void* field) {
    const auto& b = *static_cast<const Buffer*>(field);
    return sizeof(uint64_t) + b.size_ * sizeof(T);
  }
  static size_t tail_run_fn(const void* field) {
    return static_cast<const Buffer*>(field)->size_ * sizeof(T);
  }
  static void deserialize_fn(void* field, Reader& r) {
    auto& b = *static_cast<Buffer*>(field);
    const uint64_t n = r.get<uint64_t>();
    r.require_count(n, sizeof(T));
    const size_t bytes = static_cast<size_t>(n) * sizeof(T);
    std::vector<std::byte> frame;
    size_t offset = 0;
    if (bytes >= kPooledBlockBytes &&
        r.adopt_tail(bytes, alignof(T), &frame, &offset)) {
      b.release_block();
      b.block_ = std::move(frame);
      b.data_ = reinterpret_cast<T*>(b.block_.data() + offset);
      b.size_ = b.capacity_ = static_cast<size_t>(n);
      return;
    }
    // The run overwrites every element, so no old one is kept and the
    // block is not filled first.
    b.size_ = 0;
    if (n > b.capacity_) b.reallocate(static_cast<size_t>(n), 0);
    r.get_raw(b.data_, bytes);
    b.size_ = static_cast<size_t>(n);
  }

  std::vector<std::byte> block_;  ///< storage; pooled when large
  T* data_ = nullptr;             ///< element 0, inside block_
  size_t size_ = 0;               ///< elements in use
  size_t capacity_ = 0;           ///< elements block_ holds from data_ on
};

// ---------------------------------------------------------------------------
// Vector<T> — variable-size array of complex (field-bearing) elements; each
// element is serialized through T's own field table.
// ---------------------------------------------------------------------------

template <class T>
class Vector {
  static_assert(detail::is_field_bearing_v<T>,
                "Vector<T> holds field-bearing elements (derive from "
                "dps::Serializable); use Buffer<T> for simple elements");

 public:
  Vector() { detail::register_field(this, ops()); }
  Vector(const Vector& o) : v_(o.v_) { detail::register_field(this, ops()); }
  Vector& operator=(const Vector& o) {
    v_ = o.v_;
    return *this;
  }

  size_t size() const noexcept { return v_.size(); }
  bool empty() const noexcept { return v_.empty(); }
  void resize(size_t n) { v_.resize(n); }
  void clear() noexcept { v_.clear(); }
  void push_back(const T& x) { v_.push_back(x); }
  template <class... Args>
  T& emplace_back(Args&&... args) {
    return v_.emplace_back(std::forward<Args>(args)...);
  }
  T& operator[](size_t i) noexcept { return v_[i]; }
  const T& operator[](size_t i) const noexcept { return v_[i]; }
  auto begin() noexcept { return v_.begin(); }
  auto end() noexcept { return v_.end(); }
  auto begin() const noexcept { return v_.begin(); }
  auto end() const noexcept { return v_.end(); }

 private:
  static const detail::FieldOps* ops() {
    static const detail::FieldOps o{&serialize_fn, &deserialize_fn,
                                    &wire_size_fn};
    return &o;
  }
  static void serialize_fn(const void* field, Writer& w) {
    const auto& v = static_cast<const Vector*>(field)->v_;
    w.put(static_cast<uint64_t>(v.size()));
    const FieldTable& table = FieldTable::of<T>();
    for (const T& e : v) table.serialize(&e, w);
  }
  static size_t wire_size_fn(const void* field) {
    const auto& v = static_cast<const Vector*>(field)->v_;
    const FieldTable& table = FieldTable::of<T>();
    size_t n = sizeof(uint64_t);
    for (const T& e : v) n += table.wire_size(&e);
    return n;
  }
  static void deserialize_fn(void* field, Reader& r) {
    auto& v = static_cast<Vector*>(field)->v_;
    const uint64_t n = r.get<uint64_t>();
    // Admission bound of one byte per element: protects the resize from a
    // hostile count. (Elements of empty field-bearing types would serialize
    // to zero bytes, capping such vectors at the payload size — an
    // acceptable restriction for a wire format.)
    r.require_count(n, 1);
    v.clear();
    v.resize(n);
    const FieldTable& table = FieldTable::of<T>();
    for (T& e : v) table.deserialize(&e, r);
  }

  std::vector<T> v_;
};

}  // namespace dps
