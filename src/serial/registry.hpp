// Token type registry and the DPS_IDENTIFY macro.
//
// The paper's IDENTIFY macro "provides support for serialization,
// deserialization, and to create an abstract class factory to instantiate
// the data object during deserialization". DPS_IDENTIFY does exactly that:
// it registers the class (name, wire id, size, factory, serialize and
// deserialize entry points) with the process-wide TokenRegistry at static
// initialization time and implements Token::typeInfo().
//
// Wire ids are 64-bit FNV-1a hashes of the class name, so independently
// built processes agree on ids as long as they agree on names.
#pragma once

#include <cstdint>
#include <string>

#include "serial/fields.hpp"
#include "serial/token.hpp"
#include "serial/wire.hpp"

namespace dps {

/// 64-bit FNV-1a, the wire hash for all registered names (tokens,
/// operations, threads, routes).
constexpr uint64_t fnv1a(const char* s) {
  uint64_t h = 14695981039346656037ull;
  while (*s != '\0') {
    h ^= static_cast<unsigned char>(*s++);
    h *= 1099511628211ull;
  }
  return h;
}

/// Everything the framework knows about one token class.
struct TokenTypeInfo {
  std::string name;
  uint64_t id = 0;
  size_t size = 0;
  bool simple = false;  ///< memcpy-serialized (SimpleToken family)
  Token* (*create)() = nullptr;
  void (*serialize)(const Token&, Writer&) = nullptr;
  void (*deserialize)(Token&, Reader&) = nullptr;
  /// Exact payload size serialize() would emit (excludes the type-id tag).
  size_t (*wire_size)(const Token&) = nullptr;
  /// Bytes of the Buffer<T> run serialize() ends with; 0 for simple tokens
  /// and for tokens whose last field is not a Buffer<T>.
  size_t (*tail_run)(const Token&) = nullptr;
};

/// Process-wide id -> TokenTypeInfo map. Thread safe.
class TokenRegistry {
 public:
  static TokenRegistry& instance();

  /// Registers a type; aborts on wire-id collisions between distinct names
  /// (would corrupt the protocol silently otherwise).
  void add(const TokenTypeInfo* info);

  /// Throws Error(kNotFound) for unknown ids.
  const TokenTypeInfo& find(uint64_t id) const;
  const TokenTypeInfo& find_by_name(const std::string& name) const;
  bool contains(uint64_t id) const;
  size_t size() const;

 private:
  TokenRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

/// Serializes a token (dynamic type tag + payload) into the writer.
void serialize_token(const Token& token, Writer& w);

/// Exact number of bytes serialize_token(token, w) appends — the type-id
/// tag plus the payload. Computed arithmetically (no throwaway encode).
size_t serialized_token_size(const Token& token);

/// Bytes of the Buffer<T> run serialize_token(token, w) ends with, which
/// an encoder may leave in place (Writer::defer_run); 0 when the token does
/// not end in a Buffer<T>.
size_t token_tail_run(const Token& token);

/// Reconstructs a token previously written by serialize_token. Throws
/// Error(kNotFound) for unregistered types and Error(kProtocol) for
/// malformed payloads.
Ptr<Token> deserialize_token(Reader& r);

/// Deep-copies a token through a serialize/deserialize round trip — used by
/// the engine when one posted token fans out to several destinations across
/// node boundaries, and handy in tests.
Ptr<Token> clone_token(const Token& token);

namespace detail {

template <class T>
void simple_serialize(const Token& t, Writer& w) {
  // Copy the derived-member region; layout is guarded by the static_asserts
  // on the base classes (no reusable tail padding).
  w.put_raw(reinterpret_cast<const char*>(&t) + sizeof(SimpleToken),
            sizeof(T) - sizeof(SimpleToken));
}

template <class T>
void simple_deserialize(Token& t, Reader& r) {
  r.get_raw(reinterpret_cast<char*>(&t) + sizeof(SimpleToken),
            sizeof(T) - sizeof(SimpleToken));
}

template <class T>
void complex_serialize(const Token& t, Writer& w) {
  FieldTable::of<T>().serialize(static_cast<const T*>(&t), w);
}

template <class T>
void complex_deserialize(Token& t, Reader& r) {
  FieldTable::of<T>().deserialize(static_cast<T*>(&t), r);
}

template <class T>
size_t simple_wire_size(const Token&) {
  return sizeof(T) - sizeof(SimpleToken);
}

template <class T>
size_t complex_wire_size(const Token& t) {
  return FieldTable::of<T>().wire_size(static_cast<const T*>(&t));
}

inline size_t simple_tail_run(const Token&) { return 0; }

template <class T>
size_t complex_tail_run(const Token& t) {
  return FieldTable::of<T>().tail_run(static_cast<const T*>(&t));
}

template <class T>
const TokenTypeInfo& register_token(const char* name) {
  static_assert(std::is_base_of_v<Token, T>,
                "DPS_IDENTIFY is for Token-derived classes");
  static_assert(std::is_default_constructible_v<T>,
                "tokens need a default constructor for the deserialization "
                "factory (give constructor parameters default values, as in "
                "the paper's CharToken)");
  constexpr bool simple = std::is_base_of_v<SimpleToken, T>;
  static const TokenTypeInfo info = [&] {
    TokenTypeInfo i;
    i.name = name;
    i.id = fnv1a(name);
    i.size = sizeof(T);
    i.simple = simple;
    i.create = []() -> Token* { return new T(); };
    if constexpr (simple) {
      i.serialize = &simple_serialize<T>;
      i.deserialize = &simple_deserialize<T>;
      i.wire_size = &simple_wire_size<T>;
      i.tail_run = &simple_tail_run;
    } else {
      i.serialize = &complex_serialize<T>;
      i.deserialize = &complex_deserialize<T>;
      i.wire_size = &complex_wire_size<T>;
      i.tail_run = &complex_tail_run<T>;
    }
    return i;
  }();
  TokenRegistry::instance().add(&info);
  return info;
}

}  // namespace detail
}  // namespace dps

/// Registers the enclosing token class with the framework. Mirrors the
/// paper's `IDENTIFY(CharToken);`. Place it last in the class body (it
/// leaves the access level private).
#define DPS_IDENTIFY(T)                                                   \
 public:                                                                  \
  static const ::dps::TokenTypeInfo& staticTypeInfo() {                   \
    static const ::dps::TokenTypeInfo& info =                             \
        ::dps::detail::register_token<T>(#T);                             \
    return info;                                                          \
  }                                                                       \
  const ::dps::TokenTypeInfo& typeInfo() const override {                 \
    return staticTypeInfo();                                              \
  }                                                                       \
                                                                          \
 private:                                                                 \
  inline static const bool dps_token_registered_ =                        \
      (T::staticTypeInfo(), true)
