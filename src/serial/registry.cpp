#include "serial/registry.hpp"

#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "util/thread_annotations.hpp"

namespace dps {

struct TokenRegistry::Impl {
  mutable Mutex mu;
  std::unordered_map<uint64_t, const TokenTypeInfo*> by_id DPS_GUARDED_BY(mu);
  std::unordered_map<std::string, const TokenTypeInfo*> by_name
      DPS_GUARDED_BY(mu);
};

TokenRegistry& TokenRegistry::instance() {
  static TokenRegistry reg;
  return reg;
}

TokenRegistry::Impl& TokenRegistry::impl() const {
  static Impl impl;
  return impl;
}

void TokenRegistry::add(const TokenTypeInfo* info) {
  Impl& im = impl();
  MutexLock lock(im.mu);
  auto [it, inserted] = im.by_id.emplace(info->id, info);
  if (!inserted) {
    if (it->second == info) return;  // idempotent re-register of one type
    // Either a hash collision between different names or — far more likely —
    // two distinct C++ classes sharing one unqualified name. Both would make
    // deserialization instantiate the wrong type; fail loudly.
    std::fprintf(stderr,
                 "dps: fatal token-name collision: two distinct classes "
                 "registered as '%s' / '%s'; rename one of them\n",
                 it->second->name.c_str(), info->name.c_str());
    std::abort();
  }
  im.by_name.emplace(info->name, info);
}

const TokenTypeInfo& TokenRegistry::find(uint64_t id) const {
  Impl& im = impl();
  MutexLock lock(im.mu);
  auto it = im.by_id.find(id);
  if (it == im.by_id.end()) {
    raise(Errc::kNotFound,
          "unknown token type id " + std::to_string(id) +
              " (is the class's DPS_IDENTIFY linked into this binary?)");
  }
  return *it->second;
}

const TokenTypeInfo& TokenRegistry::find_by_name(const std::string& name) const {
  Impl& im = impl();
  MutexLock lock(im.mu);
  auto it = im.by_name.find(name);
  if (it == im.by_name.end()) {
    raise(Errc::kNotFound, "unknown token type '" + name + "'");
  }
  return *it->second;
}

bool TokenRegistry::contains(uint64_t id) const {
  Impl& im = impl();
  MutexLock lock(im.mu);
  return im.by_id.count(id) != 0;
}

size_t TokenRegistry::size() const {
  Impl& im = impl();
  MutexLock lock(im.mu);
  return im.by_id.size();
}

void serialize_token(const Token& token, Writer& w) {
  const TokenTypeInfo& info = token.typeInfo();
  w.put(info.id);
  info.serialize(token, w);
}

size_t serialized_token_size(const Token& token) {
  const TokenTypeInfo& info = token.typeInfo();
  return sizeof(info.id) + info.wire_size(token);
}

size_t token_tail_run(const Token& token) {
  return token.typeInfo().tail_run(token);
}

Ptr<Token> deserialize_token(Reader& r) {
  const uint64_t id = r.get<uint64_t>();
  const TokenTypeInfo& info = TokenRegistry::instance().find(id);
  Ptr<Token> token(info.create());
  info.deserialize(*token, r);
  return token;
}

Ptr<Token> clone_token(const Token& token) {
  Writer w;
  serialize_token(token, w);
  Reader r(w.bytes());
  return deserialize_token(r);
}

}  // namespace dps
