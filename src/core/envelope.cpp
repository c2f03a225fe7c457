#include "core/envelope.hpp"

#include <memory>
#include <string>

#include "serial/buffer_pool.hpp"
#include "util/error.hpp"

namespace dps {

SplitFrame& Envelope::top_frame() {
  DPS_CHECK(!frames.empty(), "envelope has no split frame");
  return frames.back();
}

const SplitFrame& Envelope::top_frame() const {
  DPS_CHECK(!frames.empty(), "envelope has no split frame");
  return frames.back();
}

void Envelope::encode(Writer& w) const {
  w.put(app);
  w.put(graph);
  w.put(vertex);
  w.put(collection);
  w.put(thread);
  w.put(call);
  w.put(call_reply_node);
  w.put(tenant);
  w.put(static_cast<uint32_t>(frames.size()));
  for (const SplitFrame& f : frames) w.put(f);
  DPS_CHECK(token.get() != nullptr, "encoding an envelope without a token");
  serialize_token(*token, w);
}

WireEnvelope Envelope::encode_for_wire() const {
  // encoded_size is arithmetic, so the head is sized exactly and Writer
  // never reallocates mid-encode.
  const size_t size = encoded_size();
  size_t tail = token_tail_run(*token);
  if (tail < kPooledBlockBytes) tail = 0;
  Writer w(BufferPool::instance().acquire(size - tail));
  if (tail > 0) w.defer_run(size - tail, tail);
  encode(w);
  BufferPool::instance().note_growth(w.growth_count());
  WireEnvelope out;
  if (w.run() != nullptr) {
    out.tail = SharedPayload(w.run(), w.run_size(),
                             std::make_shared<const Ptr<Token>>(token));
  }
  out.head = w.take();
  return out;
}

Envelope Envelope::decode(Reader& r) {
  Envelope e;
  e.app = r.get<AppId>();
  e.graph = r.get<GraphId>();
  e.vertex = r.get<VertexId>();
  e.collection = r.get<CollectionId>();
  e.thread = r.get<ThreadIndex>();
  e.call = r.get<CallId>();
  e.call_reply_node = r.get<NodeId>();
  e.tenant = r.get<TenantId>();
  const uint32_t n = r.get<uint32_t>();
  r.require_count(n, sizeof(SplitFrame));
  e.frames.resize(n);
  for (uint32_t i = 0; i < n; ++i) e.frames[i] = r.get<SplitFrame>();
  e.token = deserialize_token(r);
  if (!r.at_end()) {
    raise(Errc::kProtocol, std::to_string(r.remaining()) +
                               " trailing bytes after an envelope");
  }
  return e;
}

size_t Envelope::encoded_size() const {
  // Arithmetic mirror of encode(): the send path sizes one exact-capacity
  // buffer from this, so the two functions must stay in lockstep.
  DPS_CHECK(token.get() != nullptr, "sizing an envelope without a token");
  return sizeof(AppId) + sizeof(GraphId) + sizeof(VertexId) +
         sizeof(CollectionId) + sizeof(ThreadIndex) + sizeof(CallId) +
         sizeof(NodeId) + sizeof(TenantId) + sizeof(uint32_t) +
         frames.size() * sizeof(SplitFrame) + serialized_token_size(*token);
}

}  // namespace dps
