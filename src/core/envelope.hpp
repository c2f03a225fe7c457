// Token envelopes — the control structure that travels with every token.
//
// "Data objects transferred over the network incorporate control structures
// giving information about their state and position within the flow graph."
// (paper, section 4). The envelope records the destination vertex/thread,
// the stack of split frames (one per enclosing split/stream construct,
// which is how nested split–merge constructs and context-complete detection
// work), and graph-call bookkeeping. Within one node envelopes move by
// pointer; across nodes they serialize through encode()/decode().
#pragma once

#include <string>
#include <vector>

#include "core/ids.hpp"
#include "net/framing.hpp"
#include "serial/registry.hpp"
#include "serial/wire.hpp"

namespace dps {

/// One level of split/stream nesting.
struct SplitFrame {
  ContextId context = 0;  ///< id of the split execution (= flow account id)
  uint32_t seq = 0;       ///< this token's index within the split
  uint8_t has_total = 0;  ///< carried by the last token the split posted
  uint32_t total = 0;     ///< number of tokens the split posted
  NodeId split_node = 0;  ///< node to send flow-control acks to
};
static_assert(std::is_trivially_copyable_v<SplitFrame>);

/// A kFlowAck frame: `n` tokens of split context `context` were consumed,
/// so the split's node gets `n` flow-control credits back.
///
///   u64 context | u32 n
struct FlowAck {
  ContextId context = 0;
  uint32_t n = 0;
};

/// Exact size of a kFlowAck payload.
inline constexpr size_t kFlowAckSize = sizeof(ContextId) + sizeof(uint32_t);

inline void encode_flow_ack(Writer& w, const FlowAck& ack) {
  w.put(ack.context);
  w.put(ack.n);
}

/// Decodes a whole kFlowAck payload: exactly kFlowAckSize bytes, else
/// Error(kProtocol).
inline FlowAck decode_flow_ack(Reader& r) {
  if (r.remaining() != kFlowAckSize) {
    raise(Errc::kProtocol, "flow ack of " + std::to_string(r.remaining()) +
                               " bytes, expected " +
                               std::to_string(kFlowAckSize));
  }
  FlowAck ack;
  ack.context = r.get<ContextId>();
  ack.n = r.get<uint32_t>();
  return ack;
}

/// An envelope encoded for another node: Envelope::encode()'s bytes are
/// `head` followed by `tail`.
struct WireEnvelope {
  std::vector<std::byte> head;
  /// The token's closing Buffer<T> run, by reference, when it holds at
  /// least kPooledBlockBytes: it points into the token and keeps it alive.
  /// Otherwise empty, and `head` holds every byte.
  SharedPayload tail;
};

struct Envelope {
  AppId app = 0;
  GraphId graph = 0;
  VertexId vertex = kNoVertex;  ///< destination vertex; kNoVertex = call reply
  CollectionId collection = 0;
  ThreadIndex thread = 0;
  CallId call = 0;              ///< graph-call id the token belongs to
  NodeId call_reply_node = 0;   ///< where the final result must return
  TenantId tenant = kNoTenant;  ///< traffic class of the originating call
  std::vector<SplitFrame> frames;
  Ptr<Token> token;
  /// The token came from a multicast, whose receivers on one node share
  /// the object, so its receiver may not repost it. Kept in memory only;
  /// encode() does not write it.
  bool shared = false;

  /// Innermost split frame (engine invariant: present at merge/stream).
  SplitFrame& top_frame();
  const SplitFrame& top_frame() const;

  void encode(Writer& w) const;
  /// encode() for a frame: one exact-size head, plus the token's large
  /// closing Buffer<T> by reference, so the sender copies it only into the
  /// socket or ring. A run that ends the envelope is what a receiver
  /// adopts, so the two thresholds are one (kPooledBlockBytes).
  WireEnvelope encode_for_wire() const;
  /// Decodes the rest of `r`, which must be exactly one envelope: bytes
  /// left after it raise Error(kProtocol).
  static Envelope decode(Reader& r);

  /// Serialized size without building the buffer twice (bench accounting).
  size_t encoded_size() const;
};

}  // namespace dps
