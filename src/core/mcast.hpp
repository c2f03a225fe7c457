// Multicast collectives: wire codec.
//
// A kMcastEnvelope frame carries one envelope body (encoded exactly once,
// into one pooled buffer) to the destination threads of the node that
// receives it:
//
//   u8 0 | u32 n | n x { u32 node | u32 thread | u32 seq } | body
//
// Fan-out is flat: the poster sends every destination node its own frame,
// so per-link FIFO with ordinary unicast envelopes holds, and every entry
// names the receiving node. The leading byte once selected a relay
// topology; it is always 0, so the frame layout is unchanged.
//
// The body is a regular Envelope encode with placeholder thread/seq; each
// receiver stamps its own entry's thread and split-frame seq into a copy.
// The header is tiny and owned per frame; the body is a SharedPayload so
// every transmit of the collective points at the same bytes
// (docs/PERFORMANCE.md).
#pragma once

#include <cstdint>
#include <vector>

#include "net/framing.hpp"
#include "serial/wire.hpp"

namespace dps {

/// One destination of a multicast: the receiving node, the destination
/// thread within the target collection, and the split-frame sequence number
/// assigned by the poster.
struct McastEntry {
  uint32_t node = 0;
  uint32_t thread = 0;
  uint32_t seq = 0;
};
static_assert(sizeof(McastEntry) == 12, "packed wire layout");

/// Destinations on one node, in posting order.
struct McastGroup {
  NodeId node = 0;
  std::vector<McastEntry> entries;
};

/// Exact encoded size of the multicast header for `n` entries.
inline size_t mcast_header_size(size_t n) {
  return 1 + 4 + n * sizeof(McastEntry);
}

inline void encode_mcast_header(Writer& w, const McastEntry* entries,
                                size_t n) {
  w.put(uint8_t{0});
  w.put(static_cast<uint32_t>(n));
  w.put_raw(entries, n * sizeof(McastEntry));
}

/// Decodes the header, leaving the reader positioned at the envelope body.
inline std::vector<McastEntry> decode_mcast_header(Reader& r) {
  if (r.get<uint8_t>() != 0) {
    raise(Errc::kProtocol, "unknown multicast topology");
  }
  const auto n = r.get<uint32_t>();
  r.require_count(n, sizeof(McastEntry));
  std::vector<McastEntry> entries(n);
  r.get_raw(entries.data(), n * sizeof(McastEntry));
  return entries;
}

}  // namespace dps
