// Message framing shared by every DPS channel.
//
// A frame is: magic (u32) | kind (u16) | from-node (u32) | length (u32) |
// payload bytes. The same framing crosses real TCP sockets and the
// in-process serialized channels, so the two fabrics are interchangeable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/socket.hpp"

namespace dps {

/// Logical node index within one cluster run.
using NodeId = uint32_t;

/// Immutable payload bytes kept alive by an owner while frames carrying
/// them are in flight: the multicast body (one encode, K transmits), or the
/// large Buffer<T> tail of a token sent by reference, whose owner holds the
/// token. Receivers always see the frame as one contiguous payload; sharing
/// is a sender-side optimization.
class SharedPayload {
 public:
  SharedPayload() = default;
  /// `size` bytes at `data`, valid for as long as `owner` lives.
  SharedPayload(const std::byte* data, size_t size,
                std::shared_ptr<const void> owner)
      : data_(data), size_(size), owner_(std::move(owner)) {}
  /// All of `*bytes`, which owns them.
  // NOLINTNEXTLINE(google-explicit-constructor)
  SharedPayload(std::shared_ptr<const std::vector<std::byte>> bytes)
      : data_(bytes ? bytes->data() : nullptr),
        size_(bytes ? bytes->size() : 0),
        owner_(std::move(bytes)) {}

  const std::byte* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  explicit operator bool() const { return owner_ != nullptr; }

 private:
  const std::byte* data_ = nullptr;
  size_t size_ = 0;
  std::shared_ptr<const void> owner_;
};

/// Wraps `bytes` as a SharedPayload whose last owner hands the buffer back
/// to the BufferPool.
SharedPayload share_pooled(std::vector<std::byte> bytes);

/// Frame kinds understood by the controller.
enum class FrameKind : uint16_t {
  kEnvelope = 1,   ///< a routed token envelope
  kFlowAck = 2,    ///< split–merge flow-control acknowledgement
  kHello = 3,      ///< connection handshake: announces the sender's NodeId
  kShutdown = 4,   ///< orderly channel teardown
  kCallReply = 5,  ///< final token of a graph call returning to the caller
  // Fault-tolerant delivery (docs/FAULT_TOLERANCE.md):
  kReliable = 6,   ///< seq/ack-wrapped frame carrying one of the kinds above
  kAck = 7,        ///< pure cumulative acknowledgement (u64 ack)
  kHeartbeat = 8,  ///< liveness beacon, carries the link's cumulative ack
  kPeerDown = 9,   ///< synthesized by a fabric: peer channel failed
                   ///< (payload = human-readable reason)
  // Multicast collectives (docs/PERFORMANCE.md):
  kMcastEnvelope = 10,  ///< one envelope body fanned out to K destinations:
                        ///< [u8 0 | u32 n | n x {node,thread,seq} |
                        ///<  envelope body]
};

/// On the wire a frame's payload is `payload` followed by `shared` (when
/// set). The owned part carries per-destination prefixes (headers, seq/ack
/// wraps) or an envelope's encoded head; the shared part is the multicast
/// body encoded exactly once, or a token's large Buffer<T> tail.
struct Frame {
  FrameKind kind = FrameKind::kEnvelope;
  NodeId from = 0;
  std::vector<std::byte> payload;
  SharedPayload shared;  ///< optional trailing segment, shared across frames
};

inline constexpr uint32_t kFrameMagic = 0x44505331;  // "DPS1"

/// Longest frame payload a receiver accepts. A header that claims more is
/// a protocol error, raised before anything is allocated for it, so a
/// corrupt or hostile header cannot make the receiver reserve gigabytes.
/// The largest frames sent in this repository are about 1 MB (fig6's
/// largest block, perfbench's 1024x1024 world scatter).
inline constexpr uint32_t kMaxFrameLength = 256u << 20;  // 256 MiB

/// Size of a frame on the wire, including the header — used by benchmarks
/// to account for DPS control overhead exactly.
size_t frame_wire_size(const Frame& frame);

/// Blocking frame write to a TCP connection (one scatter-gather syscall for
/// header + payload).
void write_frame(TcpConn& conn, const Frame& frame);

/// Coalesced write of `count` frames in order: headers and payloads of the
/// whole batch go out through scatter-gather writes (at most
/// ceil(2*count / IOV_MAX) syscalls) instead of two sends per frame. The
/// byte stream is identical to `count` write_frame calls.
void write_frames(TcpConn& conn, const Frame* frames, size_t count);

/// Blocking frame read. Returns false on clean EOF before a new frame.
/// Throws Error(kProtocol) on bad magic or a length above kMaxFrameLength,
/// Error(kNetwork) on socket errors.
/// One recv per header and one per payload; the hot receive path uses
/// FrameReader instead (one recv per *chunk* of frames).
bool read_frame(TcpConn& conn, Frame* out);

/// Buffered frame decoder over one TCP connection — the RX mirror of
/// write_frames (docs/PERFORMANCE.md). Each refill reads as many bytes as
/// the socket has ready (up to the chunk size) in a single recv, then
/// next() decodes complete frames out of the buffer without further
/// syscalls. frame_buffered() tells the caller when the chunk is exhausted,
/// which is the natural batch boundary for grouped delivery. Frames larger
/// than the chunk bypass the buffer: the payload tail is read directly into
/// the frame's pooled buffer (no double copy).
///
/// After a frame that bypassed the chunk, the next header is read on its
/// own: an oversized payload that follows goes straight into its own
/// buffer and never passes through the chunk, and a frame that fits
/// refills the chunk as usual.
///
/// Owned by one receiver thread; not thread safe. The chunk buffer is
/// recycled through BufferPool on destruction.
class FrameReader {
 public:
  explicit FrameReader(TcpConn& conn);
  ~FrameReader();
  FrameReader(const FrameReader&) = delete;
  FrameReader& operator=(const FrameReader&) = delete;

  /// Same contract as read_frame: false on clean EOF at a frame boundary,
  /// Error(kProtocol) on bad magic or an over-long frame, Error(kNetwork)
  /// on errors / mid-frame EOF. Blocks only when no complete frame is
  /// buffered. The payload is a BufferPool buffer of exactly the frame's
  /// length.
  bool next(Frame* out);

  /// True when a complete frame is already buffered — next() would return
  /// without touching the socket.
  bool frame_buffered() const;

  /// recv syscalls issued so far (dps.rx.* accounting).
  uint64_t recv_calls() const { return recv_calls_; }

 private:
  size_t buffered() const { return end_ - pos_; }
  /// One recv into the chunk buffer (compacting first). Returns false on
  /// EOF.
  bool fill();

  TcpConn& conn_;
  std::vector<std::byte> buf_;  ///< pooled chunk buffer
  size_t pos_ = 0;              ///< next undecoded byte
  size_t end_ = 0;              ///< one past the last received byte
  bool last_bypassed_ = false;  ///< the last frame bypassed the chunk
  uint64_t recv_calls_ = 0;
};

}  // namespace dps
