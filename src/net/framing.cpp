#include "net/framing.hpp"

#include <sys/uio.h>

#include <cstring>
#include <string>

#include "serial/buffer_pool.hpp"
#include "util/error.hpp"

namespace dps {

namespace {
struct WireHeader {
  uint32_t magic;
  uint16_t kind;
  uint16_t reserved;
  uint32_t from;
  uint32_t length;
};
static_assert(sizeof(WireHeader) == 16);

size_t shared_size(const Frame& frame) { return frame.shared.size(); }

/// Rejects a header before anything is allocated for its payload.
void check_header(const WireHeader& h) {
  if (h.magic != kFrameMagic) {
    raise(Errc::kProtocol, "bad frame magic");
  }
  if (h.length > kMaxFrameLength) {
    raise(Errc::kProtocol, "frame length " + std::to_string(h.length) +
                               " exceeds the " +
                               std::to_string(kMaxFrameLength) +
                               "-byte limit");
  }
}

WireHeader make_header(const Frame& frame) {
  WireHeader h{};
  h.magic = kFrameMagic;
  h.kind = static_cast<uint16_t>(frame.kind);
  h.reserved = 0;
  h.from = frame.from;
  h.length = static_cast<uint32_t>(frame.payload.size() + shared_size(frame));
  return h;
}
}  // namespace

SharedPayload share_pooled(std::vector<std::byte> bytes) {
  using Bytes = std::vector<std::byte>;
  return std::shared_ptr<const Bytes>(
      new Bytes(std::move(bytes)), [](const Bytes* p) {
        BufferPool::instance().release(std::move(*const_cast<Bytes*>(p)));
        delete p;
      });
}

size_t frame_wire_size(const Frame& frame) {
  return sizeof(WireHeader) + frame.payload.size() + shared_size(frame);
}

void write_frame(TcpConn& conn, const Frame& frame) {
  WireHeader h = make_header(frame);
  iovec iov[3];
  iov[0].iov_base = &h;
  iov[0].iov_len = sizeof(h);
  size_t cnt = 1;
  if (!frame.payload.empty()) {
    iov[cnt].iov_base = const_cast<std::byte*>(frame.payload.data());
    iov[cnt].iov_len = frame.payload.size();
    ++cnt;
  }
  if (shared_size(frame) > 0) {
    iov[cnt].iov_base = const_cast<std::byte*>(frame.shared.data());
    iov[cnt].iov_len = frame.shared.size();
    ++cnt;
  }
  conn.writev_all(iov, cnt);
}

void write_frames(TcpConn& conn, const Frame* frames, size_t count) {
  if (count == 0) return;
  // Headers live in one contiguous array so their iovecs stay valid for the
  // whole scatter-gather write; payload (and shared-body) iovecs point into
  // the frames.
  std::vector<WireHeader> headers(count);
  std::vector<iovec> iov;
  iov.reserve(3 * count);
  for (size_t i = 0; i < count; ++i) {
    headers[i] = make_header(frames[i]);
    iov.push_back({&headers[i], sizeof(WireHeader)});
    if (!frames[i].payload.empty()) {
      iov.push_back({const_cast<std::byte*>(frames[i].payload.data()),
                     frames[i].payload.size()});
    }
    if (shared_size(frames[i]) > 0) {
      iov.push_back({const_cast<std::byte*>(frames[i].shared.data()),
                     frames[i].shared.size()});
    }
  }
  conn.writev_all(iov.data(), iov.size());
}

bool read_frame(TcpConn& conn, Frame* out) {
  WireHeader h{};
  if (!conn.recv_all(&h, sizeof(h))) return false;
  check_header(h);
  out->kind = static_cast<FrameKind>(h.kind);
  out->from = h.from;
  out->payload.resize(h.length);
  if (h.length > 0 && !conn.recv_all(out->payload.data(), h.length)) {
    raise(Errc::kNetwork, "connection closed mid-frame");
  }
  return true;
}

namespace {
// One refill per chunk: sized so a burst of typical tokens (hundreds of
// bytes to a few kB each) decodes from a single recv, while staying small
// enough for BufferPool to retain the buffer between connections.
constexpr size_t kRxChunkSize = 64 * 1024;
}  // namespace

FrameReader::FrameReader(TcpConn& conn)
    : conn_(conn), buf_(BufferPool::instance().acquire_sized(kRxChunkSize)) {}

FrameReader::~FrameReader() {
  BufferPool::instance().release(std::move(buf_));
}

bool FrameReader::fill() {
  if (pos_ > 0) {
    // Compact the undecoded tail to the front so the recv below can use
    // the whole remaining chunk.
    std::memmove(buf_.data(), buf_.data() + pos_, buffered());
    end_ -= pos_;
    pos_ = 0;
  }
  const size_t n = conn_.recv_some(buf_.data() + end_, buf_.size() - end_);
  ++recv_calls_;
  if (n == 0) return false;  // EOF
  end_ += n;
  return true;
}

bool FrameReader::frame_buffered() const {
  if (buffered() < sizeof(WireHeader)) return false;
  WireHeader h{};
  std::memcpy(&h, buf_.data() + pos_, sizeof(h));
  return buffered() >= sizeof(h) + h.length;
}

bool FrameReader::next(Frame* out) {
  WireHeader h{};
  if (last_bypassed_) {
    // The chunk is empty. Read the next header alone, so a following
    // oversized payload goes straight into its own buffer instead of
    // having its first chunk's worth copied out of the chunk; a frame that
    // fits refills the chunk below as usual.
    ++recv_calls_;
    if (!conn_.recv_all(buf_.data(), sizeof(h))) return false;  // clean EOF
    end_ = sizeof(h);
  }
  while (buffered() < sizeof(h)) {
    if (!fill()) {
      if (buffered() == 0) return false;  // clean EOF at a frame boundary
      raise(Errc::kNetwork, "connection closed mid-frame");
    }
  }
  std::memcpy(&h, buf_.data() + pos_, sizeof(h));
  check_header(h);
  out->kind = static_cast<FrameKind>(h.kind);
  out->from = h.from;
  // Every byte is overwritten below (or the frame is never handed out),
  // so a recycled buffer is not filled first.
  out->payload = BufferPool::instance().acquire_sized(h.length);
  const size_t total = sizeof(h) + h.length;
  last_bypassed_ = total > buf_.size();
  if (!last_bypassed_) {
    // Fits in the chunk: keep refilling so trailing frames of the same
    // burst ride along in the same recv.
    while (buffered() < total) {
      if (!fill()) raise(Errc::kNetwork, "connection closed mid-frame");
    }
    if (h.length > 0) {
      std::memcpy(out->payload.data(), buf_.data() + pos_ + sizeof(h),
                  h.length);
    }
    pos_ += total;
    return true;
  }
  // Oversized frame: move what is buffered, then read the tail straight
  // into the payload buffer (no intermediate copy through the chunk).
  const size_t have = buffered() - sizeof(h);
  if (have > 0) {
    std::memcpy(out->payload.data(), buf_.data() + pos_ + sizeof(h), have);
  }
  pos_ = end_ = 0;
  ++recv_calls_;  // recv_all below is one logical read
  if (h.length > have &&
      !conn_.recv_all(out->payload.data() + have, h.length - have)) {
    raise(Errc::kNetwork, "connection closed mid-frame");
  }
  return true;
}

}  // namespace dps
