#include "net/tcp_transport.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serial/buffer_pool.hpp"
#include "serial/wire.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace dps {

TcpFabric::TcpFabric(size_t node_count) {
  nodes_.reserve(node_count);
  for (size_t i = 0; i < node_count; ++i) {
    auto end = std::make_unique<NodeEnd>();
    end->listener = TcpListener::bind(0);
    nodes_.push_back(std::move(end));
  }
  // Acceptors start immediately; handlers may attach slightly later, and
  // receiver loops wait for the handler before dispatching.
  for (size_t i = 0; i < node_count; ++i) {
    nodes_[i]->acceptor =
        std::thread([this, i] { acceptor_loop(static_cast<NodeId>(i)); });
  }
}

TcpFabric::~TcpFabric() { shutdown(); }

void TcpFabric::attach_batch(NodeId self, BatchHandler handler) {
  MutexLock lock(mu_);
  DPS_CHECK(self < nodes_.size(), "attach_batch: node id out of range");
  nodes_[self]->handler = std::move(handler);
}

void TcpFabric::set_node_names(std::vector<std::string> names) {
  MutexLock lock(mu_);
  names_ = std::move(names);
}

std::string TcpFabric::node_label(NodeId node) const {
  if (node < names_.size()) {
    return "node '" + names_[node] + "' (id " + std::to_string(node) + ")";
  }
  return "node " + std::to_string(node);
}

uint16_t TcpFabric::port_of(NodeId node) const {
  DPS_CHECK(node < nodes_.size(), "port_of: node id out of range");
  return nodes_[node]->listener.port();
}

void TcpFabric::acceptor_loop(NodeId self) {
  for (;;) {
    TcpConn conn = nodes_[self]->listener.accept();
    if (!conn.valid()) return;  // listener closed: shutting down
    auto shared = std::make_shared<TcpConn>(std::move(conn));
    // Registered even while shutting down: a sender draining its queue may
    // have a connection waiting in the backlog, and its frames must still
    // be delivered. shutdown() joins this acceptor before it collects
    // receivers_, so no registration races the final join.
    MutexLock lock(mu_);
    receivers_.emplace_back(
        [this, self, shared] { receiver_loop(self, shared); });
  }
}

void TcpFabric::receiver_loop(NodeId self, std::shared_ptr<TcpConn> conn) {
  // The buffered reader turns the old two-recvs-per-frame pattern into one
  // recv per chunk: the hello below and the first data frames of the burst
  // typically decode from a single syscall (docs/PERFORMANCE.md).
  FrameReader reader(*conn);
  Frame hello;
  try {
    if (!reader.next(&hello) || hello.kind != FrameKind::kHello) {
      DPS_WARN("tcp fabric: connection without hello, dropping");
      return;
    }
  } catch (const Error&) {
    DPS_WARN("tcp fabric: connection torn during hello, dropping");
    return;
  }
  // Every later frame of the connection is tagged with this id, and the
  // controller trusts it: a peer that names a node outside the fabric is
  // refused like one that sends no hello at all.
  const NodeId peer = hello.from;
  if (peer >= nodes_.size()) {
    DPS_WARN("tcp fabric: hello from node " << peer << " of a "
                                            << nodes_.size()
                                            << "-node fabric, dropping");
    return;
  }
  BatchHandler handler;
  {
    MutexLock lock(mu_);
    handler = nodes_[self]->handler;
  }
  DPS_CHECK(static_cast<bool>(handler), "receiver started before attach");

  // Folded in when the connection ends, whichever exit path it takes.
  struct RecvCalls {
    FrameReader& r;
    ~RecvCalls() {
      if (obs::tracing_active()) {
        static obs::Counter& c =
            obs::Metrics::instance().counter("dps.rx.recv_calls");
        c.inc(r.recv_calls());
      }
    }
  } recv_calls_scope{reader};

  // Frames decoded from the current chunk, delivered together when the
  // chunk is exhausted: one grouped handoff (one controller inbox append +
  // notify per destination worker) instead of one per frame.
  std::vector<NodeMessage> batch;
  size_t batch_bytes = 0;
  auto flush = [&] {
    if (batch.empty()) return;
    // Handed off before the handler runs, so no path can deliver the same
    // frames twice.
    std::vector<NodeMessage> out = std::exchange(batch, {});
    const size_t count = out.size();
    const bool t_on = obs::tracing_active();
    if (t_on) {
      obs::Trace::instance().record(obs::EventKind::kRxBatchStart, peer, self,
                                    count, batch_bytes, 0);
    }
    handler(std::move(out));
    if (t_on) {
      obs::Trace::instance().record(obs::EventKind::kRxBatchEnd, peer, self,
                                    count, batch_bytes, 0);
      static obs::Counter& batches =
          obs::Metrics::instance().counter("dps.rx.batches");
      batches.inc();
      static obs::Histogram& frames_hist =
          obs::Metrics::instance().histogram("dps.rx.batch_frames");
      frames_hist.observe(count);
      static obs::Histogram& bytes_hist =
          obs::Metrics::instance().histogram("dps.rx.batch_bytes");
      bytes_hist.observe(batch_bytes);
    }
    batch_bytes = 0;
  };

  // A healthy peer ends the stream with an explicit kShutdown frame. EOF
  // without it — at a frame boundary or mid-frame — means the peer died or
  // the connection broke: surface it instead of going quiet.
  std::string torn;
  try {
    Frame f;
    for (;;) {
      if (!reader.next(&f)) {
        torn = "connection closed without shutdown frame";
        break;
      }
      if (f.kind == FrameKind::kShutdown) {  // clean close
        flush();
        return;
      }
      obs::Trace::instance().record(obs::EventKind::kTransportRecv, self, peer,
                                    static_cast<uint64_t>(f.kind), 0,
                                    f.payload.size());
      batch_bytes += frame_wire_size(f);
      batch.push_back(NodeMessage{peer, f.kind, std::move(f.payload)});
      // Chunk exhausted (next frame would block): natural batch boundary.
      if (!reader.frame_buffered()) flush();
    }
  } catch (const Error& e) {
    torn = e.what();  // partial frame, bad magic, socket error
  }
  flush();  // frames that decoded cleanly before the tear still count
  std::string reason;
  {
    MutexLock lock(mu_);
    if (down_) return;  // our own shutdown raced the read: not an error
    reason = to_string(Errc::kProtocol) + std::string(": torn stream from ") +
             node_label(peer) + " to " + node_label(self) + ": " + torn;
  }
  DPS_ERROR("tcp fabric: " << reason);
  // Hand the failure to the node's controller as a peer-down report so the
  // engine can fail calls / trigger recovery rather than hang.
  Writer w;
  w.put_string(reason);
  std::vector<NodeMessage> report;
  report.push_back(NodeMessage{peer, FrameKind::kPeerDown, w.take()});
  handler(std::move(report));
}

void TcpFabric::sender_loop(OutConn& oc) {
  if (obs::tracing_active()) {
    obs::Trace::instance().set_thread_name(
        "tx " + std::to_string(oc.from) + "->" + std::to_string(oc.to));
  }
  // Lazy connect (the paper's delayed connection strategy), off the
  // producer's thread: the first enqueue created this link, the connect and
  // hello happen here while the producer continues computing.
  try {
    oc.conn = TcpConn::connect("127.0.0.1", oc.port);
    Frame hello;
    hello.kind = FrameKind::kHello;
    hello.from = oc.from;
    write_frame(oc.conn, hello);
  } catch (const Error& e) {
    // Frames may hold tokens (a body sent by reference): they are destroyed
    // after oc.mu is released, with `undeliverable`.
    std::deque<Frame> undeliverable;
    MutexLock lock(oc.mu);
    if (!oc.closed) {
      DPS_WARN("tcp fabric: connect " << oc.from << "->" << oc.to
                                      << " failed: " << e.what());
    }
    oc.failed = true;
    undeliverable.swap(oc.queue);
    oc.queued_bytes = 0;
    oc.space.notify_all();
  }
  std::deque<Frame> batch;
  for (;;) {
    {
      MutexLock lock(oc.mu);
      oc.data.wait(oc.mu, [&] { return !oc.queue.empty() || oc.closed; });
      if (oc.queue.empty()) break;  // closed and drained
      batch.swap(oc.queue);
      oc.queued_bytes = 0;
    }
    // Budget freed: wake every producer blocked on backpressure.
    oc.space.notify_all();
    size_t batch_bytes = 0;
    const bool t_on = obs::tracing_active();
    if (t_on) {
      for (const Frame& f : batch) batch_bytes += frame_wire_size(f);
      obs::Trace::instance().record(obs::EventKind::kTxBatchStart, oc.from,
                                    oc.to, batch.size(), batch_bytes, 0);
    }
    bool wrote = false;
    try {
      // The coalesced write: every pending frame for this peer leaves in
      // one scatter-gather batch. deque storage is chunked, so frames are
      // handed over as a contiguous copy of Frame headers — the payloads
      // themselves are not copied (iovecs point at them).
      std::vector<Frame> contiguous(std::make_move_iterator(batch.begin()),
                                    std::make_move_iterator(batch.end()));
      write_frames(oc.conn, contiguous.data(), contiguous.size());
      wrote = true;
      // Encode buffers go back to the pool now that the bytes are on the
      // wire (docs/PERFORMANCE.md: buffer-pool lifecycle).
      for (Frame& f : contiguous) {
        BufferPool::instance().release(std::move(f.payload));
      }
    } catch (const Error& e) {
      std::deque<Frame> undeliverable;  // destroyed after oc.mu is released
      MutexLock lock(oc.mu);
      if (!oc.closed && !oc.failed) {
        DPS_WARN("tcp fabric: send " << oc.from << "->" << oc.to
                                     << " failed: " << e.what());
      }
      oc.failed = true;
      undeliverable.swap(oc.queue);  // peer's receiver reports the tear
      oc.queued_bytes = 0;
      oc.space.notify_all();
    }
    if (t_on) {
      obs::Trace::instance().record(obs::EventKind::kTxBatchEnd, oc.from,
                                    oc.to, batch.size(), batch_bytes,
                                    wrote ? 1 : 0);
      static obs::Counter& writevs =
          obs::Metrics::instance().counter("dps.tx.writev_batches");
      writevs.inc();
      static obs::Histogram& frames_hist =
          obs::Metrics::instance().histogram("dps.tx.batch_frames");
      frames_hist.observe(batch.size());
      static obs::Histogram& bytes_hist =
          obs::Metrics::instance().histogram("dps.tx.batch_bytes");
      bytes_hist.observe(batch_bytes);
    }
    batch.clear();
  }
  // Closed and fully drained: announce the planned close so the peer's
  // receiver can tell it from a torn stream, then close the socket.
  bool announce;
  {
    MutexLock lock(oc.mu);
    announce = !oc.failed;
  }
  if (announce) {
    Frame bye;
    bye.kind = FrameKind::kShutdown;
    bye.from = oc.from;
    try {
      write_frame(oc.conn, bye);
      // Wait for the peer to close: its receiver only closes the socket
      // after it has read — and delivered — every frame up to the bye, so
      // this EOF is the drain barrier shutdown() joins on. Written bytes
      // alone prove nothing (they may still sit in a socket buffer or an
      // unaccepted backlog connection).
      char sink;
      while (oc.conn.recv_all(&sink, 1)) {
      }
    } catch (const Error&) {
      // peer already gone; its receiver reported the torn stream
    }
  }
  oc.conn.close();  // unblocks the peer's receiver
}

TcpFabric::OutConn& TcpFabric::out_conn(NodeId from, NodeId to) {
  MutexLock lock(mu_);
  auto key = std::make_pair(from, to);
  auto it = out_.find(key);
  if (it != out_.end()) return *it->second;
  if (down_) raise(Errc::kNetwork, "fabric is shut down");
  // The sender thread performs the (possibly blocking) connect and hello,
  // so the link is registered atomically under mu_: concurrent first sends
  // can never race two half-open connections against each other.
  auto oc = std::make_unique<OutConn>();
  oc->from = from;
  oc->to = to;
  oc->port = nodes_[to]->listener.port();
  oc->queue_limit = queue_limit_.load(std::memory_order_relaxed);
  OutConn* raw = oc.get();
  it = out_.emplace(key, std::move(oc)).first;
  raw->sender = std::thread([this, raw] { sender_loop(*raw); });
  return *it->second;
}

void TcpFabric::send(NodeId from, NodeId to, FrameKind kind,
                     std::vector<std::byte> payload) {
  Frame f;
  f.kind = kind;
  f.from = from;
  f.payload = std::move(payload);
  enqueue_frame(from, to, std::move(f));
}

void TcpFabric::send_shared(NodeId from, NodeId to, FrameKind kind,
                            std::vector<std::byte> prefix, SharedPayload body) {
  Frame f;
  f.kind = kind;
  f.from = from;
  f.payload = std::move(prefix);
  f.shared = std::move(body);
  enqueue_frame(from, to, std::move(f));
}

void TcpFabric::enqueue_frame(NodeId from, NodeId to, Frame f) {
  OutConn& oc = out_conn(from, to);
  const FrameKind kind = f.kind;
  const size_t wire = frame_wire_size(f);
  {
    MutexLock lock(oc.mu);
    // Backpressure: block while the byte budget is exhausted. The budget is
    // a soft bound (one frame may overshoot it) so frames larger than the
    // whole budget still make progress.
    oc.space.wait(oc.mu, [&] {
      return oc.queued_bytes < oc.queue_limit || oc.closed || oc.failed;
    });
    // Checked under oc.mu: a send either fully precedes the queue close or
    // observes `closed` — the sender thread drains everything enqueued
    // before the shutdown frame, so accepted frames are never lost.
    if (oc.closed) raise(Errc::kNetwork, "fabric is shut down");
    if (oc.failed) {
      raise(Errc::kNetwork, "connection " + std::to_string(from) + "->" +
                                std::to_string(to) + " failed");
    }
    oc.queue.push_back(std::move(f));
    oc.queued_bytes += wire;
    messages_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(wire, std::memory_order_relaxed);
    if (obs::tracing_active()) {
      obs::Trace::instance().record(obs::EventKind::kTransportSend, from, to,
                                    static_cast<uint64_t>(kind),
                                    oc.queue.size(), wire);
      static obs::Gauge& depth =
          obs::Metrics::instance().gauge("dps.tx.queue_bytes");
      depth.set(static_cast<int64_t>(oc.queued_bytes));
      depth.update_max(static_cast<int64_t>(oc.queued_bytes));
    }
  }
  oc.data.notify_one();
}

void TcpFabric::shutdown() {
  std::vector<OutConn*> conns;
  {
    MutexLock lock(mu_);
    if (down_) return;
    down_ = true;  // no new out-connections; torn-stream reports go quiet
    for (auto& [key, oc] : out_) conns.push_back(oc.get());
  }
  // Stop accepting new frames; senders drain what is queued, append the
  // shutdown announcement, and block until the peer's receiver has consumed
  // the stream (EOF barrier in sender_loop). Listeners and acceptors stay
  // up throughout so a connection still sitting in a backlog is accepted,
  // read, and delivered rather than torn down.
  for (OutConn* oc : conns) {
    {
      MutexLock lock(oc->mu);
      oc->closed = true;
    }
    oc->data.notify_all();
    oc->space.notify_all();
  }
  for (OutConn* oc : conns) {
    if (oc->sender.joinable()) oc->sender.join();
  }
  for (auto& node : nodes_) node->listener.close();
  for (auto& node : nodes_) {
    if (node->acceptor.joinable()) node->acceptor.join();
  }
  std::vector<std::thread> receivers;
  {
    MutexLock lock(mu_);
    receivers.swap(receivers_);
  }
  for (auto& r : receivers) {
    if (r.joinable()) r.join();
  }
}

uint64_t TcpFabric::bytes_sent() const {
  return bytes_.load(std::memory_order_relaxed);
}
uint64_t TcpFabric::messages_sent() const {
  return messages_.load(std::memory_order_relaxed);
}

}  // namespace dps
