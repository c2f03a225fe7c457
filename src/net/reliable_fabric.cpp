#include "net/reliable_fabric.hpp"

#include <algorithm>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serial/buffer_pool.hpp"
#include "serial/wire.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"

namespace dps {

namespace {

/// [u64 seq][u64 cumulative ack][u16 inner kind] in front of every
/// kReliable payload.
constexpr size_t kHeaderSize = 2 * sizeof(uint64_t) + sizeof(uint16_t);

/// A fresh kReliable header followed by the frame's owned prefix. Built for
/// every (re)transmit so it always carries the link's current ack; the
/// retained body is never touched.
std::vector<std::byte> wrap(uint64_t seq, uint64_t ack, FrameKind kind,
                            const std::vector<std::byte>& prefix) {
  Writer w(BufferPool::instance().acquire(kHeaderSize + prefix.size()));
  w.put<uint64_t>(seq);
  w.put<uint64_t>(ack);
  w.put<uint16_t>(static_cast<uint16_t>(kind));
  w.put_raw(prefix.data(), prefix.size());
  return w.take();
}

std::vector<std::byte> ack_payload(uint64_t ack) {
  Writer w;
  w.put<uint64_t>(ack);
  return w.take();
}

}  // namespace

ReliableFabric::ReliableFabric(std::shared_ptr<Fabric> inner,
                               size_t node_count, FaultToleranceConfig config)
    : inner_(std::move(inner)), config_(config) {
  DPS_CHECK(inner_ != nullptr, "ReliableFabric needs an inner fabric");
  const double now = mono_seconds();
  endpoints_.reserve(node_count);
  for (size_t i = 0; i < node_count; ++i) {
    auto ep = std::make_unique<Endpoint>();
    MutexLock lock(ep->mu);  // unpublished; satisfies the annotation
    ep->links.resize(node_count);
    for (Link& l : ep->links) l.last_heard = now;
    endpoints_.push_back(std::move(ep));
  }
}

ReliableFabric::~ReliableFabric() { shutdown(); }

ReliableFabric::Endpoint& ReliableFabric::endpoint(NodeId node) {
  if (node >= endpoints_.size()) {
    raise(Errc::kNotFound, "no node " + std::to_string(node) +
                               " on the reliable fabric");
  }
  return *endpoints_[node];
}

void ReliableFabric::attach_batch(NodeId self, BatchHandler handler) {
  Endpoint& ep = endpoint(self);
  {
    MutexLock lock(ep.mu);
    ep.handler = std::move(handler);
  }
  inner_->attach_batch(self, [this, self](std::vector<NodeMessage>&& msgs) {
    on_batch(self, std::move(msgs));
  });
}

void ReliableFabric::shutdown() { inner_->shutdown(); }

// --- Send side -------------------------------------------------------------

void ReliableFabric::send(NodeId from, NodeId to, FrameKind kind,
                          std::vector<std::byte> payload) {
  if (!config_.reliable) {
    inner_->send(from, to, kind, std::move(payload));
    return;
  }
  transmit(from, to, kind, {}, share_pooled(std::move(payload)));
}

void ReliableFabric::send_shared(NodeId from, NodeId to, FrameKind kind,
                                 std::vector<std::byte> prefix,
                                 SharedPayload body) {
  if (!config_.reliable) {
    inner_->send_shared(from, to, kind, std::move(prefix), std::move(body));
    return;
  }
  transmit(from, to, kind, std::move(prefix), std::move(body));
}

uint64_t ReliableFabric::piggyback_locked(Link& l) {
  l.acked_sent = std::max(l.acked_sent, l.rx_contig);
  l.ack_pending = false;
  return l.rx_contig;
}

void ReliableFabric::transmit(NodeId from, NodeId to, FrameKind kind,
                              std::vector<std::byte> prefix,
                              SharedPayload body) {
  Endpoint& ep = endpoint(from);
  std::vector<std::byte> header;
  {
    MutexLock lock(ep.mu);
    if (to >= ep.links.size()) {
      raise(Errc::kNotFound, "no node " + std::to_string(to) +
                                 " on the reliable fabric");
    }
    Link& l = ep.links[to];
    if (l.dead) return;  // peer declared down: the link is a black hole
    const uint64_t seq = l.next_seq++;
    header = wrap(seq, piggyback_locked(l), kind, prefix);
    Pending& p = l.unacked[seq];
    p.kind = kind;
    p.prefix = std::move(prefix);
    p.body = body;
    p.rto = config_.rto_initial;
    p.next_due = mono_seconds() + p.rto;
  }
  ship(from, to, FrameKind::kReliable, std::move(header), std::move(body));
}

void ReliableFabric::ship(NodeId from, NodeId to, FrameKind kind,
                          std::vector<std::byte> bytes, SharedPayload body) {
  try {
    if (body) {
      inner_->send_shared(from, to, kind, std::move(bytes), std::move(body));
    } else {
      inner_->send(from, to, kind, std::move(bytes));
    }
  } catch (const Error& e) {
    // A torn transport is just a lossy link here: the retransmit timer
    // retries until the ack arrives or the peer is declared down.
    DPS_DEBUG("reliable fabric: send " << from << "->" << to
                                       << " failed: " << e.what());
  }
}

// --- Receive side ----------------------------------------------------------

void ReliableFabric::retire_locked(Link& l, uint64_t ack,
                                   std::vector<Pending>* retired) {
  const auto end = l.unacked.upper_bound(ack);
  for (auto it = l.unacked.begin(); it != end; it = l.unacked.erase(it)) {
    retired->push_back(std::move(it->second));
  }
}

ReliableFabric::Verdict ReliableFabric::receive_locked(
    NodeId self, Endpoint& ep, NodeMessage& msg, double now,
    std::vector<Control>* reacks, std::vector<Pending>* retired) {
  const FrameKind kind = msg.kind;
  if (kind != FrameKind::kReliable && kind != FrameKind::kAck &&
      kind != FrameKind::kHeartbeat) {
    return Verdict::kDeliver;
  }
  try {
    if (msg.from >= ep.links.size()) {
      raise(Errc::kProtocol, "unknown node " + std::to_string(msg.from));
    }
    Link& l = ep.links[msg.from];
    Reader r(msg.payload);
    if (kind != FrameKind::kReliable) {  // kAck / kHeartbeat: an ack carrier
      const uint64_t ack = r.get<uint64_t>();
      obs::Trace::instance().record(obs::EventKind::kAckRecv, self, msg.from, 0,
                                    ack, 0);
      retire_locked(l, ack, retired);
      l.last_heard = now;
      return Verdict::kConsumed;
    }
    const uint64_t seq = r.get<uint64_t>();
    const uint64_t ack = r.get<uint64_t>();
    const auto inner = static_cast<FrameKind>(r.get<uint16_t>());
    obs::Trace::instance().record(obs::EventKind::kAckRecv, self, msg.from, 0,
                                  ack, 0);
    retire_locked(l, ack, retired);
    l.last_heard = now;
    if (seq <= l.rx_contig || l.rx_above.count(seq) != 0) {
      // A retransmission that crossed our ack, or an injected copy: drop
      // it and re-send the cumulative ack so the sender stops.
      dup_suppressed_.fetch_add(1, std::memory_order_relaxed);
      if (obs::tracing_active()) {
        obs::Trace::instance().record(obs::EventKind::kDupSuppressed, self,
                                      msg.from, static_cast<uint64_t>(inner),
                                      seq, 0);
        static obs::Counter& dups =
            obs::Metrics::instance().counter("dps.fabric.dup_suppressed");
        dups.inc();
      }
      const uint64_t val = piggyback_locked(l);
      auto it = std::find_if(
          reacks->begin(), reacks->end(),
          [&](const Control& c) { return c.peer == msg.from; });
      if (it != reacks->end()) {
        it->ack = val;
      } else {
        reacks->push_back(Control{msg.from, val});
      }
      return Verdict::kConsumed;
    }
    if (seq == l.rx_contig + 1) {
      ++l.rx_contig;
      while (l.rx_above.erase(l.rx_contig + 1) != 0) ++l.rx_contig;
    } else {
      l.rx_above.insert(seq);
    }
    l.ack_pending = true;  // flushed by the next tick or piggybacked
    msg.kind = inner;
    return Verdict::kUnwrap;
  } catch (const Error& e) {
    // Same policy as a torn stream: the controller reports the sender.
    Writer w;
    w.put_string("malformed frame (kind " +
                 std::to_string(static_cast<int>(kind)) + ") from node " +
                 std::to_string(msg.from) + ": " + e.what());
    msg.kind = FrameKind::kPeerDown;
    msg.payload = w.take();
    return Verdict::kDeliver;
  }
}

void ReliableFabric::on_batch(NodeId self,
                              std::vector<NodeMessage>&& msgs) {
  Endpoint& ep = *endpoints_[self];
  std::vector<Verdict> verdicts(msgs.size());
  std::vector<Control> reacks;  // one per peer: the last ack covers the rest
  std::vector<Pending> retired;
  BatchHandler up;
  {
    MutexLock lock(ep.mu);
    up = ep.handler;
    const double now = mono_seconds();
    for (size_t i = 0; i < msgs.size(); ++i) {
      verdicts[i] = receive_locked(self, ep, msgs[i], now, &reacks, &retired);
    }
  }
  retired.clear();  // acked bodies and the tokens they hold die here
  for (const Control& a : reacks) {
    obs::Trace::instance().record(obs::EventKind::kAckSend, self, a.peer, 0,
                                  a.ack, 0);
    ship(self, a.peer, FrameKind::kAck, ack_payload(a.ack), {});
  }
  // Frames are self-contained engine messages: out-of-order delivery is
  // harmless (merge contexts collect by SplitFrame, not arrival order), so
  // new frames go up at once instead of waiting behind a gap.
  size_t keep = 0;
  for (size_t i = 0; i < msgs.size(); ++i) {
    if (verdicts[i] == Verdict::kConsumed) continue;
    if (verdicts[i] == Verdict::kUnwrap) {
      auto& p = msgs[i].payload;
      p.erase(p.begin(), p.begin() + static_cast<ptrdiff_t>(kHeaderSize));
    }
    // No self-move: libstdc++ empties a vector moved onto itself.
    if (keep != i) msgs[keep] = std::move(msgs[i]);
    ++keep;
  }
  msgs.resize(keep);
  if (!msgs.empty() && up) up(std::move(msgs));
}

// --- Timers, heartbeats, failure -------------------------------------------

std::vector<NodeId> ReliableFabric::tick(NodeId self, double now) {
  struct Out {
    NodeId to;
    FrameKind kind;
    std::vector<std::byte> bytes;
    SharedPayload body;
  };
  std::vector<Out> outs;
  std::vector<NodeId> suspects;
  Endpoint& ep = endpoint(self);
  {
    MutexLock lock(ep.mu);
    for (NodeId peer = 0; peer < ep.links.size(); ++peer) {
      Link& l = ep.links[peer];
      if (peer == self || l.dead) continue;
      if (l.ack_pending && l.rx_contig > l.acked_sent) {
        const uint64_t ack = piggyback_locked(l);
        obs::Trace::instance().record(obs::EventKind::kAckSend, self, peer, 0,
                                      ack, 0);
        outs.push_back({peer, FrameKind::kAck, ack_payload(ack), {}});
      }
      for (auto& [seq, p] : l.unacked) {
        if (p.next_due > now) continue;
        if (p.retries >= config_.max_retries) {
          suspects.push_back(peer);
          break;
        }
        ++p.retries;
        p.rto = std::min(p.rto * 2, config_.rto_max);
        // Deterministic jitter (from the seq, not a clock) de-synchronizes
        // retransmit bursts without breaking run-to-run reproducibility.
        const double jitter =
            0.25 * static_cast<double>((seq * 2654435761ULL) % 97) / 97.0;
        p.next_due = now + p.rto * (1.0 + jitter);
        outs.push_back({peer, FrameKind::kReliable,
                        wrap(seq, piggyback_locked(l), p.kind, p.prefix),
                        p.body});
        retransmissions_.fetch_add(1, std::memory_order_relaxed);
        if (obs::tracing_active()) {
          obs::Trace::instance().record(obs::EventKind::kRetransmit, self,
                                        peer, static_cast<uint64_t>(p.kind),
                                        seq, static_cast<uint64_t>(p.retries));
          static obs::Counter& rtx =
              obs::Metrics::instance().counter("dps.fabric.retransmits");
          rtx.inc();
        }
      }
    }
  }
  for (Out& o : outs) {
    ship(self, o.to, o.kind, std::move(o.bytes), std::move(o.body));
  }
  return suspects;
}

void ReliableFabric::send_heartbeats(NodeId self) {
  std::vector<Control> beacons;
  Endpoint& ep = endpoint(self);
  {
    MutexLock lock(ep.mu);
    for (NodeId peer = 0; peer < ep.links.size(); ++peer) {
      Link& l = ep.links[peer];
      if (peer == self || l.dead) continue;
      beacons.push_back(Control{peer, piggyback_locked(l)});
    }
  }
  for (const Control& b : beacons) {
    obs::Trace::instance().record(obs::EventKind::kHeartbeat, self, b.peer, 0,
                                  b.ack, 0);
    // Best effort: a missed beacon is exactly what detection measures.
    ship(self, b.peer, FrameKind::kHeartbeat, ack_payload(b.ack), {});
  }
}

std::vector<NodeId> ReliableFabric::stale_peers(NodeId self, double now,
                                                double threshold) {
  std::vector<NodeId> stale;
  Endpoint& ep = endpoint(self);
  MutexLock lock(ep.mu);
  for (NodeId peer = 0; peer < ep.links.size(); ++peer) {
    const Link& l = ep.links[peer];
    if (peer == self || l.dead) continue;
    if (now - l.last_heard > threshold) stale.push_back(peer);
  }
  return stale;
}

void ReliableFabric::peer_down(NodeId node) {
  if (node >= endpoints_.size()) return;
  for (auto& ep : endpoints_) {
    std::map<uint64_t, Pending> dropped;
    {
      MutexLock lock(ep->mu);
      Link& l = ep->links[node];
      l.dead = true;
      dropped.swap(l.unacked);
    }
    // `dropped` dies here, outside the lock, recycling the retained bodies.
  }
}

size_t ReliableFabric::unacked_frames() const {
  size_t n = 0;
  for (const auto& ep : endpoints_) {
    MutexLock lock(ep->mu);
    for (const Link& l : ep->links) n += l.unacked.size();
  }
  return n;
}

}  // namespace dps
