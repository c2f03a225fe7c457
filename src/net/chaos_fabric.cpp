#include "net/chaos_fabric.hpp"

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"

namespace dps {

ChaosFabric::ChaosFabric(std::shared_ptr<Fabric> inner, FaultPlan plan)
    : inner_(std::move(inner)), plan_(std::move(plan)) {
  DPS_CHECK(inner_ != nullptr, "ChaosFabric needs an inner fabric");
  timer_ = std::thread([this] { timer_loop(); });
}

ChaosFabric::~ChaosFabric() { shutdown(); }

void ChaosFabric::attach_batch(NodeId self, BatchHandler handler) {
  inner_->attach_batch(self, std::move(handler));
}

ChaosFabric::LinkState& ChaosFabric::link(NodeId from, NodeId to) {
  MutexLock lock(mu_);
  auto key = std::make_pair(from, to);
  auto it = links_.find(key);
  if (it == links_.end()) {
    auto ls = std::make_unique<LinkState>();
    // Per-link seed: the k-th frame of a link always draws the k-th number
    // of the same stream, independent of other links' traffic.
    ls->rng.seed(plan_.seed ^ (static_cast<uint64_t>(from + 1) << 32) ^
                 (to + 1));
    it = links_.emplace(key, std::move(ls)).first;
  }
  return *it->second;
}

void ChaosFabric::note_drop(FrameKind kind, NodeId from, NodeId to,
                            size_t bytes) {
  dropped_.fetch_add(1, std::memory_order_relaxed);
  dropped_by_kind_[kind_index(kind)].fetch_add(1, std::memory_order_relaxed);
  obs::Trace::instance().record(obs::EventKind::kChaosDrop, from, to,
                                static_cast<uint64_t>(kind), 0, bytes);
}

bool ChaosFabric::severed(NodeId from, NodeId to) const {
  if (killed_.count(from) != 0 || killed_.count(to) != 0) return true;
  auto key = from < to ? std::make_pair(from, to) : std::make_pair(to, from);
  return partitions_.count(key) != 0;
}

void ChaosFabric::send(NodeId from, NodeId to, FrameKind kind,
                       std::vector<std::byte> payload) {
  inject(from, to, kind, std::move(payload), {});
}

void ChaosFabric::send_shared(NodeId from, NodeId to, FrameKind kind,
                              std::vector<std::byte> prefix,
                              SharedPayload body) {
  inject(from, to, kind, std::move(prefix), std::move(body));
}

void ChaosFabric::forward(NodeId from, NodeId to, FrameKind kind,
                          std::vector<std::byte> prefix, SharedPayload body) {
  if (body) {
    inner_->send_shared(from, to, kind, std::move(prefix), std::move(body));
  } else {
    inner_->send(from, to, kind, std::move(prefix));
  }
}

void ChaosFabric::inject(NodeId from, NodeId to, FrameKind kind,
                         std::vector<std::byte> payload, SharedPayload body) {
  const size_t frame_bytes = payload.size() + body.size();
  {
    MutexLock lock(mu_);
    if (down_) return;
    if (severed(from, to)) {
      note_drop(kind, from, to, frame_bytes);
      return;
    }
  }

  const LinkFaults& faults = plan_.for_link(from, to);
  bool drop = false, dup = false;
  double delay = 0, dup_delay = 0;
  {
    LinkState& ls = link(from, to);
    MutexLock lock(ls.mu);
    std::uniform_real_distribution<double> uniform(0.0, 1.0);
    ++ls.frame_count;
    if (faults.drop > 0) drop = uniform(ls.rng) < faults.drop;
    if (faults.duplicate > 0 && uniform(ls.rng) < faults.duplicate) dup = true;
    if (faults.duplicate_every > 0 &&
        ls.frame_count % faults.duplicate_every == 0) {
      dup = true;
    }
    if (faults.delay_max > 0) {
      delay = faults.delay_min +
              uniform(ls.rng) * (faults.delay_max - faults.delay_min);
      dup_delay = faults.delay_min +
                  uniform(ls.rng) * (faults.delay_max - faults.delay_min);
    }
  }
  if (drop) {
    note_drop(kind, from, to, frame_bytes);
    return;
  }
  if (dup) {
    duplicated_.fetch_add(1, std::memory_order_relaxed);
    obs::Trace::instance().record(obs::EventKind::kChaosDup, from, to,
                                  static_cast<uint64_t>(kind), 0, frame_bytes);
    // Only the owned prefix is copied; a duplicated multicast frame keeps
    // sharing the encoded body with the original.
    std::vector<std::byte> copy = payload;
    if (dup_delay > 0) {
      enqueue_delayed({mono_seconds() + dup_delay, 0, from, to, kind,
                       std::move(copy), body});
    } else {
      forward(from, to, kind, std::move(copy), body);
    }
  }
  if (delay > 0) {
    delayed_.fetch_add(1, std::memory_order_relaxed);
    obs::Trace::instance().record(obs::EventKind::kChaosDelay, from, to,
                                  static_cast<uint64_t>(kind),
                                  static_cast<uint64_t>(delay * 1e9),
                                  frame_bytes);
    enqueue_delayed({mono_seconds() + delay, 0, from, to, kind,
                     std::move(payload), std::move(body)});
    return;
  }
  forward(from, to, kind, std::move(payload), std::move(body));
}

void ChaosFabric::enqueue_delayed(Delayed d) {
  MutexLock lock(timer_mu_);
  if (timer_stop_) return;
  d.order = delayed_order_++;
  delayed_queue_.push(std::move(d));
  timer_cv_.notify_all();
}

void ChaosFabric::timer_loop() {
  MutexLock lock(timer_mu_);
  for (;;) {
    if (timer_stop_) return;
    if (delayed_queue_.empty()) {
      timer_cv_.wait(timer_mu_);
      continue;
    }
    const double now = mono_seconds();
    if (delayed_queue_.top().due > now) {
      timer_cv_.wait_for(timer_mu_, std::chrono::duration<double>(
                                        delayed_queue_.top().due - now));
      continue;
    }
    {
      // `d` dies before timer_mu_ is retaken: its body may hold a token.
      Delayed d = delayed_queue_.top();
      delayed_queue_.pop();
      lock.unlock();
      bool cut;
      {
        MutexLock g(mu_);
        cut = down_ || severed(d.from, d.to);
      }
      if (cut) {
        note_drop(d.kind, d.from, d.to, d.payload.size() + d.shared.size());
      } else {
        try {
          forward(d.from, d.to, d.kind, std::move(d.payload),
                  std::move(d.shared));
        } catch (const Error& e) {
          DPS_WARN("chaos fabric: delayed delivery failed: " << e.what());
        }
      }
    }
    lock.lock();
  }
}

void ChaosFabric::kill_node(NodeId node) {
  MutexLock lock(mu_);
  killed_.insert(node);
  DPS_INFO("chaos fabric: node " << node << " killed");
}

void ChaosFabric::partition(NodeId a, NodeId b) {
  MutexLock lock(mu_);
  partitions_.insert(a < b ? std::make_pair(a, b) : std::make_pair(b, a));
}

void ChaosFabric::heal(NodeId a, NodeId b) {
  MutexLock lock(mu_);
  partitions_.erase(a < b ? std::make_pair(a, b) : std::make_pair(b, a));
}

void ChaosFabric::shutdown() {
  {
    MutexLock lock(mu_);
    if (down_) return;
    down_ = true;
  }
  {
    MutexLock lock(timer_mu_);
    timer_stop_ = true;
    timer_cv_.notify_all();
  }
  if (timer_.joinable()) timer_.join();
  inner_->shutdown();
}

}  // namespace dps
