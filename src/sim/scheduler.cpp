#include "sim/scheduler.hpp"

#include <atomic>
#include <deque>
#include <limits>
#include <map>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace dps {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

struct SimDomain::Impl {
  enum class State { kRunning, kCharging, kWaiting, kDone };

  struct Actor {
    State state = State::kRunning;
    double wake = 0;
    bool released = false;
    WaitPoint* wp = nullptr;   // valid while kWaiting
    Mutex* wp_mutex = nullptr;  // mutex guarding wp while kWaiting
    int cpu_group = -1;                // -1: unconstrained
    std::string name;
  };

  struct Event {
    double time;
    uint64_t seq;
    std::function<void()> fn;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      return a.time > b.time || (a.time == b.time && a.seq > b.seq);
    }
  };

  Mutex mu;
  CondVar sched_cv;   // wakes the scheduler thread
  CondVar charge_cv;  // wakes charging actors
  // deque: stable references across push_back
  std::deque<Actor> actors DPS_GUARDED_BY(mu);
  int running DPS_GUARDED_BY(mu) = 0;
  double now DPS_GUARDED_BY(mu) = 0;
  std::atomic<double> now_mirror{0};
  uint64_t event_seq DPS_GUARDED_BY(mu) = 0;
  std::atomic<uint64_t> events_done{0};
  std::priority_queue<Event, std::vector<Event>, EventLater> events
      DPS_GUARDED_BY(mu);
  bool stopping DPS_GUARDED_BY(mu) = false;
  std::thread sched_thread;

  // Per-CPU-group processor slots: slot_free[i] is the next instant slot i
  // is idle (same reservation pattern as the link model's NIC timelines).
  int cpus_per_group = 2;
  std::map<int, std::vector<double>> cpu_groups DPS_GUARDED_BY(mu);

  double reserve_cpu_locked(int group, double seconds) DPS_REQUIRES(mu) {
    auto [it, inserted] = cpu_groups.try_emplace(
        group, static_cast<size_t>(cpus_per_group), 0.0);
    std::vector<double>& slots = it->second;
    size_t best = 0;
    for (size_t i = 1; i < slots.size(); ++i) {
      if (slots[i] < slots[best]) best = i;
    }
    const double start = std::max(now, slots[best]);
    slots[best] = start + seconds;
    return slots[best];
  }

  // --- thread-local actor identity -----------------------------------------

  // Each Impl gets a process-unique uid so a stale thread-local from a
  // destroyed domain can never alias a new domain at a reused address.
  static std::atomic<uint64_t>& uid_counter() {
    static std::atomic<uint64_t> c{1};
    return c;
  }
  const uint64_t uid = uid_counter().fetch_add(1);

  struct Tls {
    uint64_t impl_uid = 0;
    uint32_t id = 0;
    int depth = 0;  // re-entrant actor_started/actor_finished nesting
  };
  static Tls& tls() {
    thread_local Tls t;
    return t;
  }

  int reserved DPS_GUARDED_BY(mu) = 0;  // spawn placeholders, runnable

  uint32_t register_actor(const char* name) {
    MutexLock lock(mu);
    actors.push_back(Actor{});
    actors.back().name = name;
    ++running;
    if (reserved > 0) {
      --reserved;
      --running;  // consume the spawn placeholder
    }
    const uint32_t id = static_cast<uint32_t>(actors.size() - 1);
    tls() = Tls{uid, id, 0};
    return id;
  }

  /// Current thread's actor id; auto-registers unknown threads so that a
  /// stray caller cannot corrupt the accounting.
  uint32_t self() {
    Tls& t = tls();
    if (t.impl_uid != uid) return register_actor("auto");
    return t.id;
  }

  void kick_if_idle_locked() DPS_REQUIRES(mu) {
    if (running == 0) sched_cv.notify_one();
  }

  // --- scheduler thread ------------------------------------------------------

  double next_charge_locked() const DPS_REQUIRES(mu) {
    double t = kInf;
    for (const Actor& a : actors) {
      if (a.state == State::kCharging && a.wake < t) t = a.wake;
    }
    return t;
  }

  bool anyone_waiting_locked() const DPS_REQUIRES(mu) {
    for (const Actor& a : actors) {
      if (a.state == State::kWaiting) return true;
    }
    return false;
  }

  void loop() {
    MutexLock lock(mu);
    while (!stopping) {
      sched_cv.wait(mu, [&] {
        return stopping ||
               (running == 0 && (!events.empty() ||
                                 next_charge_locked() != kInf ||
                                 anyone_waiting_locked()));
      });
      if (stopping) break;
      if (running != 0) continue;

      const double t_charge = next_charge_locked();
      const double t_event = events.empty() ? kInf : events.top().time;
      const double t = std::min(t_charge, t_event);

      if (t == kInf) {
        // Full stall with waiters: the schedule is deadlocked.
        handle_stall();
        continue;
      }

      if (t > now) {
        now = t;
        now_mirror.store(now, std::memory_order_relaxed);
        obs::Trace::instance().record(
            obs::EventKind::kSimAdvance, 0,
            static_cast<uint64_t>(now * 1e9), events.size(), 0, 0);
      }

      // Release charging actors that are due.
      bool released_any = false;
      for (Actor& a : actors) {
        if (a.state == State::kCharging && a.wake <= now) {
          a.state = State::kRunning;
          a.released = true;
          ++running;
          released_any = true;
        }
      }
      if (released_any) charge_cv.notify_all();

      // Collect and fire due events (outside the lock: handlers take
      // mailbox locks and call notify_all, which re-locks mu).
      std::vector<std::function<void()>> due;
      while (!events.empty() && events.top().time <= now) {
        due.push_back(std::move(const_cast<Event&>(events.top()).fn));
        events.pop();
      }
      if (!due.empty()) {
        lock.unlock();
        for (auto& fn : due) {
          obs::Trace::instance().record(
              obs::EventKind::kSimEvent, 0,
              static_cast<uint64_t>(now * 1e9), 0, 0, 0);
          fn();
          events_done.fetch_add(1, std::memory_order_relaxed);
        }
        lock.lock();
      }
    }
  }

  // Entered and left with mu held; drops it mid-body to notify the wait
  // sites (lock order everywhere is: waitpoint mutex before mu).
  void handle_stall() DPS_REQUIRES(mu) {
    std::vector<std::pair<WaitPoint*, Mutex*>> sites;
    for (Actor& a : actors) {
      if (a.state == State::kWaiting) {
        bool seen = false;
        for (auto& s : sites) seen = seen || (s.first == a.wp);
        if (!seen) sites.emplace_back(a.wp, a.wp_mutex);
      }
    }
    DPS_ERROR("simulation stalled with " << sites.size()
                                         << " blocked wait site(s)");
    mu.unlock();
    for (auto& [wp, wp_mu] : sites) {
      MutexLock g(*wp_mu);
      wp->stalled = true;
      wp->cv.notify_all();
    }
    mu.lock();
    // The woken actors self-resume (running > 0) and throw kDeadlock; the
    // scheduler simply resumes its loop.
    sched_cv.wait(mu, [&] { return stopping || running > 0; });
  }
};

SimDomain::SimDomain(int cpus_per_group) : impl_(std::make_unique<Impl>()) {
  DPS_CHECK(cpus_per_group >= 1, "a CPU group needs at least one slot");
  impl_->cpus_per_group = cpus_per_group;
  impl_->register_actor("main");
  impl_->sched_thread = std::thread([this] { impl_->loop(); });
}

SimDomain::~SimDomain() { stop(); }

void SimDomain::stop() {
  {
    MutexLock lock(impl_->mu);
    if (impl_->stopping) return;
    impl_->stopping = true;
  }
  impl_->sched_cv.notify_all();
  impl_->charge_cv.notify_all();
  if (impl_->sched_thread.joinable()) impl_->sched_thread.join();
}

double SimDomain::now() const {
  return impl_->now_mirror.load(std::memory_order_relaxed);
}

void SimDomain::charge(double seconds) {
  if (seconds <= 0) return;
  const uint32_t id = impl_->self();
  MutexLock lock(impl_->mu);
  if (impl_->stopping) return;
  Impl::Actor& a = impl_->actors[id];
  a.state = Impl::State::kCharging;
  a.wake = a.cpu_group >= 0
               ? impl_->reserve_cpu_locked(a.cpu_group, seconds)
               : impl_->now + seconds;
  a.released = false;
  --impl_->running;
  impl_->kick_if_idle_locked();
  impl_->charge_cv.wait(impl_->mu,
                        [&] { return a.released || impl_->stopping; });
  if (impl_->stopping && !a.released) {
    // Shutdown path: restore the running state without time accounting.
    a.state = Impl::State::kRunning;
    ++impl_->running;
  }
}

void SimDomain::post_event(double delay, std::function<void()> fn) {
  MutexLock lock(impl_->mu);
  if (impl_->stopping) return;
  impl_->events.push(Impl::Event{impl_->now + (delay > 0 ? delay : 0),
                                 impl_->event_seq++, std::move(fn)});
  // No kick: the poster is a running actor (or the scheduler thread), so
  // the clock cannot be waiting on this event yet.
}

void SimDomain::actor_started(const char* name) {
  Impl::Tls& t = Impl::tls();
  if (t.impl_uid == impl_->uid) {
    // Already an actor of this domain (e.g. ActorScope on the thread that
    // constructed the SimDomain): count the nesting, register nothing.
    ++t.depth;
    return;
  }
  impl_->register_actor(name);
}

void SimDomain::reserve_actor() {
  MutexLock lock(impl_->mu);
  ++impl_->reserved;
  ++impl_->running;
}

void SimDomain::bind_cpu(int group) {
  const uint32_t id = impl_->self();
  MutexLock lock(impl_->mu);
  impl_->actors[id].cpu_group = group;
}

void SimDomain::actor_finished() {
  Impl::Tls& t = Impl::tls();
  if (t.impl_uid == impl_->uid && t.depth > 0) {
    --t.depth;
    return;
  }
  const uint32_t id = impl_->self();
  MutexLock lock(impl_->mu);
  Impl::Actor& a = impl_->actors[id];
  if (a.state == Impl::State::kRunning) --impl_->running;
  a.state = Impl::State::kDone;
  Impl::tls() = Impl::Tls{};
  impl_->kick_if_idle_locked();
}

void SimDomain::wait(WaitPoint& wp, Mutex& mu) {
  const uint32_t id = impl_->self();
  {
    MutexLock g(impl_->mu);
    if (impl_->stopping) {
      // Shutdown: make the enclosing wait_until throw rather than spin.
      wp.stalled = true;
      return;
    }
    Impl::Actor& a = impl_->actors[id];
    a.state = Impl::State::kWaiting;
    a.wp = &wp;
    a.wp_mutex = &mu;
    --impl_->running;
    wp.sim_waiters.push_back(id);
    impl_->kick_if_idle_locked();
  }
  wp.cv.wait(mu);
  {
    MutexLock g(impl_->mu);
    Impl::Actor& a = impl_->actors[id];
    if (a.state == Impl::State::kWaiting) {
      // Spurious or stall wake-up: resume ourselves and let a scheduler
      // parked in handle_stall() observe running > 0.
      a.state = Impl::State::kRunning;
      ++impl_->running;
      impl_->sched_cv.notify_one();
    }
    a.wp = nullptr;
    a.wp_mutex = nullptr;
  }
}

void SimDomain::notify_all(WaitPoint& wp) {
  {
    MutexLock g(impl_->mu);
    for (uint32_t id : wp.sim_waiters) {
      Impl::Actor& a = impl_->actors[id];
      if (a.state == Impl::State::kWaiting && a.wp == &wp) {
        // Pre-credit: the waiter counts as running before the clock can
        // advance past the event that woke it.
        a.state = Impl::State::kRunning;
        ++impl_->running;
      }
    }
  }
  wp.sim_waiters.clear();
  wp.cv.notify_all();
}

uint64_t SimDomain::events_fired() const {
  return impl_->events_done.load(std::memory_order_relaxed);
}

}  // namespace dps
