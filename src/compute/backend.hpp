// Pluggable leaf-compute backends (HPVM-style kernel seam).
//
// DPS leaf operations spend their cycles inside compute kernels — the Life
// stepper, matrix blocks, frame filters. This seam separates *which
// implementation* of a kernel runs from the flow graph that invokes it: a
// kernel family is a plain struct of function pointers (e.g.
// life::LifeKernel in life/fast_step.hpp), and BackendRegistry<K> holds the
// named implementations plus the active selection. Call sites dispatch
// through `BackendRegistry<K>::active()` and stay oblivious to whether the
// naive reference or an optimized kernel is running underneath.
//
// Selection: an explicit BackendRegistry<K>::select(name) — tests and
// benches — else the registration default (register_backend(...,
// make_default=true)).
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/thread_annotations.hpp"

namespace dps::compute {

/// Named implementations of one kernel family KernelT (a trivially
/// copyable struct of function pointers). One registry instantiation per
/// family; registration happens once at startup from the family's own
/// translation unit (see life::active_life_kernel() for the
/// static-init-order-safe pattern).
template <class KernelT>
class BackendRegistry {
 public:
  struct Entry {
    std::string name;
    KernelT kernel;
  };

  /// Registers `name`; re-registering an existing name is an error.
  /// `make_default` marks this entry as the one active() returns while no
  /// select() is in force.
  static void register_backend(const std::string& name, const KernelT& kernel,
                               bool make_default = false) {
    State& s = state();
    MutexLock lock(s.mu);
    for (const Entry& e : s.entries) {
      DPS_CHECK(e.name != name, "duplicate leaf backend registration");
    }
    s.entries.push_back(Entry{name, kernel});
    if (make_default || s.entries.size() == 1) {
      s.default_index = s.entries.size() - 1;
    }
  }

  /// The kernel registered under `name`, or nullptr when unknown.
  static const KernelT* find(const std::string& name) {
    State& s = state();
    MutexLock lock(s.mu);
    const Entry* e = find_locked(s, name);
    return e != nullptr ? &e->kernel : nullptr;
  }

  static std::vector<std::string> names() {
    State& s = state();
    MutexLock lock(s.mu);
    std::vector<std::string> out;
    out.reserve(s.entries.size());
    for (const Entry& e : s.entries) out.push_back(e.name);
    return out;
  }

  /// Pins this kernel family to `name`, overriding the registration
  /// default. Throws Error(kInvalidArgument) for an unregistered name.
  static void select(const std::string& name) {
    State& s = state();
    MutexLock lock(s.mu);
    const Entry* e = find_locked(s, name);
    if (e == nullptr) {
      throw Error(Errc::kInvalidArgument, "unknown leaf backend: " + name);
    }
    s.selected = e;
  }

  /// Clears an explicit select(); the family follows its registration
  /// default again.
  static void reset_selection() {
    State& s = state();
    MutexLock lock(s.mu);
    s.selected = nullptr;
  }

  /// The active kernel. At least one implementation must be registered.
  static const KernelT& active() {
    State& s = state();
    MutexLock lock(s.mu);
    return active_locked(s).kernel;
  }

  /// Name of the kernel active() would return.
  static std::string active_name() {
    State& s = state();
    MutexLock lock(s.mu);
    return active_locked(s).name;
  }

 private:
  struct State {
    Mutex mu;
    // deque: Entry addresses stay valid across registrations, so pointers
    // returned by find() never dangle.
    std::deque<Entry> entries DPS_GUARDED_BY(mu);
    size_t default_index DPS_GUARDED_BY(mu) = 0;
    const Entry* selected DPS_GUARDED_BY(mu) = nullptr;  ///< select()
  };

  static State& state() {
    static State s;
    return s;
  }

  static const Entry* find_locked(State& s, const std::string& name)
      DPS_REQUIRES(s.mu) {
    for (const Entry& e : s.entries) {
      if (e.name == name) return &e;
    }
    return nullptr;
  }

  static const Entry& active_locked(State& s) DPS_REQUIRES(s.mu) {
    DPS_CHECK(!s.entries.empty(), "no leaf backends registered");
    return s.selected != nullptr ? *s.selected : s.entries[s.default_index];
  }
};

}  // namespace dps::compute
