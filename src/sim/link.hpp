// Modeled network links and the simulated fabric.
//
// SimFabric delivers frames on a virtual clock through a two-resource
// cut-through model: a message from A to B occupies A's transmit NIC for
// size/bandwidth seconds and B's receive NIC for the same span offset by
// `latency` — the receive side streams concurrently with the transmit
// side, so an uncontended transfer completes after latency + size/bw.
// Transmit and receive are independent resources (full-duplex, as on the
// paper's Gigabit Ethernet switch); messages between the same pair keep
// FIFO order by construction (both NIC timelines advance monotonically).
//
// The default parameters reproduce the paper's measured fabric: Figure 6
// shows DPS transfers saturating near 35 MB/s on their Gigabit Ethernet
// cluster (commodity GbE of that era was far from wire speed), and
// footnote-level latencies of commodity clusters were O(100 µs).
#pragma once

#include <memory>

#include "net/fabric.hpp"
#include "sim/domain.hpp"

namespace dps {

/// Point-to-point link parameters.
struct LinkModel {
  double bandwidth_bytes_per_s = 35e6;  ///< effective GbE of the paper
  double latency_s = 100e-6;            ///< one-way message latency
  /// Fixed per-message protocol cost. Calibrated from the paper's own
  /// Figure 6: DPS moves ~5 MB/s at 1 kB tokens, i.e. ~200 us per message
  /// of combined TCP + DPS control overhead on their hardware.
  double per_message_s = 150e-6;
  /// Fixed cost of a frame that finds its NIC already busy. The transport
  /// batches such frames: back-to-back sends leave in one coalesced writev
  /// and back-to-back arrivals decode from one received chunk
  /// (docs/PERFORMANCE.md), so only the first frame of a burst pays the
  /// full syscall + handoff cost; followers pay framing + copy only.
  double per_message_burst_s = 20e-6;

  /// Transfer seconds a `bytes`-sized message occupies an idle NIC.
  double occupancy(size_t bytes) const {
    return per_message_s +
           static_cast<double>(bytes) / bandwidth_bytes_per_s;
  }

  /// Occupancy when the frame rides a burst on an already-busy NIC.
  double occupancy_burst(size_t bytes) const {
    return per_message_burst_s +
           static_cast<double>(bytes) / bandwidth_bytes_per_s;
  }

  /// The paper's cluster fabric.
  static LinkModel gigabit_ethernet() { return LinkModel{}; }

  /// Same-host shared-memory transport (the ShmFabric fast path): memcpy
  /// bandwidth instead of wire bandwidth, sub-microsecond handoff latency,
  /// and a small per-record cost (ring bookkeeping + one futex wake per
  /// burst instead of a syscall per message). Lets simulated deployments
  /// ask "what if these two kernels shared a node?" without real shm.
  static LinkModel shared_memory() {
    LinkModel m;
    m.bandwidth_bytes_per_s = 4e9;  // conservative single-core memcpy
    m.latency_s = 0.5e-6;
    m.per_message_s = 2e-6;       // record header + doorbell wake
    m.per_message_burst_s = 0.3e-6;  // followers: header + copy only
    return m;
  }
};

// Shared-body note: SimFabric does not override Fabric::send_shared —
// multicast bodies and large token tails sent by reference go through the
// default implementation, which copies prefix + body into one frame before
// send(). The simulated cost model only sees frame sizes, so the copy
// changes nothing it measures; the zero-copy iovec path is a
// real-transport (TcpFabric) optimization.
class SimFabric : public Fabric {
 public:
  SimFabric(size_t node_count, ExecDomain& domain, LinkModel link);
  ~SimFabric() override;

  /// Each frame arrives as a batch of one, on the scheduler thread at its
  /// modeled arrival time.
  void attach_batch(NodeId self, BatchHandler handler) override;
  void send(NodeId from, NodeId to, FrameKind kind,
            std::vector<std::byte> payload) override;
  void shutdown() override;
  uint64_t bytes_sent() const override;
  uint64_t messages_sent() const override;

  const LinkModel& link() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dps
