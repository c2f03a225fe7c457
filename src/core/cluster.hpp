// Cluster: one run's nodes, fabric, time domain, and shared registries.
//
// A Cluster stands for the set of machines the paper's kernels run on. The
// deployment mode is chosen at construction:
//
//   * ClusterConfig::inproc(n)    — n thread-group nodes, serialized
//                                   in-memory channels, wall clock (the
//                                   paper's multi-kernel debug deployment);
//   * ClusterConfig::tcp(n)       — same nodes, real TCP sockets on
//                                   loopback, wall clock;
//   * ClusterConfig::simulated(n) — virtual time + modeled Gigabit
//                                   Ethernet; reproduces the paper's
//                                   8-node cluster timing on one core.
//
// Everything engine-level that is cluster-global lives here: node naming,
// the controllers, application and thread-collection registries, the
// graph-call table, the parallel-service name registry, and the
// merge-context claim diagnostics.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/call.hpp"
#include "core/ids.hpp"
#include "core/mcast.hpp"
#include "core/tenant.hpp"
#include "net/fabric.hpp"
#include "util/thread_annotations.hpp"
#include "net/name_registry.hpp"
#include "net/reliable_fabric.hpp"
#include "sim/link.hpp"

namespace dps {

class Application;
class Controller;
class ThreadCollectionBase;

struct ClusterConfig {
  enum class FabricKind { kInproc, kTcp, kSim, kShm };

  std::vector<std::string> nodes;  ///< node names; size = node count
  FabricKind fabric = FabricKind::kInproc;
  LinkModel link = LinkModel::gigabit_ethernet();  ///< kSim only

  /// When set, overrides `fabric`: the cluster uses this transport (wall
  /// clock). Used by the multi-process SPMD runtime.
  std::shared_ptr<Fabric> external_fabric;

  /// Multi-process mode: only this node's workers live in this process;
  /// thread collections skip spawning for other nodes. Unset = all local.
  std::optional<NodeId> local_node;
  /// Split–merge flow-control window: max tokens in circulation between one
  /// split/stream execution and its merge (paper, "Flow control and load
  /// balancing"). Generous default; benchmarks sweep it explicitly.
  uint32_t flow_window = 1u << 16;

  /// Virtual-time mode: processor slots per node. The paper's cluster is
  /// made of bi-processor Pentium III machines.
  int sim_cpus_per_node = 2;

  /// Reliable delivery + failure detection (net/reliable_fabric.hpp; off
  /// by default: fault-free fabrics pay zero overhead and keep their exact
  /// frame accounting).
  FaultToleranceConfig fault;

  static ClusterConfig inproc(int node_count);
  static ClusterConfig tcp(int node_count);
  static ClusterConfig simulated(
      int node_count, LinkModel link = LinkModel::gigabit_ethernet());
  /// Several-kernels-on-one-host mode over the shared-memory fabric
  /// (net/shm_fabric.hpp): real /dev/shm rings between thread-group nodes.
  /// Throws Error(kNetwork) when shm is unavailable (probe shm_available()).
  static ClusterConfig shm(int node_count);
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  ExecDomain& domain() { return *domain_; }
  Fabric& fabric() { return *fabric_; }
  bool simulated() const { return config_.fabric == ClusterConfig::FabricKind::kSim; }
  uint32_t flow_window() const { return config_.flow_window; }
  const ClusterConfig& config() const { return config_; }

  // --- failure detection (docs/FAULT_TOLERANCE.md) --------------------------
  /// Whether the fault-tolerance layer is running (configured and not
  /// under virtual time).
  bool fault_tolerant() const { return reliable_ != nullptr; }

  /// The reliability decorator wrapped around the transport; null when
  /// fault tolerance is off.
  ReliableFabric* reliable_fabric() { return reliable_.get(); }

  /// Declares `node` failed: records it, fails every in-flight graph call
  /// with Error(kNodeDown), and unblocks local flow-control waiters so no
  /// thread hangs on traffic that will never arrive. Called by the failure
  /// detector; also callable by tests/operators.
  void mark_node_down(NodeId node, const std::string& reason);

  bool node_down(NodeId node) const;
  std::vector<NodeId> dead_nodes() const;

  size_t node_count() const { return config_.nodes.size(); }

  /// Whether `node`'s workers live in this process (always true outside
  /// multi-process mode).
  bool is_local(NodeId node) const {
    return !config_.local_node.has_value() || *config_.local_node == node;
  }

  NodeId node_id(const std::string& name) const;
  const std::string& node_name(NodeId node) const;
  Controller& controller(NodeId node);

  /// Parallel-service registry (published flow graphs), the in-process
  /// equivalent of the paper's name server.
  NameRegistry& services() { return *services_; }

  // --- tenants (docs/SERVICE_MESH.md) ---------------------------------------
  /// Registers (or finds) the tenant named `name` and publishes its record
  /// under "tenant/<name>" in the service registry. Idempotent by name: a
  /// client re-joining the mesh (tenant churn) reuses its identity and
  /// keeps its configured budgets — the config passed on re-registration
  /// is ignored.
  TenantId register_tenant(const std::string& name,
                           const TenantConfig& config = {});

  /// Replaces a tenant's limits; applies to calls admitted afterwards.
  void set_tenant_config(TenantId tenant, const TenantConfig& config);

  /// Current limits of `tenant`; kNoTenant (and unknown ids) resolve to
  /// the all-defaults config (unlimited budget, cluster flow window).
  TenantConfig tenant_config(TenantId tenant) const;

  std::string tenant_name(TenantId tenant) const;

  // --- applications ---------------------------------------------------------
  AppId register_app(Application* app);
  void unregister_app(AppId id);
  Application* app(AppId id) const;  // throws kNotFound when absent

  // --- thread collections ---------------------------------------------------
  /// Takes shared ownership: collections must outlive in-flight envelopes,
  /// so the cluster keeps them alive until it is destroyed.
  CollectionId register_collection(
      std::shared_ptr<ThreadCollectionBase> collection);
  ThreadCollectionBase* collection(CollectionId id) const;

  // --- graph calls ----------------------------------------------------------
  CallId new_call_id();
  std::shared_ptr<detail::CallState> create_call(CallId id);
  void complete_call(CallId id, Ptr<Token> result);

  /// Arms a deadline for call `id`: after `seconds` of this cluster's time
  /// domain (virtual under simulation) the call — if still outstanding —
  /// fails with Error(kDeadlineExceeded) and its admission slot retires.
  /// Late results for an expired call are dropped as stray.
  void arm_deadline(CallId id, double seconds);

  /// Records that the call behind `state` holds one admission slot of
  /// `tenant` on `node`'s controller, so every completion path (result,
  /// node-down, deadline) returns it. A call created pre-failed (degraded
  /// cluster) has no completion path; its slot is returned here instead.
  void bind_admission(detail::CallState& state, TenantId tenant, NodeId node);

  /// Deadline expiry path (also callable by tests): fails call `id` with
  /// kDeadlineExceeded if it is still in the call table. No-op otherwise.
  void expire_call(CallId id);

  // --- merge-context claim diagnostics --------------------------------------
  /// Registers that `claimant` (an engine worker) collects context `ctx`;
  /// throws Error(kState) if a different worker already does — the symptom
  /// of a routing function scattering one context over several threads.
  void claim_context(ContextId ctx, const void* claimant);
  void release_context(ContextId ctx);

  /// Stops workers and transports. Called by the destructor; may be called
  /// earlier (idempotent).
  void shutdown();

 private:
  void fail_all_calls(Errc code, const std::string& message);
  /// Clears the call's admitted flag and returns its admission slot to the
  /// home controller. Exactly-once by construction (flag test under the
  /// state's lock); every call-completion path funnels through here.
  void retire_admission(detail::CallState& state, bool deadline_expired);
  void monitor_loop();

  /// Rendezvous between deadline timer events and shutdown: events enter
  /// the gate before touching the cluster; close() blocks until in-flight
  /// events leave and turns every later one into a no-op, so a timer can
  /// never fire into a destructed cluster.
  struct DeadlineGate {
    Mutex mu;
    CondVar cv;
    bool closed DPS_GUARDED_BY(mu) = false;
    int active DPS_GUARDED_BY(mu) = 0;
    bool enter();
    void leave();
    void close();
  };

  /// One registered tenant (id = index + 1).
  struct TenantRec {
    std::string name;
    TenantConfig config;
  };

  ClusterConfig config_;
  std::unique_ptr<ExecDomain> domain_;
  std::shared_ptr<Fabric> fabric_;
  std::unique_ptr<NameRegistry> services_;
  std::vector<std::unique_ptr<Controller>> controllers_;

  // Fault-tolerance driver: one wall-clock thread per cluster sending
  // heartbeats, running retransmit timers, and adjudicating node death.
  std::shared_ptr<ReliableFabric> reliable_;  ///< also fabric_ when set
  std::thread monitor_;
  Mutex monitor_mu_;
  CondVar monitor_cv_;
  bool monitor_stop_ DPS_GUARDED_BY(monitor_mu_) = false;
  std::set<NodeId> dead_ DPS_GUARDED_BY(mu_);

  std::shared_ptr<DeadlineGate> deadline_gate_ =
      std::make_shared<DeadlineGate>();

  mutable Mutex tenant_mu_;
  std::vector<TenantRec> tenants_ DPS_GUARDED_BY(tenant_mu_);

  mutable Mutex mu_;
  std::unordered_map<AppId, Application*> apps_ DPS_GUARDED_BY(mu_);
  AppId next_app_ DPS_GUARDED_BY(mu_) = 1;
  std::vector<std::shared_ptr<ThreadCollectionBase>> collections_
      DPS_GUARDED_BY(mu_);
  std::atomic<uint64_t> next_call_{1};
  std::unordered_map<CallId, std::shared_ptr<detail::CallState>> calls_
      DPS_GUARDED_BY(mu_);
  std::unordered_map<ContextId, const void*> claims_ DPS_GUARDED_BY(mu_);
  bool down_ DPS_GUARDED_BY(mu_) = false;
};

}  // namespace dps
