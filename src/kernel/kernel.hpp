// Multi-process DPS runtime: kernels, lazy application launch, SPMD bootstrap.
//
// Paper, section 4: "DPS provides a kernel that is running on all computers
// participating in the parallel program execution. ... Kernels locate each
// other either by using UDP broadcasts or by accessing a simple name
// server. ... When an application thread posts a data object to a thread
// running on a node where there is no active instance of the application,
// the kernel on that node starts a new instance of the application."
//
// This reproduction's multi-process mode is SPMD: every process runs the
// same executable and performs the same setup (collections, graphs, in the
// same order, so ids agree across processes); the process without a
// DPS_NODE environment variable is the *leader* (node 0) and drives the
// program, follower processes serve until the leader shuts them down.
// Followers are launched lazily: the first frame destined to node k spawns
// the executable with DPS_NODE=k, which registers its kernel endpoint with
// the name server; connections open lazily as in the paper.
//
//   int main(int argc, char** argv) {
//     dps::SpmdRuntime spmd(argc, argv, /*nodes=*/4);
//     dps::Application app(spmd.cluster(), "myapp");
//     ... identical setup in every process ...
//     if (!spmd.leader()) return spmd.serve();   // followers park here
//     ... leader-only: graph->call(...), print results ...
//     return 0;                                  // shuts the followers down
//   }
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "kernel/name_server.hpp"
#include "net/fabric.hpp"

namespace dps {

/// Fabric connecting the nodes of an SPMD multi-process run. Each process
/// owns the endpoint of its own node; frames to other nodes go over TCP,
/// with peers resolved through the name server and spawned on demand.
class ProcessFabric : public Fabric {
 public:
  /// `self` is this process's node; `exe`/`base_args` describe how to spawn
  /// followers (leader only).
  ProcessFabric(NodeId self, size_t node_count, std::string ns_host,
                uint16_t ns_port, std::string run_id, std::string exe,
                std::vector<std::string> base_args);
  ~ProcessFabric() override;

  /// Frames from a peer's TCP connection arrive as batches of one; shm
  /// frames arrive in the inbox's drain batches.
  void attach_batch(NodeId self, BatchHandler handler) override;
  void send(NodeId from, NodeId to, FrameKind kind,
            std::vector<std::byte> payload) override;
  void shutdown() override;
  uint64_t bytes_sent() const override;
  uint64_t messages_sent() const override;

  /// Registers this node's endpoint with the name server. Call once the
  /// handler is attached.
  void announce();

  /// Sends the shutdown frame to every follower that was started.
  void stop_followers();

  /// True after a kShutdown frame arrived (followers poll this to serve).
  bool shutdown_requested() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// SPMD bootstrap helper: decides the process role from the environment,
/// builds the multi-process cluster, and implements the follower park loop.
class SpmdRuntime {
 public:
  /// Reads DPS_NODE / DPS_NAMESERVER / DPS_RUN from the environment; when
  /// absent, this process becomes the leader and starts a name server.
  SpmdRuntime(int argc, char** argv, int nodes);
  ~SpmdRuntime();

  bool leader() const { return node_ == 0; }
  NodeId node() const { return node_; }
  Cluster& cluster() { return *cluster_; }

  /// Follower main tail: blocks until the leader's shutdown, returns 0.
  int serve();

 private:
  NodeId node_ = 0;
  std::unique_ptr<NameServerDaemon> name_server_;  // leader only
  std::unique_ptr<Cluster> cluster_;
  ProcessFabric* fabric_ = nullptr;  // owned by cluster_
};

}  // namespace dps
