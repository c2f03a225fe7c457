#include "kernel/kernel.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <thread>

#include "net/framing.hpp"
#include "net/shm_fabric.hpp"
#include "util/logging.hpp"

namespace dps {

// ---------------------------------------------------------------------------
// ProcessFabric
// ---------------------------------------------------------------------------

struct ProcessFabric::Impl {
  NodeId self;
  size_t node_count;
  std::string ns_host;
  uint16_t ns_port;
  std::string run_id;
  std::string exe;
  std::vector<std::string> base_args;

  TcpListener listener;
  std::thread acceptor;
  BatchHandler handler;

  /// Intra-node fast path: when two kernels share a host (the common case
  /// for this SPMD runtime) and POSIX shm is usable, data frames bypass the
  /// loopback sockets and go through a ShmPeerTx into the peer's ShmInbox.
  /// The TCP connection is still established and carries kShutdown, so
  /// mixed deployments (DPS_SHM=0 on one side, or shm probe failure)
  /// degrade to pure TCP transparently. Created in announce(), before any
  /// traffic; only the rx thread and senders touch it afterwards.
  std::unique_ptr<ShmInbox> shm_inbox;

  Mutex mu;
  CondVar cv;
  std::map<NodeId, std::unique_ptr<TcpConn>> out DPS_GUARDED_BY(mu);
  std::map<NodeId, std::unique_ptr<ShmPeerTx>> shm_out DPS_GUARDED_BY(mu);
  std::set<NodeId> shm_failed DPS_GUARDED_BY(mu);  // negotiated down to TCP
  /// Per-connection write locks (one writer at a time per socket). The map
  /// itself is guarded by mu; the pointed-to mutexes are their own
  /// capabilities, locked without mu held.
  std::map<NodeId, std::unique_ptr<Mutex>> out_mu DPS_GUARDED_BY(mu);
  std::vector<std::thread> receivers DPS_GUARDED_BY(mu);
  std::vector<pid_t> children DPS_GUARDED_BY(mu);
  bool down DPS_GUARDED_BY(mu) = false;
  bool shutdown_flag DPS_GUARDED_BY(mu) = false;
  std::atomic<uint64_t> bytes{0};
  std::atomic<uint64_t> messages{0};

  std::string endpoint_key(NodeId node) const {
    return run_id + "/node" + std::to_string(node);
  }

  /// shm_open names allow exactly one leading slash, so the run id is
  /// sanitized to [A-Za-z0-9-] before use.
  std::string shm_segment_name(NodeId node) const {
    std::string s = "/dps-";
    for (const char c : run_id) {
      s += std::isalnum(static_cast<unsigned char>(c)) ? c : '-';
    }
    s += "-n" + std::to_string(node);
    return s;
  }

  /// Frames arriving over shared memory funnel into the same handling as
  /// the TCP receive loop: kShutdown trips the serve-loop flag, everything
  /// else goes to the controller's handler.
  void deliver_shm(std::vector<NodeMessage>&& batch) {
    size_t keep = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      NodeMessage& m = batch[i];
      if (m.kind == FrameKind::kShutdown) {
        MutexLock lock(mu);
        shutdown_flag = true;
        cv.notify_all();
        continue;
      }
      // Guard against self-move: with no shutdown frame in the batch the
      // compaction is the identity and must leave each payload untouched.
      if (keep != i) batch[keep] = std::move(m);
      ++keep;
    }
    batch.resize(keep);
    if (!batch.empty()) handler(std::move(batch));
  }

  /// Returns the shm sender for `to`, opening it on first use, or nullptr
  /// when the peer negotiated down to TCP. Callers must already hold a live
  /// TCP connection (connection_to), which guarantees the peer has
  /// announced — and the shm key is published before the TCP endpoint, so
  /// an empty lookup here means "peer has no shm", not "peer not up yet".
  ShmPeerTx* shm_tx_for(NodeId to) {
    if (!shm_available()) return nullptr;
    {
      MutexLock lock(mu);
      auto it = shm_out.find(to);
      if (it != shm_out.end()) return it->second.get();
      if (shm_failed.count(to) != 0) return nullptr;
    }
    std::unique_ptr<ShmPeerTx> tx;
    try {
      NameClient ns(ns_host, ns_port);
      const std::string seg = ns.lookup(endpoint_key(to) + "/shm");
      if (!seg.empty()) tx = std::make_unique<ShmPeerTx>(seg, self);
    } catch (const Error& e) {
      DPS_WARN("kernel " << self << ": shm to node " << to
                         << " unavailable, staying on tcp: " << e.what());
    }
    MutexLock lock(mu);
    if (!tx) {
      shm_failed.insert(to);
      return nullptr;
    }
    auto it = shm_out.emplace(to, std::move(tx)).first;  // first open wins
    return it->second.get();
  }

  void accept_loop() {
    for (;;) {
      TcpConn conn = listener.accept();
      if (!conn.valid()) return;
      MutexLock lock(mu);
      if (down) return;
      receivers.emplace_back(
          [this, c = std::make_shared<TcpConn>(std::move(conn))] {
            receive_loop(*c);
          });
    }
  }

  void receive_loop(TcpConn& conn) {
    try {
      Frame hello;
      if (!read_frame(conn, &hello) || hello.kind != FrameKind::kHello) return;
      const NodeId peer = hello.from;
      if (peer >= node_count) {
        // Every later frame is tagged with this id: refuse a node that
        // does not exist, as a connection without a hello is.
        DPS_WARN("process fabric node " << self << ": hello from node "
                                        << peer << " of a " << node_count
                                        << "-node run, dropping");
        return;
      }
      Frame f;
      while (read_frame(conn, &f)) {
        if (f.kind == FrameKind::kShutdown) {
          MutexLock lock(mu);
          shutdown_flag = true;
          cv.notify_all();
          continue;
        }
        std::vector<NodeMessage> batch;
        batch.push_back(NodeMessage{peer, f.kind, std::move(f.payload)});
        handler(std::move(batch));
      }
    } catch (const Error& e) {
      MutexLock lock(mu);
      if (!down) {
        DPS_WARN("process fabric node " << self << " receiver: " << e.what());
      }
    }
  }

  /// Spawns the follower process for `node` as a detached grandchild (the
  /// intermediate child exits immediately, so no zombies accumulate).
  void spawn_node(NodeId node) {
    const pid_t child = ::fork();
    if (child < 0) raise(Errc::kState, "fork failed");
    if (child == 0) {
      const pid_t grand = ::fork();
      if (grand != 0) ::_exit(0);
      // Grandchild: become the follower. setenv is mt-unsafe in general,
      // but this freshly-forked process is single-threaded until execv —
      // nothing can race the environment writes.
      // NOLINTBEGIN(concurrency-mt-unsafe)
      ::setenv("DPS_NODE", std::to_string(node).c_str(), 1);
      ::setenv("DPS_NAMESERVER",
               (ns_host + ":" + std::to_string(ns_port)).c_str(), 1);
      ::setenv("DPS_RUN", run_id.c_str(), 1);
      // NOLINTEND(concurrency-mt-unsafe)
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(exe.c_str()));
      for (auto& a : base_args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      ::execv(exe.c_str(), argv.data());
      std::fprintf(stderr, "dps kernel: execv(%s) failed: %s\n", exe.c_str(),
                   std::strerror(errno));
      ::_exit(127);
    }
    int status = 0;
    ::waitpid(child, &status, 0);  // reap the intermediate child
  }

  TcpConn& connection_to(NodeId to) {
    {
      MutexLock lock(mu);
      auto it = out.find(to);
      if (it != out.end()) return *it->second;
      if (out_mu.find(to) == out_mu.end()) {
        out_mu.emplace(to, std::make_unique<Mutex>());
      }
    }
    NameClient ns(ns_host, ns_port);
    std::string endpoint = ns.lookup(endpoint_key(to));
    if (endpoint.empty()) {
      // Lazy application launch (paper, section 4): the first token bound
      // for a node with no running instance starts one there. The claim is
      // an atomic spawn lock so concurrent senders start one process only.
      if (ns.claim("spawn/" + endpoint_key(to),
                   std::to_string(::getpid()))) {
        DPS_INFO("kernel " << self << " launching node " << to);
        spawn_node(to);
      }
      endpoint = ns.wait_for(endpoint_key(to));
    }
    const size_t colon = endpoint.rfind(':');
    DPS_CHECK(colon != std::string::npos, "malformed endpoint");
    TcpConn conn = TcpConn::connect(
        endpoint.substr(0, colon),
        static_cast<uint16_t>(std::stoi(endpoint.substr(colon + 1))));
    Frame hello;
    hello.kind = FrameKind::kHello;
    hello.from = self;
    write_frame(conn, hello);
    MutexLock lock(mu);
    auto it = out.find(to);
    if (it != out.end()) return *it->second;  // lost a connect race
    it = out.emplace(to, std::make_unique<TcpConn>(std::move(conn))).first;
    return *it->second;
  }
};

ProcessFabric::ProcessFabric(NodeId self, size_t node_count,
                             std::string ns_host, uint16_t ns_port,
                             std::string run_id, std::string exe,
                             std::vector<std::string> base_args)
    : impl_(std::make_unique<Impl>()) {
  impl_->self = self;
  impl_->node_count = node_count;
  impl_->ns_host = std::move(ns_host);
  impl_->ns_port = ns_port;
  impl_->run_id = std::move(run_id);
  impl_->exe = std::move(exe);
  impl_->base_args = std::move(base_args);
  impl_->listener = TcpListener::bind(0);
  impl_->acceptor = std::thread([this] { impl_->accept_loop(); });
}

ProcessFabric::~ProcessFabric() { shutdown(); }

void ProcessFabric::attach_batch(NodeId self, BatchHandler handler) {
  if (self != impl_->self) return;  // other nodes live in other processes
  impl_->handler = std::move(handler);
}

void ProcessFabric::announce() {
  NameClient ns(impl_->ns_host, impl_->ns_port);
  if (shm_available() && !impl_->shm_inbox) {
    try {
      impl_->shm_inbox = std::make_unique<ShmInbox>(
          impl_->shm_segment_name(impl_->self), impl_->self,
          static_cast<uint32_t>(impl_->node_count), size_t{1} << 20);
      impl_->shm_inbox->start(
          [impl = impl_.get()](std::vector<NodeMessage>&& batch) {
            impl->deliver_shm(std::move(batch));
          });
      // Published before the TCP endpoint: senders resolve the TCP key
      // first (connection_to), so by the time they probe for "/shm" it is
      // guaranteed to be visible — negotiation cannot race.
      ns.publish(impl_->endpoint_key(impl_->self) + "/shm",
                 impl_->shm_inbox->segment_name());
    } catch (const Error& e) {
      impl_->shm_inbox.reset();
      DPS_WARN("kernel " << impl_->self
                         << ": shm inbox unavailable, serving tcp only: "
                         << e.what());
    }
  }
  ns.publish(impl_->endpoint_key(impl_->self),
             "127.0.0.1:" + std::to_string(impl_->listener.port()));
}

void ProcessFabric::send(NodeId from, NodeId to, FrameKind kind,
                         std::vector<std::byte> payload) {
  DPS_CHECK(from == impl_->self, "send from a non-local node");
  DPS_CHECK(to != impl_->self, "local traffic must not reach the fabric");
  // Establishing the TCP connection first also spawns the peer on demand
  // and blocks until it announced, so the shm probe below is definitive.
  TcpConn& conn = impl_->connection_to(to);
  Frame f;
  f.kind = kind;
  f.from = from;
  f.payload = std::move(payload);
  impl_->messages.fetch_add(1, std::memory_order_relaxed);
  impl_->bytes.fetch_add(frame_wire_size(f), std::memory_order_relaxed);
  if (ShmPeerTx* tx = impl_->shm_tx_for(to)) {
    if (tx->send(kind, nullptr, 0, f.payload.data(), f.payload.size())) {
      return;
    }
    // Ring closed under us (peer tearing down): fall back to the socket so
    // the frame still gets a best-effort delivery attempt.
  }
  Mutex* conn_mu;
  {
    MutexLock lock(impl_->mu);
    conn_mu = impl_->out_mu.at(to).get();
  }
  MutexLock lock(*conn_mu);
  write_frame(conn, f);
}

void ProcessFabric::stop_followers() {
  for (NodeId n = 0; n < impl_->node_count; ++n) {
    if (n == impl_->self) continue;
    NameClient ns(impl_->ns_host, impl_->ns_port);
    if (ns.lookup(impl_->endpoint_key(n)).empty()) continue;  // never started
    try {
      TcpConn& conn = impl_->connection_to(n);
      Frame f;
      f.kind = FrameKind::kShutdown;
      f.from = impl_->self;
      Mutex* conn_mu;
      {
        MutexLock lock(impl_->mu);
        conn_mu = impl_->out_mu.at(n).get();
      }
      MutexLock lock(*conn_mu);
      write_frame(conn, f);
    } catch (const Error& e) {
      DPS_WARN("stop_followers: node " << n << ": " << e.what());
    }
  }
}

bool ProcessFabric::shutdown_requested() const {
  MutexLock lock(impl_->mu);
  return impl_->shutdown_flag;
}

void ProcessFabric::shutdown() {
  std::vector<std::thread> receivers;
  {
    MutexLock lock(impl_->mu);
    if (impl_->down) return;
    impl_->down = true;
    receivers.swap(impl_->receivers);
  }
  impl_->listener.close();
  {
    MutexLock lock(impl_->mu);
    for (auto& [node, conn] : impl_->out) conn->close();
  }
  if (impl_->acceptor.joinable()) impl_->acceptor.join();
  for (auto& r : receivers) {
    if (r.joinable()) r.join();
  }
  // Stopping the inbox marks the segment closed, which unblocks any remote
  // producer parked on a full ring, then unlinks the segment.
  if (impl_->shm_inbox) impl_->shm_inbox->stop();
}

uint64_t ProcessFabric::bytes_sent() const {
  return impl_->bytes.load(std::memory_order_relaxed);
}
uint64_t ProcessFabric::messages_sent() const {
  return impl_->messages.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// SpmdRuntime
// ---------------------------------------------------------------------------

namespace {

std::string self_exe_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  DPS_CHECK(n > 0, "cannot resolve /proc/self/exe");
  buf[n] = '\0';
  return std::string(buf);
}

}  // namespace

SpmdRuntime::SpmdRuntime(int argc, char** argv, int nodes) {
  std::string ns_host = "127.0.0.1";
  uint16_t ns_port = 0;
  std::string run_id;

  const char* node_env = std::getenv("DPS_NODE");
  if (node_env == nullptr) {
    node_ = 0;
    name_server_ = std::make_unique<NameServerDaemon>(0);
    ns_port = name_server_->port();
    run_id = "run" + std::to_string(::getpid());
  } else {
    node_ = static_cast<NodeId>(std::atoi(node_env));
    const char* ns_env = std::getenv("DPS_NAMESERVER");
    DPS_CHECK(ns_env != nullptr, "follower without DPS_NAMESERVER");
    const std::string ns(ns_env);
    const size_t colon = ns.rfind(':');
    DPS_CHECK(colon != std::string::npos, "malformed DPS_NAMESERVER");
    ns_host = ns.substr(0, colon);
    ns_port = static_cast<uint16_t>(std::stoi(ns.substr(colon + 1)));
    const char* run_env = std::getenv("DPS_RUN");
    DPS_CHECK(run_env != nullptr, "follower without DPS_RUN");
    run_id = run_env;
  }

  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  auto fabric = std::make_shared<ProcessFabric>(
      node_, static_cast<size_t>(nodes), ns_host, ns_port, run_id,
      self_exe_path(), std::move(args));
  fabric_ = fabric.get();

  ClusterConfig cfg = ClusterConfig::inproc(nodes);
  cfg.external_fabric = fabric;
  cfg.local_node = node_;
  cluster_ = std::make_unique<Cluster>(std::move(cfg));
  // The leader announces now (nothing sends to it until it spawns the
  // senders itself). Followers announce in serve(): their endpoint may only
  // become visible once their collections and graphs exist, or the first
  // envelope would beat the setup.
  if (leader()) fabric_->announce();
}

SpmdRuntime::~SpmdRuntime() {
  if (leader()) fabric_->stop_followers();
  cluster_->shutdown();
}

int SpmdRuntime::serve() {
  DPS_CHECK(!leader(), "serve() is the follower's main tail");
  fabric_->announce();  // setup is complete; traffic may now arrive
  while (!fabric_->shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return 0;
}

}  // namespace dps
