// Multi-process runtime tests: the name server protocol, the spawn-lock
// claim, and a full SPMD round trip (leader spawns followers lazily, tokens
// cross real process boundaries, leader shuts everything down).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "kernel/kernel.hpp"
#include "kernel/name_server.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"

namespace dps {
namespace {

TEST(NameServer, PublishLookupRoundTrip) {
  NameServerDaemon server(0);
  NameClient client("127.0.0.1", server.port());
  EXPECT_EQ(client.lookup("missing"), "");
  client.publish("svc", "127.0.0.1:4242");
  EXPECT_EQ(client.lookup("svc"), "127.0.0.1:4242");
  client.publish("svc", "127.0.0.1:5151");  // replace
  EXPECT_EQ(client.lookup("svc"), "127.0.0.1:5151");
}

TEST(NameServer, WaitBlocksUntilPublished) {
  NameServerDaemon server(0);
  std::thread publisher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    NameClient c("127.0.0.1", server.port());
    c.publish("late", "value");
  });
  NameClient client("127.0.0.1", server.port());
  EXPECT_EQ(client.wait_for("late"), "value");
  publisher.join();
}

TEST(NameServer, ClaimIsExclusive) {
  NameServerDaemon server(0);
  NameClient a("127.0.0.1", server.port());
  NameClient b("127.0.0.1", server.port());
  EXPECT_TRUE(a.claim("lock/x", "a"));
  EXPECT_FALSE(b.claim("lock/x", "b"));
  EXPECT_EQ(b.lookup("lock/x"), "a");
}

TEST(NameServer, ManyConcurrentClients) {
  NameServerDaemon server(0);
  std::vector<std::thread> clients;
  std::atomic<int> winners{0};
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&, i] {
      NameClient c("127.0.0.1", server.port());
      c.publish("k" + std::to_string(i), "v" + std::to_string(i));
      if (c.claim("the-lock", std::to_string(i))) winners++;
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(winners.load(), 1);
  NameClient c("127.0.0.1", server.port());
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(c.lookup("k" + std::to_string(i)), "v" + std::to_string(i));
  }
}

// --- Full SPMD round trip ------------------------------------------------------

std::string example_binary(const char* name) {
  // tests/dps_tests -> ../examples/<name> within the build tree.
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  std::string path(buf, static_cast<size_t>(n));
  const size_t slash = path.rfind('/');
  const size_t slash2 = path.rfind('/', slash - 1);
  return path.substr(0, slash2) + "/examples/" + name;
}

TEST(Spmd, MultiprocessToUpperRoundTrip) {
  const std::string binary = example_binary("multiprocess_toupper");
  if (::access(binary.c_str(), X_OK) != 0) {
    GTEST_SKIP() << "example binary not found at " << binary;
  }
  const std::string cmd =
      binary + " 3 multi process dps 2>/dev/null";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char line[512];
  while (::fgets(line, sizeof(line), pipe) != nullptr) output += line;
  const int status = ::pclose(pipe);
  EXPECT_EQ(WEXITSTATUS(status), 0) << output;
  EXPECT_NE(output.find("output: MULTI PROCESS DPS"), std::string::npos)
      << output;
}

// The run above negotiates the shm fast path between the co-located kernels
// (when the host allows it); this one pins the deployment to TCP via the
// DPS_SHM=0 opt-out — the "/shm" name-server key is never published and the
// per-peer negotiation must degrade to pure sockets with the same result.
TEST(Spmd, MultiprocessToUpperFallsBackToTcpWhenShmDisabled) {
  const std::string binary = example_binary("multiprocess_toupper");
  if (::access(binary.c_str(), X_OK) != 0) {
    GTEST_SKIP() << "example binary not found at " << binary;
  }
  const std::string cmd =
      "DPS_SHM=0 " + binary + " 3 multi process dps 2>/dev/null";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char line[512];
  while (::fgets(line, sizeof(line), pipe) != nullptr) output += line;
  const int status = ::pclose(pipe);
  EXPECT_EQ(WEXITSTATUS(status), 0) << output;
  EXPECT_NE(output.find("output: MULTI PROCESS DPS"), std::string::npos)
      << output;
}

// A peer that names a node outside the run in its hello is refused: the
// envelope it sends next never reaches the handler.
TEST(ProcessFabric, HelloFromANodeThatDoesNotExistIsRefused) {
  NameServerDaemon server(0);
  const std::string run = "hello" + std::to_string(::getpid());
  ProcessFabric fabric(0, 2, "127.0.0.1", server.port(), run, "/bin/false",
                       {});
  std::mutex mu;
  std::vector<NodeMessage> got;
  fabric.attach(0, [&](NodeMessage&& m) {
    std::lock_guard<std::mutex> lock(mu);
    got.push_back(std::move(m));
  });
  fabric.announce();
  const std::string endpoint =
      NameClient("127.0.0.1", server.port()).lookup(run + "/node0");
  const size_t colon = endpoint.rfind(':');
  ASSERT_NE(colon, std::string::npos) << endpoint;
  TcpConn conn = TcpConn::connect(
      endpoint.substr(0, colon),
      static_cast<uint16_t>(std::stoi(endpoint.substr(colon + 1))));
  Frame hello;
  hello.kind = FrameKind::kHello;
  hello.from = 7;
  Frame env;
  env.kind = FrameKind::kEnvelope;
  env.from = 7;
  env.payload.resize(24);
  const Frame frames[] = {hello, env};
  write_frames(conn, frames, 2);
  conn.shutdown_write();
  // The receiver closes the connection once it is done with it, after
  // delivering whatever it accepted.
  try {
    char sink;
    while (conn.recv_all(&sink, 1)) {
    }
  } catch (const Error&) {
    // reset by the refusing receiver: just as final
  }
  fabric.shutdown();
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_TRUE(got.empty()) << got.size() << " frame(s) delivered";
}

}  // namespace
}  // namespace dps
