// Ablation — the split–merge flow-control window.
//
// The paper: "a feedback mechanism ensures that no more than a given number
// of data objects is in circulation between a specific pair of split merge
// constructs", protecting memory and the network without throttling the
// pipeline. This ablation sweeps the window on the simulated matmul across
// *two* dimensions: the window itself and the message size (via the split
// factor s — per-task payload is 2n^2/s doubles, so growing s shrinks every
// message while total compute stays fixed). Tiny windows serialize the
// pipeline (the Table 1 "no overlap" regime); the knee — the minimum
// circulation DPS needs — moves with the message size because small
// messages are latency-bound (more tokens needed in flight) while large
// ones saturate the simulated NIC almost immediately.
//
// A self-check makes this binary a regression gate rather than a chart
// generator: a knee must exist, time(window=1) > 1.05 x time(best window)
// at every size. A violation exits nonzero, which fails tier1.sh's bench
// smoke.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "apps/matmul.hpp"
#include "bench_json.hpp"

using namespace dps;

namespace {

/// One simulated matmul run; returns the virtual time of the whole product.
double run_config(int n, int s, int workers, double rate, uint32_t window) {
  ClusterConfig cfg = ClusterConfig::simulated(workers + 1);
  cfg.flow_window = window;
  Cluster cluster(cfg);
  Application app(cluster, "matmul");
  auto graph = apps::build_matmul_graph(app, workers);
  ActorScope scope(cluster.domain(), "main");
  la::Matrix a(static_cast<size_t>(n), static_cast<size_t>(n));
  la::Matrix b(static_cast<size_t>(n), static_cast<size_t>(n));
  const double t0 = cluster.domain().now();
  (void)apps::run_matmul(*graph, a, b, s, rate);
  return cluster.domain().now() - t0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonWriter json(&argc, argv);
  const int n = argc > 1 ? std::atoi(argv[1]) : 512;
  const int workers = 4;
  const double rate = 220e6;
  const std::vector<int> sizes = {4, 8, 16};
  const std::vector<uint32_t> windows = {1, 2, 4, 8, 16, 64, 1024};

  std::cout << "Ablation — flow-control window sweep (" << n << "x" << n
            << " matmul, " << workers
            << " simulated workers, per-task payload = 16n^2/s bytes)\n";
  bool ok = true;
  for (int s : sizes) {
    const long msg_bytes = 16L * n * n / s;
    std::printf("\ns=%d (%ld kB per task, %d tasks)\n", s, msg_bytes / 1024,
                s * s);
    std::printf("window     virtual time [ms]   relative\n");
    double base = -1;
    double best = -1;
    for (uint32_t window : windows) {
      const double dt = run_config(n, s, workers, rate, window);
      if (base < 0) base = dt;
      if (best < 0 || dt < best) best = dt;
      std::printf("%-10u %-19.1f %.2fx\n", window, dt * 1e3, base / dt);
      json.record("ablation_flowctl",
                  "s=" + std::to_string(s) +
                      "/window=" + std::to_string(window),
                  dt * 1e6, base / dt);
    }
    // Self-check: a knee exists — window=1 serializes the pipeline, so it
    // must be measurably slower than the best window.
    if (base <= best * 1.05) {
      std::fprintf(stderr,
                   "SELF-CHECK FAILED: s=%d window curve is flat "
                   "(window=1 %.3f ms vs best %.3f ms — no knee)\n",
                   s, base * 1e3, best * 1e3);
      ok = false;
    }
  }
  std::cout << "\nExpected shape: throughput rises with the window and "
               "saturates once enough tokens circulate to cover the "
               "communication latency; the knee sits further right for "
               "small messages.\n";
  return ok ? 0 : 1;
}
