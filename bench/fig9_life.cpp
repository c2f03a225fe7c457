// Figure 9 — Speedup of the Game of Life, improved vs simple flow graph,
// for different world sizes.
//
// Paper setup: worlds of 400x400, 4000x400 and 4000x4000 cells on 1 to 8
// nodes of the GbE cluster. The improved graph (Fig. 8) overlaps the border
// exchange with the interior computation; the simple graph (Fig. 7) has a
// global synchronization between the exchange and the compute phase. The
// improved graph wins everywhere, most visibly for the smallest world where
// communication weighs the most.
//
// Reproduction: simulated GbE cluster, one worker band per node, synthetic
// per-cell compute at 8 Mcells/s per worker (PIII-era). Speedups are
// relative to the one-node run of the simple graph.
//
// --check-leaf additionally wall-clock-benchmarks the real leaf kernels
// through the pluggable backend seam (life/fast_step.hpp): naive vs LUT
// step_band on a seeded 1024x1024 band. On hosts with >= 2 hardware
// threads the LUT kernel must be >= 3x faster or the bench exits nonzero;
// single-core/noisy hosts print SKIP for the gate but still report and
// record both series.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <thread>

#include "apps/life.hpp"
#include "bench_json.hpp"
#include "life/fast_step.hpp"

using namespace dps;

namespace {

double run(int rows, int cols, int nodes, bool improved, int iterations,
           double cell_rate) {
  Cluster cluster(ClusterConfig::simulated(nodes));
  apps::LifeApp app(cluster, nodes);
  ActorScope scope(cluster.domain(), "main");
  life::Band world(rows, cols);  // contents irrelevant in synthetic mode
  app.scatter(world);
  const double t0 = cluster.domain().now();
  for (int i = 0; i < iterations; ++i) app.iterate(improved, cell_rate);
  return (cluster.domain().now() - t0) / iterations;
}

/// Median wall-clock seconds per step_band call through the dispatch seam
/// with the named backend selected, plus a result checksum for the
/// bit-identity cross-check.
double time_leaf_kernel(const char* name, const life::Band& world,
                         uint64_t* population) {
  life::LifeBackends::select(name);
  const std::vector<uint8_t> dead;  // world edge above and below
  life::Band out = life::step_band(world, dead, dead);  // warm-up
  *population = out.population();

  using clock = std::chrono::steady_clock;
  std::vector<double> reps;
  const auto t_begin = clock::now();
  // At least 5 reps and at least ~200 ms of samples, whichever is more.
  while (reps.size() < 5 ||
         std::chrono::duration<double>(clock::now() - t_begin).count() < 0.2) {
    const auto t0 = clock::now();
    out = life::step_band(world, dead, dead);
    reps.push_back(std::chrono::duration<double>(clock::now() - t0).count());
    if (reps.size() >= 64) break;  // plenty of samples on a fast host
  }
  std::sort(reps.begin(), reps.end());
  return reps[reps.size() / 2];
}

/// The satellite gate for this figure: the LUT leaf kernel must beat the
/// naive kernel by >= 3x at 1024^2, measured through the backend seam.
/// Returns the process exit code.
int check_leaf(bench::JsonWriter& json) {
  const int n = 1024;
  life::Band world(n, n);
  world.seed_random(0x5eedf19ull);

  std::printf("\n--check-leaf: step_band through the backend seam, "
              "%dx%d seeded band\n", n, n);
  uint64_t pop_naive = 0, pop_lut = 0;
  const double t_naive = time_leaf_kernel("naive", world, &pop_naive);
  const double t_lut = time_leaf_kernel("lut", world, &pop_lut);
  life::LifeBackends::reset_selection();

  const double cells = static_cast<double>(n) * n;
  std::printf("  naive  %8.3f ms/step  %7.1f Mcells/s\n", t_naive * 1e3,
              cells / t_naive / 1e6);
  std::printf("  lut    %8.3f ms/step  %7.1f Mcells/s  (%.2fx)\n",
              t_lut * 1e3, cells / t_lut / 1e6, t_naive / t_lut);
  json.record("fig9_life", "leaf=naive/world=1024x1024", t_naive * 1e6,
              cells / t_naive);
  json.record("fig9_life", "leaf=lut/world=1024x1024", t_lut * 1e6,
              cells / t_lut);

  if (pop_naive != pop_lut) {
    std::printf("  FAIL: backends disagree (population %llu vs %llu)\n",
                static_cast<unsigned long long>(pop_naive),
                static_cast<unsigned long long>(pop_lut));
    return 1;
  }
  if (std::thread::hardware_concurrency() < 2) {
    std::printf("  SKIP: speedup gate needs >= 2 hardware threads for "
                "stable wall-clock timing (host reports %u)\n",
                std::thread::hardware_concurrency());
    return 0;
  }
  if (t_naive < 3.0 * t_lut) {
    std::printf("  FAIL: LUT speedup %.2fx below the 3x gate\n",
                t_naive / t_lut);
    return 1;
  }
  std::printf("  OK: LUT >= 3x naive\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonWriter json(&argc, argv);
  bool leaf_gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-leaf") == 0) {
      leaf_gate = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  const int iterations = argc > 1 ? std::atoi(argv[1]) : 3;
  const double cell_rate = 8e6;  // cells/s per worker
  const int max_nodes = 8;

  std::cout << "Figure 9 — Game of Life speedup, improved (Imp) vs simple "
               "(Std) graph\n(simulated GbE, "
            << cell_rate / 1e6 << " Mcells/s per node, " << iterations
            << " iterations per point)\n\n";

  struct World {
    int rows, cols;
  };
  const World worlds[] = {{400, 400}, {4000, 400}, {4000, 4000}};

  std::printf("nodes ");
  for (const World& w : worlds) {
    std::printf(" Imp %dx%-5d Std %dx%-5d", w.rows, w.cols, w.rows, w.cols);
  }
  std::printf("\n");

  double base[3];
  for (int wi = 0; wi < 3; ++wi) {
    base[wi] = run(worlds[wi].rows, worlds[wi].cols, 1, false, iterations,
                   cell_rate);
  }
  for (int nodes = 1; nodes <= max_nodes; ++nodes) {
    std::printf("%-5d ", nodes);
    for (int wi = 0; wi < 3; ++wi) {
      const double imp = run(worlds[wi].rows, worlds[wi].cols, nodes, true,
                             iterations, cell_rate);
      const double std_t = run(worlds[wi].rows, worlds[wi].cols, nodes,
                               false, iterations, cell_rate);
      std::printf("  %-10.2f  %-10.2f", base[wi] / imp, base[wi] / std_t);
      const std::string cfg = "world=" + std::to_string(worlds[wi].rows) +
                              "x" + std::to_string(worlds[wi].cols) +
                              "/nodes=" + std::to_string(nodes);
      json.record("fig9_life", cfg + "/improved", imp * 1e6, base[wi] / imp);
      json.record("fig9_life", cfg + "/simple", std_t * 1e6,
                  base[wi] / std_t);
    }
    std::printf("\n");
  }
  std::cout << "\nExpected shape (paper): Imp >= Std at every point; the gap "
               "is widest for the 400x400 world (communication-dominated) "
               "and narrows as the world grows.\n";
  return leaf_gate ? check_leaf(json) : 0;
}
