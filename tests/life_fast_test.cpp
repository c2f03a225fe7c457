// LifeFast property suite: the LUT Life kernel (life/fast_step.hpp) must be
// bit-identical to the naive reference on every input shape, the 512-entry
// rule table must encode exactly Conway's rule, and the backend seam
// (compute/backend.hpp) must honour select() over the registration default.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "life/fast_step.hpp"
#include "life/world.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "test_seed.hpp"
#include "util/error.hpp"

namespace dps::life {
namespace {

/// Restores the process-global backend selection on scope exit so a test
/// can never leak a pinned kernel into later suites.
class SelectionGuard {
 public:
  ~SelectionGuard() { LifeBackends::reset_selection(); }
};

Band random_band(int rows, int cols, std::mt19937& rng, double density = 0.35) {
  Band b(rows, cols);
  std::bernoulli_distribution alive(density);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) b.set(r, c, alive(rng) ? 1 : 0);
  }
  return b;
}

std::vector<uint8_t> random_row(int cols, std::mt19937& rng) {
  std::vector<uint8_t> row(static_cast<size_t>(cols));
  std::bernoulli_distribution alive(0.35);
  for (auto& v : row) v = alive(rng) ? 1 : 0;
  return row;
}

TEST(LifeFast, RuleLutMatchesConwayOnAll512Neighbourhoods) {
  // Every possible packed 3x3 neighbourhood, decoded into a 3x3 board whose
  // centre is stepped by the naive reference with dead world edges.
  const uint8_t* lut = rule_lut();
  const std::vector<uint8_t> dead;
  for (int w = 0; w < kRuleLutSize; ++w) {
    Band board(3, 3);
    for (int dr = -1; dr <= 1; ++dr) {
      for (int dc = -1; dc <= 1; ++dc) {
        board.set(1 + dr, 1 + dc,
                  static_cast<uint8_t>((w >> rule_lut_bit(dr, dc)) & 1));
      }
    }
    const Band next = step_band_naive(board, dead, dead);
    ASSERT_EQ(lut[w], next.at(1, 1)) << "LUT entry " << w;
  }
}

TEST(LifeFast, LutMatchesNaiveOnSeededRandomBands) {
  const uint32_t seed = dps_testing::effective_seed(0xf19u);
  SCOPED_TRACE("DPS_TEST_SEED=" + std::to_string(seed));
  std::mt19937 rng(seed);
  const struct {
    int rows, cols;
  } shapes[] = {{1, 1}, {1, 9}, {9, 1}, {2, 5}, {17, 33}, {64, 64}, {5, 128}};
  for (const auto& sh : shapes) {
    for (int variant = 0; variant < 4; ++variant) {
      SCOPED_TRACE(std::to_string(sh.rows) + "x" + std::to_string(sh.cols) +
                   " variant " + std::to_string(variant));
      const Band band = random_band(sh.rows, sh.cols, rng);
      // Variants: dead/dead, live/dead, dead/live, live/live ghost rows.
      const std::vector<uint8_t> above =
          (variant & 1) ? random_row(sh.cols, rng) : std::vector<uint8_t>();
      const std::vector<uint8_t> below =
          (variant & 2) ? random_row(sh.cols, rng) : std::vector<uint8_t>();
      const Band naive = step_band_naive(band, above, below);
      const Band lut = lut_step_band(band, above, below);
      ASSERT_TRUE(naive == lut);
    }
  }
}

TEST(LifeFast, InteriorPlusBordersEqualsFullStepForBothKernels) {
  const uint32_t seed = dps_testing::effective_seed(0x1f5u);
  SCOPED_TRACE("DPS_TEST_SEED=" + std::to_string(seed));
  std::mt19937 rng(seed);
  for (int rows : {1, 2, 3, 8, 31}) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    const int cols = 24;
    const Band band = random_band(rows, cols, rng);
    const std::vector<uint8_t> above = random_row(cols, rng);
    const std::vector<uint8_t> below = random_row(cols, rng);

    Band lut_split = lut_step_interior(band);
    lut_step_borders(band, above, below, lut_split);
    ASSERT_TRUE(lut_split == lut_step_band(band, above, below));

    Band naive_split = step_interior_naive(band);
    step_borders_naive(band, above, below, naive_split);
    ASSERT_TRUE(naive_split == step_band_naive(band, above, below));
  }
}

TEST(LifeFast, EmptyAndFullBoards) {
  const std::vector<uint8_t> dead;
  Band empty(16, 16);
  ASSERT_EQ(lut_step_band(empty, dead, dead).population(), 0u);

  Band full(16, 16);
  for (int r = 0; r < 16; ++r) {
    for (int c = 0; c < 16; ++c) full.set(r, c, 1);
  }
  const Band naive = step_band_naive(full, dead, dead);
  const Band lut = lut_step_band(full, dead, dead);
  ASSERT_TRUE(naive == lut);
  // Overcrowding kills the interior; only the four corners (3 neighbours)
  // survive a fully populated board.
  ASSERT_EQ(lut.population(), 4u);
}

/// Steps a world decomposed into horizontal bands through the dispatch
/// seam, exchanging ghost rows each iteration — the LifeApp communication
/// pattern, minus the flow graph.
Band step_banded(const Band& world, const std::vector<int>& cuts, int iters) {
  std::vector<Band> bands;
  int r0 = 0;
  for (int cut : cuts) {
    Band b(cut - r0, world.cols());
    for (int r = r0; r < cut; ++r) b.set_row(r - r0, world.row(r));
    bands.push_back(b);
    r0 = cut;
  }
  for (int it = 0; it < iters; ++it) {
    std::vector<Band> next;
    for (size_t i = 0; i < bands.size(); ++i) {
      const std::vector<uint8_t> above =
          i > 0 ? bands[i - 1].row(bands[i - 1].rows() - 1)
                : std::vector<uint8_t>();
      const std::vector<uint8_t> below =
          i + 1 < bands.size() ? bands[i + 1].row(0) : std::vector<uint8_t>();
      next.push_back(step_band(bands[i], above, below));
    }
    bands = std::move(next);
  }
  Band out(world.rows(), world.cols());
  int r = 0;
  for (const Band& b : bands) {
    for (int br = 0; br < b.rows(); ++br, ++r) out.set_row(r, b.row(br));
  }
  return out;
}

TEST(LifeFast, GliderCrossesBandBordersBitIdentically) {
  SelectionGuard guard;
  // A glider starting in the top band walks down-right across both band
  // cuts over 40 generations; banded stepping with ghost-row exchange must
  // reproduce the whole-world oracle bit-for-bit with either kernel.
  Band world(20, 20);
  world.set(2, 3, 1);
  world.set(3, 4, 1);
  world.set(4, 2, 1);
  world.set(4, 3, 1);
  world.set(4, 4, 1);
  const std::vector<int> cuts = {7, 14, 20};
  const int iters = 40;
  const Band oracle = step_world(world, iters);
  ASSERT_GT(oracle.population(), 0u) << "glider left the world; bad setup";
  for (const char* kernel : {"lut", "naive"}) {
    SCOPED_TRACE(kernel);
    LifeBackends::select(kernel);
    ASSERT_TRUE(step_banded(world, cuts, iters) == oracle);
  }
}

TEST(LifeFast, BackendSelectionPrecedence) {
  SelectionGuard guard;
  active_life_kernel();  // ensure registration

  const std::vector<std::string> names = LifeBackends::names();
  ASSERT_NE(std::find(names.begin(), names.end(), "naive"), names.end());
  ASSERT_NE(std::find(names.begin(), names.end(), "lut"), names.end());

  // Registration default: lut.
  LifeBackends::reset_selection();
  EXPECT_EQ(LifeBackends::active_name(), "lut");

  // Explicit select() outranks the registration default.
  LifeBackends::select("naive");
  EXPECT_EQ(LifeBackends::active_name(), "naive");
  EXPECT_EQ(active_life_kernel().id, 0);

  // Unknown explicit selection is a loud error.
  EXPECT_THROW(LifeBackends::select("no-such-kernel"), Error);

  LifeBackends::reset_selection();
  EXPECT_EQ(LifeBackends::active_name(), "lut");
  EXPECT_EQ(active_life_kernel().id, 1);
}

TEST(LifeFast, LeafCellsCounterCountsSteppedCells) {
  const uint32_t seed = dps_testing::effective_seed(0xce11u);
  std::mt19937 rng(seed);
  const Band band = random_band(12, 30, rng);
  const std::vector<uint8_t> dead;
  obs::Counter& cells = obs::Metrics::instance().counter("dps.leaf.cells");
  const uint64_t before = cells.value();
  (void)step_band(band, dead, dead);
  const uint64_t after = cells.value();
  EXPECT_EQ(after - before, 12u * 30u);
}

/// A step_band that switches the flight recorder on before it runs the
/// naive kernel, so the kLeafStep interval around it begins while the
/// recorder is off and ends while it is on.
Band enable_recorder_then_step(const Band& band,
                               const std::vector<uint8_t>& above,
                               const std::vector<uint8_t>& below) {
  obs::Trace::instance().set_enabled(true);
  return step_band_naive(band, above, below);
}

TEST(LifeFast, LeafStepThatStraddlesEnableRecordsNoClockReading) {
  SelectionGuard guard;
  active_life_kernel();  // ensure the built-in kernels register first
  if (LifeBackends::find("enable-recorder") == nullptr) {
    LifeBackends::register_backend(
        "enable-recorder",
        LifeKernel{&enable_recorder_then_step, &step_interior_naive,
                   &step_borders_naive, /*id=*/99});
  }
  LifeBackends::select("enable-recorder");

  obs::Trace& trace = obs::Trace::instance();
  trace.configure({/*enabled=*/false, /*sample_every=*/1,
                   /*buffer_capacity=*/256});
  trace.reset();
  std::mt19937 rng(dps_testing::effective_seed(0x57e9u));
  const Band band = random_band(16, 40, rng);
  const std::vector<uint8_t> dead;
  // The first step straddles set_enabled(true); the second runs with the
  // recorder on from start to end.
  uint64_t wall_ns = 0;
  for (int i = 0; i < 2; ++i) {
    const uint64_t t0 = obs::trace_clock_ns();
    (void)step_band(band, dead, dead);
    wall_ns = std::max(wall_ns, obs::trace_clock_ns() - t0);
  }
  const std::vector<obs::TaggedEvent> events = trace.collect();
  trace.set_enabled(false);
  trace.reset();

  size_t steps = 0;
  for (const obs::TaggedEvent& ev : events) {
    if (ev.e.kind != static_cast<uint16_t>(obs::EventKind::kLeafStep)) continue;
    ++steps;
    EXPECT_EQ(ev.e.a, 99u);
    EXPECT_LE(ev.e.d, wall_ns)
        << "a kLeafStep duration must not exceed the step's wall time";
  }
  EXPECT_EQ(steps, 1u) << "only the step that began while recording counts";
}

}  // namespace
}  // namespace dps::life
