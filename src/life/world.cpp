#include "life/world.hpp"

#include "life/fast_step.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace dps::life {

namespace {

/// Conway rule for one cell given its live-neighbour count.
inline uint8_t rule(uint8_t alive, int neighbours) {
  if (alive != 0) return (neighbours == 2 || neighbours == 3) ? 1 : 0;
  return neighbours == 3 ? 1 : 0;
}

/// Live neighbours of (r, c) inside the band extended by the given border
/// rows; out-of-range cells are dead.
int neighbours_of(const Band& b, const std::vector<uint8_t>& above,
                  const std::vector<uint8_t>& below, int r, int c) {
  const int rows = b.rows(), cols = b.cols();
  int n = 0;
  for (int dr = -1; dr <= 1; ++dr) {
    for (int dc = -1; dc <= 1; ++dc) {
      if (dr == 0 && dc == 0) continue;
      const int rr = r + dr, cc = c + dc;
      if (cc < 0 || cc >= cols) continue;
      if (rr == -1) {
        if (!above.empty()) n += above[static_cast<size_t>(cc)];
      } else if (rr == rows) {
        if (!below.empty()) n += below[static_cast<size_t>(cc)];
      } else if (rr >= 0 && rr < rows) {
        n += b.at(rr, cc);
      }
    }
  }
  return n;
}

}  // namespace

std::vector<uint8_t> Band::row(int r) const {
  DPS_CHECK(r >= 0 && r < rows_, "row out of range");
  return std::vector<uint8_t>(
      cells_.begin() + static_cast<ptrdiff_t>(r) * cols_,
      cells_.begin() + static_cast<ptrdiff_t>(r + 1) * cols_);
}

void Band::set_row(int r, const std::vector<uint8_t>& values) {
  DPS_CHECK(r >= 0 && r < rows_, "row out of range");
  DPS_CHECK(static_cast<int>(values.size()) == cols_, "row width mismatch");
  std::copy(values.begin(), values.end(),
            cells_.begin() + static_cast<ptrdiff_t>(r) * cols_);
}

void Band::seed_random(uint64_t seed) {
  uint64_t s = seed * 2862933555777941757ull + 3037000493ull;
  for (uint8_t& c : cells_) {
    s = s * 2862933555777941757ull + 3037000493ull;
    c = ((s >> 33) % 3u) == 0 ? 1 : 0;
  }
}

uint64_t Band::population() const {
  uint64_t p = 0;
  for (uint8_t c : cells_) p += c;
  return p;
}

Band step_band_naive(const Band& band, const std::vector<uint8_t>& above,
                     const std::vector<uint8_t>& below) {
  Band next(band.rows(), band.cols());
  for (int r = 0; r < band.rows(); ++r) {
    for (int c = 0; c < band.cols(); ++c) {
      next.set(r, c, rule(band.at(r, c), neighbours_of(band, above, below, r, c)));
    }
  }
  return next;
}

Band step_interior_naive(const Band& band) {
  Band next = band;  // border rows keep old values until step_borders
  for (int r = 1; r < band.rows() - 1; ++r) {
    for (int c = 0; c < band.cols(); ++c) {
      next.set(r, c, rule(band.at(r, c), neighbours_of(band, {}, {}, r, c)));
    }
  }
  return next;
}

void step_borders_naive(const Band& band, const std::vector<uint8_t>& above,
                        const std::vector<uint8_t>& below, Band& out) {
  DPS_CHECK(out.rows() == band.rows() && out.cols() == band.cols(),
            "step_borders size mismatch");
  const int last = band.rows() - 1;
  for (int c = 0; c < band.cols(); ++c) {
    out.set(0, c, rule(band.at(0, c), neighbours_of(band, above, below, 0, c)));
  }
  if (last > 0) {
    for (int c = 0; c < band.cols(); ++c) {
      out.set(last, c,
              rule(band.at(last, c), neighbours_of(band, above, below, last, c)));
    }
  }
}

namespace {

/// Cells stepped through the backend seam — always on, so production
/// deployments can watch leaf throughput without the flight recorder.
obs::Counter& leaf_cells_counter() {
  static obs::Counter& c = obs::Metrics::instance().counter("dps.leaf.cells");
  return c;
}

/// Records one kLeafStep kernel interval (a=kernel id, b=rows, c=cols,
/// d=ns) when the flight recorder is enabled. An interval that began while
/// the recorder was off has no start time and records nothing.
struct LeafStepInterval {
  const LifeKernel& kernel;
  uint64_t rows, cols;
  uint64_t t0 = 0;  ///< 0: the recorder was off when the interval began
  LeafStepInterval(const LifeKernel& k, uint64_t r, uint64_t c)
      : kernel(k), rows(r), cols(c) {
    if (obs::tracing_active()) t0 = obs::trace_clock_ns();
  }
  ~LeafStepInterval() {
    if (t0 != 0 && obs::tracing_active()) {
      obs::Trace::instance().record(obs::EventKind::kLeafStep, 0, kernel.id,
                                    rows, cols, obs::trace_clock_ns() - t0);
    }
  }
};

}  // namespace

Band step_band(const Band& band, const std::vector<uint8_t>& above,
               const std::vector<uint8_t>& below) {
  const LifeKernel& k = active_life_kernel();
  leaf_cells_counter().inc(static_cast<uint64_t>(band.rows()) *
                           static_cast<uint64_t>(band.cols()));
  const LeafStepInterval interval(k, band.rows(), band.cols());
  return k.step_band(band, above, below);
}

Band step_interior(const Band& band) {
  const LifeKernel& k = active_life_kernel();
  const int interior_rows = band.rows() > 2 ? band.rows() - 2 : 0;
  leaf_cells_counter().inc(static_cast<uint64_t>(interior_rows) *
                           static_cast<uint64_t>(band.cols()));
  const LeafStepInterval interval(k, band.rows(), band.cols());
  return k.step_interior(band);
}

void step_borders(const Band& band, const std::vector<uint8_t>& above,
                  const std::vector<uint8_t>& below, Band& out) {
  const LifeKernel& k = active_life_kernel();
  const int border_rows = band.rows() > 1 ? 2 : band.rows();
  leaf_cells_counter().inc(static_cast<uint64_t>(border_rows) *
                           static_cast<uint64_t>(band.cols()));
  const LeafStepInterval interval(k, band.rows(), band.cols());
  k.step_borders(band, above, below, out);
}

std::vector<Band> split_world(const Band& world, int bands) {
  DPS_CHECK(bands > 0 && bands <= world.rows(), "invalid band count");
  std::vector<Band> out;
  out.reserve(static_cast<size_t>(bands));
  const int base = world.rows() / bands;
  const int extra = world.rows() % bands;
  int r0 = 0;
  for (int b = 0; b < bands; ++b) {
    const int h = base + (b < extra ? 1 : 0);
    Band band(h, world.cols());
    for (int r = 0; r < h; ++r) band.set_row(r, world.row(r0 + r));
    out.push_back(std::move(band));
    r0 += h;
  }
  return out;
}

Band join_bands(const std::vector<Band>& bands) {
  DPS_CHECK(!bands.empty(), "join_bands: no bands");
  int rows = 0;
  const int cols = bands.front().cols();
  for (const Band& b : bands) rows += b.rows();
  Band world(rows, cols);
  int r0 = 0;
  for (const Band& b : bands) {
    DPS_CHECK(b.cols() == cols, "join_bands: width mismatch");
    for (int r = 0; r < b.rows(); ++r) world.set_row(r0 + r, b.row(r));
    r0 += b.rows();
  }
  return world;
}

Band step_world(const Band& world, int iterations) {
  Band cur = world;
  for (int i = 0; i < iterations; ++i) cur = step_band_naive(cur, {}, {});
  return cur;
}

}  // namespace dps::life
