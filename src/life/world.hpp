// Game-of-Life substrate (paper, section 5, "Game of Life").
//
// "The parallel implementation of Conway's Game of Life is especially
// interesting since it exhibits a parallel program structure similar to
// many iterative finite difference computational problems." The world is
// distributed as horizontal bands, one per worker thread; each step needs
// the border rows of the neighbouring bands. This module provides the
// band data structure, the stepping kernels (border rows vs. interior
// rows, so the improved graph can overlap border exchange with interior
// compute), and a sequential reference stepper for correctness checks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dps::life {

/// A dense band of `rows` x `cols` cells (row 0 is the band's top).
class Band {
 public:
  Band() = default;
  Band(int rows, int cols) : rows_(rows), cols_(cols),
                             cells_(static_cast<size_t>(rows) * cols, 0) {}

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  uint8_t at(int r, int c) const {
    return cells_[static_cast<size_t>(r) * cols_ + c];
  }
  void set(int r, int c, uint8_t v) {
    cells_[static_cast<size_t>(r) * cols_ + c] = v;
  }
  const std::vector<uint8_t>& cells() const { return cells_; }
  std::vector<uint8_t>& cells() { return cells_; }

  std::vector<uint8_t> row(int r) const;
  void set_row(int r, const std::vector<uint8_t>& values);

  /// Deterministic pseudo-random initialization (density about 1/3).
  void seed_random(uint64_t seed);

  uint64_t population() const;
  bool operator==(const Band& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_ && cells_ == o.cells_;
  }

 private:
  int rows_ = 0, cols_ = 0;
  std::vector<uint8_t> cells_;
};

/// Next state of the whole band given its neighbours' adjacent border rows
/// (empty vectors mean a dead border — the world edge). Dispatches to the
/// active leaf backend (life/fast_step.hpp; "lut" by default, selectable
/// via LifeBackends::select()) and counts the stepped cells on the
/// always-on `dps.leaf.cells` metric.
Band step_band(const Band& band, const std::vector<uint8_t>& above,
               const std::vector<uint8_t>& below);

/// Next state of only the interior rows 1..rows-2 (no outside knowledge
/// needed); rows 0 and rows-1 of the result are left as in `band` and must
/// be overwritten by step_borders. This is the compute the improved graph
/// (paper Fig. 8) overlaps with the border exchange. Dispatches like
/// step_band.
Band step_interior(const Band& band);

/// Computes the next state of the band's first and last row into `out`
/// using the neighbours' borders; the counterpart of step_interior.
/// Dispatches like step_band.
void step_borders(const Band& band, const std::vector<uint8_t>& above,
                  const std::vector<uint8_t>& below, Band& out);

/// The naive reference kernels: straight-line 9-cell window recount per
/// cell. Every optimized backend must be bit-identical to these (the
/// LifeFast property suite enforces it); step_world below is built on them
/// so cross-backend comparisons always have an independent baseline.
Band step_band_naive(const Band& band, const std::vector<uint8_t>& above,
                     const std::vector<uint8_t>& below);
Band step_interior_naive(const Band& band);
void step_borders_naive(const Band& band, const std::vector<uint8_t>& above,
                        const std::vector<uint8_t>& below, Band& out);

/// Splits a world into `bands` horizontal bands (heights differ by <= 1).
std::vector<Band> split_world(const Band& world, int bands);

/// Reassembles bands into one world.
Band join_bands(const std::vector<Band>& bands);

/// Sequential reference: steps a whole world `iterations` times. Always
/// runs the naive kernel, independent of the active backend, so it stays a
/// trustworthy oracle for end-to-end bit-identity checks.
Band step_world(const Band& world, int iterations);

/// Cell updates per full-world step — calibrates the simulated benchmarks.
inline double step_cost_cells(int rows, int cols) {
  return static_cast<double>(rows) * static_cast<double>(cols);
}

}  // namespace dps::life
