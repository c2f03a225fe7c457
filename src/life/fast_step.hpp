// Fast Life stepper: 512-entry rule LUT + incremental neighbourhood
// maintenance (the ece454 technique adapted to banded worlds).
//
// The naive kernel in world.cpp recounts all 8 neighbours of every cell
// with bounds checks — ~20 branches per cell. This kernel removes both
// costs:
//
//   * Each column keeps a 3-bit *column triple* — the packed occupancy of
//     (row-1, row, row+1) in that column, the running per-column aggregate
//     over the current row triple. Moving to the next row is one
//     shift-and-or per column (drop the old top bit, shift, or in the new
//     bottom row) — update instead of recount.
//   * Across a row, a 9-bit window of three adjacent column triples slides
//     one triple per cell (`win = (win >> 3) | next_triple << 6`), and the
//     next state is a single load from a precomputed 512-entry rule table
//     indexed by the packed 3x3 neighbourhood. The inner loop is
//     branch-free: one shift, one or, one table load, one store per cell.
//
// The kernels are bit-identical to the naive reference (pinned by the
// LifeFast property suite, which also enumerates all 512 LUT entries) and
// plug into the leaf-backend seam of compute/backend.hpp as "lut".
#pragma once

#include "compute/backend.hpp"
#include "life/world.hpp"

namespace dps::life {

/// The Life kernel family: the three stepping entry points of world.hpp as
/// plain function pointers, registered with compute::BackendRegistry.
struct LifeKernel {
  Band (*step_band)(const Band&, const std::vector<uint8_t>&,
                    const std::vector<uint8_t>&);
  Band (*step_interior)(const Band&);
  void (*step_borders)(const Band&, const std::vector<uint8_t>&,
                       const std::vector<uint8_t>&, Band&);
  uint16_t id;  ///< stable id stamped into kLeafStep trace events
};

using LifeBackends = compute::BackendRegistry<LifeKernel>;

// --- the 512-entry rule LUT ------------------------------------------------

inline constexpr int kRuleLutBits = 9;
inline constexpr int kRuleLutSize = 1 << kRuleLutBits;  // 512

/// Bit position of neighbourhood cell (dr, dc), dr/dc in {-1, 0, 1}, inside
/// a rule-LUT index: three column triples packed left-to-right, each triple
/// bottom-to-top (left column = bits 0..2, centre = 3..5, right = 6..8; the
/// centre cell itself is bit 4).
constexpr int rule_lut_bit(int dr, int dc) { return (dc + 1) * 3 + (1 - dr); }

/// The 512-entry Conway rule table: entry w is the next state of the centre
/// cell of the 3x3 neighbourhood packed per rule_lut_bit().
const uint8_t* rule_lut();

// --- the LUT kernels (bit-identical to the *_naive reference) --------------

Band lut_step_band(const Band& band, const std::vector<uint8_t>& above,
                   const std::vector<uint8_t>& below);
Band lut_step_interior(const Band& band);
void lut_step_borders(const Band& band, const std::vector<uint8_t>& above,
                      const std::vector<uint8_t>& below, Band& out);

/// The active Life kernel. Registers the "naive" and "lut" backends on
/// first use (static-init-order safe: callers can never observe an empty
/// registry), then forwards to LifeBackends::active(). "lut" is the
/// registration default; LifeBackends::select() overrides it.
const LifeKernel& active_life_kernel();

/// Name of the kernel active_life_kernel() returns (for bench/service
/// banners); registers the backends like active_life_kernel().
std::string active_life_kernel_name();

}  // namespace dps::life
