#pragma once

// Result types of the simulate mode ("mode": "simulate" requests): a
// SimTable is core::ResultTable over SimCells with the request's
// SimParams as its header, so the analytic table's writer, decoder,
// bit-identity check, cache and router merge serve it through the hooks
// below. Cells are laid out point-major, then family, then weibull_shape,
// then faulty_ops (the two sim-only axes), so streaming a table in
// storage order IS the canonical wire order and byte-identity across pool
// sizes, transports and router splits reduces to bit-identical cells.
//
// Identity: sim_signature() extends the analytic grid_signature with the
// SimParams (every field is result-affecting — budgets move stopping
// points, axes add cells), and each cell draws from an RNG stream keyed
// by sim_cell_seed(), a pure function of the request seed and the cell's
// fully resolved parameters. A router shard computing one slice of a grid
// therefore derives the exact per-cell seeds the whole grid would.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "resilience/core/sweep.hpp"
#include "resilience/service/scenario_request.hpp"

namespace resilience::service {

/// One Monte Carlo cell: the mean simulated overhead of the cell's
/// first-order pattern with its 95% confidence interval and the run
/// budget the adaptive stopper actually spent.
struct SimCell {
  std::size_t point_index = 0;
  core::PatternKind kind = core::PatternKind::kD;
  double weibull_shape = 1.0;  ///< resolved axis value (1.0 = exponential)
  double faulty_ops = 1.0;     ///< resolved axis value (1.0 = uniform rates)
  double mean = 0.0;           ///< mean simulated overhead
  double ci_low = 0.0;         ///< mean - 95% half-width
  double ci_high = 0.0;        ///< mean + 95% half-width
  std::uint64_t runs = 0;      ///< runs executed (<= sim.max_runs)
  bool early_stopped = false;  ///< target_ci met before max_runs
};

/// The simulate table's hooks (core/sweep.hpp): every (point, family)
/// holds shapes x ops sub-cells, shape-major. A cell's offset compares its
/// axis values exactly: canonical JSON round-trips doubles, and requests
/// repeat no axis value.
[[nodiscard]] inline std::size_t sub_cells(const SimParams& sim) noexcept {
  return sim.weibull_shape.size() * sim.faulty_ops.size();
}
[[nodiscard]] std::size_t sub_index(const SimCell& cell,
                                    const SimParams& sim) noexcept;
/// Field-by-field bitwise equality (doubles by bit pattern), the relation
/// the simulate determinism guarantees are stated in.
[[nodiscard]] bool cells_bit_identical(const SimCell& a,
                                       const SimCell& b) noexcept;
[[nodiscard]] bool headers_bit_identical(const SimParams& a,
                                         const SimParams& b) noexcept;

/// Deterministic simulate result grid: cells in point-major, family,
/// shape, ops order.
using SimTable = core::ResultTable<SimCell, SimParams>;

/// Content identity of a simulate computation: the analytic grid signature
/// of (points, kinds) under default options, extended with every
/// SimParams field — so a change to the analytic signature format re-keys
/// simulate tables too. Carried as a core::GridSignature for its hex round
/// trip and its slot in SweepCache's one index, which it shares with
/// analytic tables: the "sim-" domain tag keeps the two kinds of signature
/// from hashing equal, and a lookup that finds the other mode's table
/// under a signature is a miss anyway.
[[nodiscard]] core::GridSignature sim_signature(
    const std::vector<core::ScenarioPoint>& points,
    const std::vector<core::PatternKind>& kinds, const SimParams& params);

/// The signature hook: sim_signature over the header (a simulate table
/// has no result-affecting SweepOptions).
[[nodiscard]] inline core::GridSignature table_signature(
    const std::vector<core::ScenarioPoint>& points,
    const std::vector<core::PatternKind>& kinds, const SimParams& sim,
    const core::SweepOptions& /*options*/) {
  return sim_signature(points, kinds, sim);
}

/// RNG stream key of one cell: a pure function of the request seed and
/// the cell's fully resolved content (family, point parameters by bit
/// pattern, shape, ops) — NOT of the cell's position in any particular
/// grid, so a router shard serving a sub-grid derives the same per-cell
/// seeds as a whole-grid compute and their bytes agree.
[[nodiscard]] std::uint64_t sim_cell_seed(const SimParams& params,
                                          core::PatternKind kind,
                                          const core::ModelParams& point_params,
                                          double weibull_shape,
                                          double faulty_ops);

}  // namespace resilience::service
