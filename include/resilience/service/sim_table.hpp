#pragma once

// Result types of the simulate mode ("mode": "simulate" requests): a
// SimTable is to the Monte Carlo path what core::SweepTable is to the
// analytic one — an immutable, deterministically ordered result grid the
// cache can share between identical requests. Both table types live in
// the same SweepCache (one LRU, one disk tier) and stream through the
// same line envelope (service/serialize.hpp). Cells are laid out
// point-major, then family, then weibull_shape, then faulty_ops (the two
// sim-only axes), so streaming a table in storage order IS the canonical
// wire order and byte-identity across pool sizes, transports and router
// splits reduces to bit-identical cell values.
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

/// Deterministic simulate result grid; cells in point-major, family,
/// shape, ops order (see cell_index).
struct SimTable {
  std::vector<core::ScenarioPoint> points;
  std::vector<core::PatternKind> kinds;
  SimParams params;  ///< the request's sim block (axes included)
  std::vector<SimCell> cells;

  [[nodiscard]] std::size_t cell_count() const noexcept {
    return points.size() * kinds.size() * params.weibull_shape.size() *
           params.faulty_ops.size();
  }

  /// Storage slot of (point, kind, shape, ops) by index arithmetic.
  [[nodiscard]] std::size_t cell_index(std::size_t point_index,
                                       std::size_t kind_index,
                                       std::size_t shape_index,
                                       std::size_t ops_index) const noexcept {
    return ((point_index * kinds.size() + kind_index) *
                params.weibull_shape.size() +
            shape_index) *
               params.faulty_ops.size() +
           ops_index;
  }
};

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

/// Field-by-field bitwise equality over every cell (doubles by bit
/// pattern), the relation the simulate determinism guarantees are stated
/// in — mirrors core::tables_bit_identical.
[[nodiscard]] bool sim_tables_bit_identical(const SimTable& a,
                                            const SimTable& b) noexcept;

}  // namespace resilience::service
