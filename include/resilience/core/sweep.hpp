#pragma once

// Scenario-sweep engine: the paper's entire experimental section
// (Figures 6-9, Table 1, the ablations) re-optimizes the resilience
// pattern across grids of platforms, node counts, error-rate factors and
// checkpoint-cost overrides. ScenarioGrid describes such a grid as a
// cartesian product of axes; SweepRunner optimizes every (point, family)
// cell across the thread pool, warm-starting each point's (n, m, W) search
// from its grid neighbor's optimum instead of the first-order seed, and
// returns a deterministic result table regardless of pool size.
//
// Scheduling/warm-start policy: points sharing (platform, cost override,
// family) form a *chain* ordered by (node count, rate factors). Chains are
// independent tasks fanned out across the pool; within a chain the points
// run sequentially, each seeded with the previous optimum. Adjacent points
// along a chain differ by one small parameter step, so their optima are
// lattice neighbors and the warm descent converges in a couple of cell
// evaluations — while cross-chain independence keeps the schedule
// deterministic: every cell is written exactly once, by its own chain.
//
// Cross-grid reuse: a chain's identity (ChainKey) is independent of the
// (node count, rate factor) axes, so chains recur across incrementally
// evolving grids. A SeedSource supplies finished optima from such sibling
// chains; the runner reuses a supplied cell outright when its resolved
// parameters bit-match the requested point's (cell values are pure
// functions of (kind, params, result-affecting options)), and otherwise
// warm-starts cold chain heads from the nearest supplied point. Either
// way the table stays bit-identical to a sweep without any seeds.
//
// ResultTable<Cell, Header> is the table type of both modes: SweepTable
// here, service::SimTable (sim_table.hpp) for Monte Carlo cells. Code
// that handles tables is written once over the cell and header hooks.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "resilience/core/cancel.hpp"
#include "resilience/core/first_order.hpp"
#include "resilience/core/optimizer.hpp"
#include "resilience/core/params.hpp"
#include "resilience/core/pattern.hpp"
#include "resilience/core/platform.hpp"

namespace resilience::util {
class ThreadPool;  // the options only carry a pointer; see thread_pool.hpp
}

namespace resilience::core {

/// Error-rate multipliers applied on top of a platform's nominal rates
/// (Figure 9 sweeps).
struct RateFactors {
  double fail_stop = 1.0;
  double silent = 1.0;
};

/// Cost-parameter overrides applied on top of the platform's derived model
/// parameters. Negative values keep the platform's own value.
struct CostOverride {
  double disk_checkpoint = -1.0;     ///< C_D (Figure 8, two-level ablation)
  double partial_verification = -1.0;  ///< V (recall ablation)
  double recall = -1.0;              ///< r (recall ablation)
};

/// Cartesian product of scenario axes. Empty axes mean "platform default"
/// (a single implicit element), so a grid is never empty once it has a
/// platform.
struct ScenarioGrid {
  std::vector<Platform> platforms;           ///< required, at least one
  std::vector<std::size_t> node_counts;      ///< weak-scaling axis; empty = own
  std::vector<RateFactors> rate_factors;     ///< empty = nominal rates
  std::vector<CostOverride> cost_overrides;  ///< empty = no override
  std::vector<PatternKind> kinds;            ///< empty = all six families

  /// Both counts throw std::length_error when they overflow size_t.
  [[nodiscard]] std::size_t point_count() const;
  [[nodiscard]] std::size_t cell_count() const;
  [[nodiscard]] std::vector<PatternKind> resolved_kinds() const;

  /// Validates every axis up front: at least one platform, positive node
  /// counts, positive (finite) rate factors, and cost overrides that are
  /// either non-negative or exactly the -1 "keep platform value" sentinel.
  /// Throws std::invalid_argument naming the offending axis and index,
  /// e.g. "ScenarioGrid.node_counts[2]: node count must be positive".
  void validate() const;
};

/// One fully resolved grid point (a platform instantiation).
struct ScenarioPoint {
  std::size_t platform_index = 0;
  std::size_t node_index = 0;
  std::size_t rate_index = 0;
  std::size_t cost_index = 0;
  Platform platform;   ///< after node scaling / rate factors / cost override
  ModelParams params;  ///< resolved model parameters (overrides applied)
};

/// Resolves the grid's points in deterministic row-major order
/// (platform-major, then node count, then rate factors, then cost
/// override). Exposed so drivers can iterate the same ordering the
/// SweepRunner table uses.
[[nodiscard]] std::vector<ScenarioPoint> resolve_points(const ScenarioGrid& grid);

/// Result of one (point, family) cell.
struct SweepCell {
  std::size_t point_index = 0;
  PatternKind kind = PatternKind::kD;
  /// Closed-form first-order solution (Table 1), the paper's prediction.
  FirstOrderSolution first_order;
  /// Exact H of the first-order pattern (+inf when the evaluator rejects
  /// it, e.g. success-probability underflow at extreme scales).
  double exact_at_first_order = 0.0;
  /// Numeric optimum over (n, m, W) on the exact model.
  std::size_t segments_n = 1;
  std::size_t chunks_m = 1;
  double work = 0.0;
  double overhead = 0.0;
  /// Whether this cell's search was seeded from its chain predecessor.
  bool warm_started = false;
};

/// An analytic table's header: empty, as a cell sits at its (point,
/// family) alone. A simulate table's SimParams header adds sub-cells.
struct SweepHeader {};

/// Per-header hooks: the sub-cells of one (point, family), a cell's
/// offset among them (sub_cells(header) when it fits none), and bitwise
/// header equality.
[[nodiscard]] constexpr std::size_t sub_cells(const SweepHeader&) noexcept {
  return 1;
}
[[nodiscard]] constexpr std::size_t sub_index(const SweepCell&,
                                              const SweepHeader&) noexcept {
  return 0;
}
[[nodiscard]] constexpr bool headers_bit_identical(
    const SweepHeader&, const SweepHeader&) noexcept {
  return true;
}

/// Deterministic result table: cells are stored point-major in the
/// resolve_points() order, then by family in `kinds` order, then by
/// sub-cell, which is the canonical wire order.
template <class Cell, class Header>
struct ResultTable {
  std::vector<ScenarioPoint> points;
  std::vector<PatternKind> kinds;
  Header header;
  std::vector<Cell> cells;
  /// kind -> column slot in the family layout (-1 = family absent).
  /// Tables from the engines, the service deserializer and the router
  /// arrive indexed; hand-assembled tables must call index_kinds() first.
  std::array<std::int8_t, kPatternKindCount> kind_slot = {-1, -1, -1,
                                                          -1, -1, -1};

  /// Rebuilds kind_slot from kinds.
  void index_kinds() {
    kind_slot.fill(-1);
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      kind_slot[static_cast<std::size_t>(kinds[k])] =
          static_cast<std::int8_t>(k);
    }
  }

  [[nodiscard]] std::size_t cells_per_point() const noexcept {
    return kinds.size() * sub_cells(header);
  }
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return points.size() * cells_per_point();
  }

  /// Storage slot of (point, family column, sub-cell) by index arithmetic.
  [[nodiscard]] std::size_t cell_index(std::size_t point_index,
                                       std::size_t kind_index,
                                       std::size_t sub = 0) const noexcept {
    return point_index * cells_per_point() + kind_index * sub_cells(header) +
           sub;
  }

  /// O(1) lookup by index arithmetic; throws std::out_of_range for an
  /// unknown point, family or sub-cell.
  [[nodiscard]] const Cell& cell(std::size_t point_index, PatternKind kind,
                                 std::size_t sub = 0) const {
    const auto k = static_cast<std::size_t>(kind);
    const std::int8_t slot = k < kind_slot.size() ? kind_slot[k] : -1;
    if (point_index >= points.size() || slot < 0 || sub >= sub_cells(header)) {
      throw std::out_of_range("ResultTable::cell: no such point/family");
    }
    return cells[cell_index(point_index, static_cast<std::size_t>(slot), sub)];
  }
};

using SweepTable = ResultTable<SweepCell, SweepHeader>;

/// Stable 64-bit content identity of a sweep computation: a hash over the
/// fully resolved grid points (platform identity, node counts, rates and
/// cost parameters after every axis application), the resolved family
/// list, and the option fields that affect cell values. Equal content
/// always hashes equal, so this is the cache/dedupe key of the service
/// layer — but the hash is not cryptographic, so reuse sites must still
/// verify the stored grid against the requested one before serving a
/// shared table (SweepService does; see table_matches_grid).
struct GridSignature {
  std::uint64_t value = 0;

  friend bool operator==(GridSignature a, GridSignature b) noexcept {
    return a.value == b.value;
  }
  friend bool operator!=(GridSignature a, GridSignature b) noexcept {
    return a.value != b.value;
  }

  /// 16-digit lowercase hex, e.g. "9ae16a3b2f90404f" — the wire form
  /// (JSON numbers cannot carry 64 bits exactly).
  [[nodiscard]] std::string hex() const;

  /// Inverse of hex(); nullopt unless `text` is exactly 16 lowercase hex
  /// digits (the persistence layer parses cache filenames through this).
  [[nodiscard]] static std::optional<GridSignature> from_hex(
      std::string_view text);
};

struct SweepOptions;  // declared below

/// Stable 64-bit sub-signature of one *chain* — the unit of cross-grid
/// reuse the GridSignature factors into. A chain is pinned by the base
/// platform (every field), the cost override, the pattern family and the
/// result-affecting option fields; the (node count, rate factor) axes are
/// deliberately excluded — they only position points ALONG the chain.
/// Equal keys mean each resolved point of either chain is the same pure
/// function of its (node count, rate factors) coordinate, so one chain's
/// finished optima are valid warm-start seeds — and, at bit-equal resolved
/// parameters, valid cell values — for the other. Like GridSignature the
/// hash is not cryptographic, so value reuse additionally requires the
/// bitwise parameter match SweepRunner performs per point (see ChainSeed).
struct ChainKey {
  std::uint64_t value = 0;

  friend bool operator==(ChainKey a, ChainKey b) noexcept {
    return a.value == b.value;
  }
  friend bool operator!=(ChainKey a, ChainKey b) noexcept {
    return a.value != b.value;
  }

  [[nodiscard]] std::string hex() const;
  [[nodiscard]] static std::optional<ChainKey> from_hex(std::string_view text);
};

/// One chain of a grid: fixed (platform, cost override, family), walking
/// the (node count, rate factor) axes sequentially. `cost_index` is 0 when
/// the override axis is empty (the implicit no-override element).
struct GridChain {
  std::size_t platform_index = 0;
  std::size_t cost_index = 0;
  PatternKind kind = PatternKind::kD;
  ChainKey key;
};

/// Sub-signature of the chain (platform, cost_override, kind) under the
/// result-affecting fields of `options`. Pass CostOverride{} (all
/// sentinels) for a grid with an empty override axis.
[[nodiscard]] ChainKey chain_key(const Platform& platform,
                                 const CostOverride& cost_override,
                                 PatternKind kind, const SweepOptions& options);

/// Chains of `grid` in the runner's deterministic order (platform-major,
/// then cost override, then family). Validates the grid.
[[nodiscard]] std::vector<GridChain> grid_chains(const ScenarioGrid& grid,
                                                 const SweepOptions& options);

/// One reusable optimum from a chain finished under the same ChainKey: the
/// point's position (node count + fully resolved parameters) and its
/// finished cell. When `params` bit-matches a requested point's resolved
/// parameters the cell IS that point's result — cell values are pure
/// functions of (kind, params, result-affecting options), pinned by the
/// bit-identity tests — and the runner reuses it outright; otherwise the
/// cell's (n, m, W) optimum seeds the nearest new point's search.
struct ChainSeed {
  std::size_t node_count = 0;  ///< resolved platform nodes at the point
  ModelParams params;          ///< fully resolved point parameters
  SweepCell cell;  ///< finished cell (indices relative to the source grid)
};

/// Supplies per-chain starting optima from outside the grid (the service
/// layer's seed index over cached tables). Queried at most once per chain,
/// from whichever pool thread runs the chain — implementations must be
/// safe to call concurrently. Seeds accelerate a sweep but never change
/// it: the returned table is bit-identical with any SeedSource, including
/// none (enforced by tests and the bench_micro reuse gate).
class SeedSource {
 public:
  virtual ~SeedSource() = default;
  /// Seed candidates for `chain`; empty = cold start.
  virtual std::vector<ChainSeed> seeds_for(const GridChain& chain) = 0;
};

/// Computes the signature of running `grid` under `options`. Validates the
/// grid (same exceptions as resolve_points). Option fields that cannot
/// change results — pool choice, warm-start policy, scan radius — are
/// excluded, so a warm-started sweep and a cold one share a cache entry.
[[nodiscard]] GridSignature grid_signature(const ScenarioGrid& grid,
                                           const SweepOptions& options);

/// Same signature computed from already-resolved points and kinds (what
/// the service uses so one resolve serves validation, signature and
/// collision verification).
[[nodiscard]] GridSignature grid_signature(
    const std::vector<ScenarioPoint>& points,
    const std::vector<PatternKind>& kinds, const SweepOptions& options);

/// The per-header signature hook: an analytic table signs as
/// grid_signature under `options`.
[[nodiscard]] inline GridSignature table_signature(
    const std::vector<ScenarioPoint>& points,
    const std::vector<PatternKind>& kinds, const SweepHeader&,
    const SweepOptions& options) {
  return grid_signature(points, kinds, options);
}

/// Field-by-field bitwise equality — doubles compared by bit pattern (so
/// NaN == NaN, -0.0 != 0.0). This is the "bit-identical" relation the
/// determinism, streaming and caching guarantees are stated in, used by
/// the tests, bench_micro and sweep_server --check.
[[nodiscard]] bool same_bits(double a, double b) noexcept;
[[nodiscard]] bool cells_bit_identical(const SweepCell& a,
                                       const SweepCell& b) noexcept;
[[nodiscard]] bool params_bit_identical(const ModelParams& a,
                                        const ModelParams& b) noexcept;
[[nodiscard]] bool points_bit_identical(const ScenarioPoint& a,
                                        const ScenarioPoint& b) noexcept;

template <class Cell, class Header>
[[nodiscard]] bool tables_bit_identical(
    const ResultTable<Cell, Header>& a,
    const ResultTable<Cell, Header>& b) noexcept {
  const auto same_cells = [](const Cell& x, const Cell& y) {
    return cells_bit_identical(x, y);
  };
  return a.kinds == b.kinds && headers_bit_identical(a.header, b.header) &&
         std::equal(a.points.begin(), a.points.end(), b.points.begin(),
                    b.points.end(), points_bit_identical) &&
         std::equal(a.cells.begin(), a.cells.end(), b.cells.begin(),
                    b.cells.end(), same_cells);
}

/// Receives cells as chains finish them. SweepRunner::run(grid, sink)
/// invokes on_cell exactly once per (point, family) cell, serialized under
/// an internal mutex — implementations need no locking of their own.
/// Delivery order varies with the pool schedule, but each cell's contents
/// are bit-identical to the batch table's.
class CellSink {
 public:
  virtual ~CellSink() = default;
  virtual void on_cell(const SweepCell& cell) = 0;
};

/// Sweep execution options.
struct SweepOptions {
  OptimizerOptions optimizer;  ///< bounds/tolerances for every cell
  /// Run the numeric (n, m, W) optimization per cell. Drivers that only
  /// consume the first-order/exact columns (pure Table 1 sweeps like the
  /// recall and two-level ablations) can switch this off; the numeric
  /// fields of each cell then stay at their defaults.
  bool numeric_optimum = true;
  /// Seed each point from its chain predecessor's optimum. Warm starts
  /// shrink the scanned (n, m) window and center the W bracket; the
  /// descent still converges to the same lattice optimum as a cold start.
  bool warm_start = true;
  /// (n, m) scan half-width for warm-started points (cold points use
  /// optimizer.scan_radius).
  std::size_t warm_scan_radius = 1;
  /// External warm-start provider consulted once per chain (nullptr =
  /// none). Excluded from the grid signature like every other execution
  /// policy field: seeds move scan windows and let bit-equal points be
  /// reused outright, but the resulting table is bit-identical to a sweep
  /// without them.
  SeedSource* seed_source = nullptr;
  /// Pool the chains fan out across; nullptr means the global pool. The
  /// result is bit-identical regardless of pool size.
  util::ThreadPool* pool = nullptr;
  /// Cooperative cancellation, polled once per cell. When it fires the
  /// runner stops starting cells and run() throws SweepCancelled; no
  /// partial table escapes. Execution policy like `pool`: excluded from
  /// grid signatures (a cancelled and an uncancelled sweep of the same
  /// grid share a cache identity — only one ever publishes a table).
  CancelToken cancel;
};

/// Runs scenario grids. Stateless apart from options; run() may be called
/// repeatedly and concurrently from the owning thread's perspective.
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Optimizes every (point, family) cell of the grid. Throws
  /// std::invalid_argument on an invalid grid (see ScenarioGrid::validate)
  /// and SweepCancelled when options().cancel fires mid-sweep.
  [[nodiscard]] SweepTable run(const ScenarioGrid& grid) const;

  /// Streaming variant: additionally delivers every finished cell to
  /// `sink` as its chain completes it (see CellSink for the contract).
  /// The returned table is identical to the non-streaming run's.
  [[nodiscard]] SweepTable run(const ScenarioGrid& grid, CellSink& sink) const;

  [[nodiscard]] const SweepOptions& options() const noexcept { return options_; }

 private:
  SweepTable run_impl(const ScenarioGrid& grid, CellSink* sink) const;

  SweepOptions options_;
};

}  // namespace resilience::core
