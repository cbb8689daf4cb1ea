#include "resilience/core/sweep.hpp"

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "resilience/core/expected_time.hpp"
#include "resilience/util/fnv1a.hpp"
#include "resilience/util/thread_pool.hpp"

namespace resilience::core {

namespace {

/// Implicit single-element axes: an empty axis means "platform default".
std::size_t axis_size(std::size_t declared) noexcept {
  return declared == 0 ? 1 : declared;
}

std::string axis_error(const char* axis, std::size_t index,
                       const std::string& what) {
  return "ScenarioGrid." + std::string(axis) + "[" + std::to_string(index) +
         "]: " + what;
}

/// A cost-override field is either >= 0 (override) or exactly -1 (keep the
/// platform's value). Anything else is a typo, not a sentinel.
void check_override_field(const char* axis, std::size_t index,
                          const char* field, double value) {
  if (std::isnan(value) || (value < 0.0 && value != -1.0)) {
    throw std::invalid_argument(
        axis_error(axis, index, std::string(field) +
                                    " must be >= 0 or the -1 sentinel (got " +
                                    std::to_string(value) + ")"));
  }
}

/// The option fields that change cell values — the shared factor of
/// GridSignature and ChainKey. Warm-start policy, scan radius, seed source
/// and pool choice are deliberately excluded: the runner guarantees they
/// do not change results (pinned by the determinism/bit-identity tests).
void mix_result_options(util::Fnv1a& hasher, const SweepOptions& options) {
  hasher.mix(options.numeric_optimum);
  const OptimizerOptions& opt = options.optimizer;
  hasher.mix(std::uint64_t{opt.max_segments});
  hasher.mix(std::uint64_t{opt.max_chunks});
  hasher.mix(opt.work_lo);
  hasher.mix(opt.work_hi);
  hasher.mix(opt.work_tolerance);
  hasher.mix(opt.optimize_chunk_fractions);
  hasher.mix(opt.evaluation.faulty_verifications);
  hasher.mix(opt.evaluation.faulty_operations);
  hasher.mix(opt.legacy_cell_evaluation);
}

std::string hex64(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (std::size_t i = 16; i-- > 0; value >>= 4) {
    out[i] = digits[value & 0xF];
  }
  return out;
}

bool parse_hex64(std::string_view text, std::uint64_t& out) {
  if (text.size() != 16) {
    return false;
  }
  std::uint64_t value = 0;
  for (const char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  out = value;
  return true;
}

}  // namespace

std::size_t ScenarioGrid::point_count() const noexcept {
  return platforms.size() * axis_size(node_counts.size()) *
         axis_size(rate_factors.size()) * axis_size(cost_overrides.size());
}

std::size_t ScenarioGrid::cell_count() const {
  return point_count() * resolved_kinds().size();
}

std::vector<PatternKind> ScenarioGrid::resolved_kinds() const {
  return kinds.empty() ? all_pattern_kinds() : kinds;
}

void ScenarioGrid::validate() const {
  if (platforms.empty()) {
    throw std::invalid_argument("ScenarioGrid: need at least one platform");
  }
  for (std::size_t i = 0; i < node_counts.size(); ++i) {
    if (node_counts[i] == 0) {
      throw std::invalid_argument(
          axis_error("node_counts", i, "node count must be positive"));
    }
  }
  for (std::size_t i = 0; i < rate_factors.size(); ++i) {
    const RateFactors& f = rate_factors[i];
    if (!(f.fail_stop > 0.0) || std::isinf(f.fail_stop)) {
      throw std::invalid_argument(axis_error(
          "rate_factors", i, "fail_stop factor must be positive and finite"));
    }
    if (!(f.silent > 0.0) || std::isinf(f.silent)) {
      throw std::invalid_argument(axis_error(
          "rate_factors", i, "silent factor must be positive and finite"));
    }
  }
  for (std::size_t i = 0; i < cost_overrides.size(); ++i) {
    const CostOverride& o = cost_overrides[i];
    check_override_field("cost_overrides", i, "disk_checkpoint",
                         o.disk_checkpoint);
    check_override_field("cost_overrides", i, "partial_verification",
                         o.partial_verification);
    check_override_field("cost_overrides", i, "recall", o.recall);
  }
}

std::vector<ScenarioPoint> resolve_points(const ScenarioGrid& grid) {
  grid.validate();
  const std::size_t nodes_n = axis_size(grid.node_counts.size());
  const std::size_t rates_n = axis_size(grid.rate_factors.size());
  const std::size_t costs_n = axis_size(grid.cost_overrides.size());

  std::vector<ScenarioPoint> points;
  points.reserve(grid.platforms.size() * nodes_n * rates_n * costs_n);
  for (std::size_t ip = 0; ip < grid.platforms.size(); ++ip) {
    for (std::size_t in = 0; in < nodes_n; ++in) {
      for (std::size_t ir = 0; ir < rates_n; ++ir) {
        for (std::size_t ic = 0; ic < costs_n; ++ic) {
          ScenarioPoint point;
          point.platform_index = ip;
          point.node_index = in;
          point.rate_index = ir;
          point.cost_index = ic;
          Platform platform = grid.platforms[ip];
          if (!grid.node_counts.empty()) {
            platform = platform.scaled_to(grid.node_counts[in]);
          }
          if (!grid.rate_factors.empty()) {
            const RateFactors& f = grid.rate_factors[ir];
            platform = platform.with_rate_factors(f.fail_stop, f.silent);
          }
          if (!grid.cost_overrides.empty()) {
            const CostOverride& o = grid.cost_overrides[ic];
            if (o.disk_checkpoint >= 0.0) {
              platform = platform.with_disk_checkpoint(o.disk_checkpoint);
            }
          }
          point.platform = platform;
          point.params = platform.model_params();
          if (!grid.cost_overrides.empty()) {
            const CostOverride& o = grid.cost_overrides[ic];
            if (o.partial_verification >= 0.0) {
              point.params.costs.partial_verification = o.partial_verification;
            }
            if (o.recall >= 0.0) {
              point.params.costs.recall = o.recall;
            }
            point.params.validate();
          }
          points.push_back(std::move(point));
        }
      }
    }
  }
  return points;
}

void SweepTable::index_kinds() {
  kind_slot.fill(-1);
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    kind_slot[static_cast<std::size_t>(kinds[k])] =
        static_cast<std::int8_t>(k);
  }
}

const SweepCell& SweepTable::cell(std::size_t point_index, PatternKind kind) const {
  const auto k = static_cast<std::size_t>(kind);
  const std::int8_t slot = k < kind_slot.size() ? kind_slot[k] : -1;
  if (point_index >= points.size() || slot < 0) {
    throw std::out_of_range("SweepTable::cell: no such point/family");
  }
  return cells[point_index * kinds.size() + static_cast<std::size_t>(slot)];
}

std::string GridSignature::hex() const { return hex64(value); }

std::optional<GridSignature> GridSignature::from_hex(std::string_view text) {
  std::uint64_t value = 0;
  if (!parse_hex64(text, value)) {
    return std::nullopt;
  }
  return GridSignature{value};
}

std::string ChainKey::hex() const { return hex64(value); }

std::optional<ChainKey> ChainKey::from_hex(std::string_view text) {
  std::uint64_t value = 0;
  if (!parse_hex64(text, value)) {
    return std::nullopt;
  }
  return ChainKey{value};
}

ChainKey chain_key(const Platform& platform, const CostOverride& cost_override,
                   PatternKind kind, const SweepOptions& options) {
  util::Fnv1a hasher;
  // Format version 2: cell values come from the Brent W search; version-1
  // spills and seeds (golden section) must not be served or reused.
  hasher.mix(std::uint64_t{2});  // chain-key format version
  hasher.mix(platform.name);
  hasher.mix(std::uint64_t{platform.nodes});
  hasher.mix(platform.rates.fail_stop);
  hasher.mix(platform.rates.silent);
  hasher.mix(platform.disk_checkpoint);
  hasher.mix(platform.memory_checkpoint);
  hasher.mix(cost_override.disk_checkpoint);
  hasher.mix(cost_override.partial_verification);
  hasher.mix(cost_override.recall);
  hasher.mix(std::uint64_t{static_cast<std::size_t>(kind)});
  mix_result_options(hasher, options);
  return ChainKey{hasher.value()};
}

std::vector<GridChain> grid_chains(const ScenarioGrid& grid,
                                   const SweepOptions& options) {
  grid.validate();
  const std::size_t costs_n = axis_size(grid.cost_overrides.size());
  const std::vector<PatternKind> kinds = grid.resolved_kinds();
  std::vector<GridChain> chains;
  chains.reserve(grid.platforms.size() * costs_n * kinds.size());
  for (std::size_t ip = 0; ip < grid.platforms.size(); ++ip) {
    for (std::size_t ic = 0; ic < costs_n; ++ic) {
      const CostOverride cost_override =
          grid.cost_overrides.empty() ? CostOverride{} : grid.cost_overrides[ic];
      for (std::size_t ik = 0; ik < kinds.size(); ++ik) {
        GridChain chain;
        chain.platform_index = ip;
        chain.cost_index = ic;
        chain.kind = kinds[ik];
        chain.key = chain_key(grid.platforms[ip], cost_override, kinds[ik],
                              options);
        chains.push_back(chain);
      }
    }
  }
  return chains;
}

GridSignature grid_signature(const ScenarioGrid& grid,
                             const SweepOptions& options) {
  return grid_signature(resolve_points(grid) /* validates */,
                        grid.resolved_kinds(), options);
}

GridSignature grid_signature(const std::vector<ScenarioPoint>& points,
                             const std::vector<PatternKind>& kinds,
                             const SweepOptions& options) {
  util::Fnv1a hasher;
  hasher.mix(std::uint64_t{2});  // signature format version (see chain_key)

  // Everything an observer of the resulting SweepTable can see about a
  // point: platform identity and the fully resolved cost/rate parameters.
  hasher.mix(std::uint64_t{points.size()});
  for (const ScenarioPoint& point : points) {
    hasher.mix(point.platform.name);
    hasher.mix(std::uint64_t{point.platform.nodes});
    hasher.mix(point.platform.rates.fail_stop);
    hasher.mix(point.platform.rates.silent);
    hasher.mix(point.platform.disk_checkpoint);
    hasher.mix(point.platform.memory_checkpoint);
    hasher.mix(point.params.rates.fail_stop);
    hasher.mix(point.params.rates.silent);
    const CostParams& costs = point.params.costs;
    hasher.mix(costs.disk_checkpoint);
    hasher.mix(costs.memory_checkpoint);
    hasher.mix(costs.disk_recovery);
    hasher.mix(costs.memory_recovery);
    hasher.mix(costs.guaranteed_verification);
    hasher.mix(costs.partial_verification);
    hasher.mix(costs.recall);
  }

  hasher.mix(std::uint64_t{kinds.size()});
  for (const PatternKind kind : kinds) {
    hasher.mix(std::uint64_t{static_cast<std::size_t>(kind)});
  }

  mix_result_options(hasher, options);

  return GridSignature{hasher.value()};
}

namespace {

bool same_bits(double a, double b) noexcept {
  std::uint64_t bits_a = 0;
  std::uint64_t bits_b = 0;
  std::memcpy(&bits_a, &a, sizeof bits_a);
  std::memcpy(&bits_b, &b, sizeof bits_b);
  return bits_a == bits_b;
}

/// |ln(a/b)| as a seed-distance component; positions that cannot be
/// compared on a log scale count as far-but-finite so a degenerate seed
/// list still yields a deterministic choice.
double log_distance(double a, double b) noexcept {
  if (!(a > 0.0) || !(b > 0.0) || std::isinf(a) || std::isinf(b)) {
    return same_bits(a, b) ? 0.0 : 1e3;
  }
  return std::fabs(std::log(a / b));
}

/// Nearest usable seed along the chain's (node count, rate factor)
/// ordering: node count is the outer (coarser) axis, so it dominates the
/// distance; ties resolve to the earliest candidate, which keeps the
/// choice deterministic for a fixed seed list. Seed choice can only move
/// the scan window, never the result, so a *nondeterministic* seed list
/// (e.g. LRU-ordered) is still safe — this ordering just favors the
/// closest optimum.
const ChainSeed* nearest_external_seed(const std::vector<ChainSeed>& seeds,
                                       const ScenarioPoint& point) {
  const ChainSeed* best = nullptr;
  double best_distance = std::numeric_limits<double>::infinity();
  for (const ChainSeed& seed : seeds) {
    if (!std::isfinite(seed.cell.overhead) || seed.cell.segments_n == 0 ||
        seed.cell.chunks_m == 0) {
      continue;  // degenerate source cells carry no usable optimum
    }
    const double distance =
        4.0 * log_distance(static_cast<double>(seed.node_count),
                           static_cast<double>(point.platform.nodes)) +
        log_distance(seed.params.rates.fail_stop, point.params.rates.fail_stop) +
        log_distance(seed.params.rates.silent, point.params.rates.silent);
    if (distance < best_distance) {
      best = &seed;
      best_distance = distance;
    }
  }
  return best;
}

}  // namespace

bool cells_bit_identical(const SweepCell& a, const SweepCell& b) noexcept {
  return a.point_index == b.point_index && a.kind == b.kind &&
         a.first_order.segments_n == b.first_order.segments_n &&
         a.first_order.chunks_m == b.first_order.chunks_m &&
         same_bits(a.first_order.rational_n, b.first_order.rational_n) &&
         same_bits(a.first_order.rational_m, b.first_order.rational_m) &&
         same_bits(a.first_order.work, b.first_order.work) &&
         same_bits(a.first_order.overhead, b.first_order.overhead) &&
         same_bits(a.first_order.coefficients.error_free,
                   b.first_order.coefficients.error_free) &&
         same_bits(a.first_order.coefficients.reexecuted_work,
                   b.first_order.coefficients.reexecuted_work) &&
         same_bits(a.exact_at_first_order, b.exact_at_first_order) &&
         a.segments_n == b.segments_n && a.chunks_m == b.chunks_m &&
         same_bits(a.work, b.work) && same_bits(a.overhead, b.overhead) &&
         a.warm_started == b.warm_started;
}

bool params_bit_identical(const ModelParams& a, const ModelParams& b) noexcept {
  return same_bits(a.rates.fail_stop, b.rates.fail_stop) &&
         same_bits(a.rates.silent, b.rates.silent) &&
         same_bits(a.costs.disk_checkpoint, b.costs.disk_checkpoint) &&
         same_bits(a.costs.memory_checkpoint, b.costs.memory_checkpoint) &&
         same_bits(a.costs.disk_recovery, b.costs.disk_recovery) &&
         same_bits(a.costs.memory_recovery, b.costs.memory_recovery) &&
         same_bits(a.costs.guaranteed_verification,
                   b.costs.guaranteed_verification) &&
         same_bits(a.costs.partial_verification,
                   b.costs.partial_verification) &&
         same_bits(a.costs.recall, b.costs.recall);
}

bool points_bit_identical(const ScenarioPoint& a,
                          const ScenarioPoint& b) noexcept {
  return a.platform_index == b.platform_index && a.node_index == b.node_index &&
         a.rate_index == b.rate_index && a.cost_index == b.cost_index &&
         a.platform.name == b.platform.name &&
         a.platform.nodes == b.platform.nodes &&
         same_bits(a.platform.rates.fail_stop, b.platform.rates.fail_stop) &&
         same_bits(a.platform.rates.silent, b.platform.rates.silent) &&
         same_bits(a.platform.disk_checkpoint, b.platform.disk_checkpoint) &&
         same_bits(a.platform.memory_checkpoint,
                   b.platform.memory_checkpoint) &&
         params_bit_identical(a.params, b.params);
}

bool tables_bit_identical(const SweepTable& a, const SweepTable& b) noexcept {
  if (a.kinds != b.kinds || a.points.size() != b.points.size() ||
      a.cells.size() != b.cells.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    if (!points_bit_identical(a.points[i], b.points[i])) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    if (!cells_bit_identical(a.cells[i], b.cells[i])) {
      return false;
    }
  }
  return true;
}

SweepRunner::SweepRunner(SweepOptions options) : options_(std::move(options)) {}

SweepTable SweepRunner::run(const ScenarioGrid& grid) const {
  return run_impl(grid, nullptr);
}

SweepTable SweepRunner::run(const ScenarioGrid& grid, CellSink& sink) const {
  return run_impl(grid, &sink);
}

SweepTable SweepRunner::run_impl(const ScenarioGrid& grid,
                                 CellSink* sink) const {
  SweepTable table;
  table.points = resolve_points(grid);
  table.kinds = grid.resolved_kinds();  // never empty: defaults to all six
  table.index_kinds();
  table.cells.assign(table.points.size() * table.kinds.size(), SweepCell{});

  const std::size_t nodes_n = axis_size(grid.node_counts.size());
  const std::size_t rates_n = axis_size(grid.rate_factors.size());
  const std::size_t costs_n = axis_size(grid.cost_overrides.size());
  const std::size_t kinds_n = table.kinds.size();

  // Chains: fixed (platform, cost override, family), walking node counts
  // (outer) then rate factors (inner). Each chain is one pool task writing
  // only its own cells, so the table is bit-identical at any pool size.
  const std::size_t chain_count = grid.platforms.size() * costs_n * kinds_n;

  // Inner optimizations must not fan out on the pool the chains already
  // occupy (parallel_for does not nest).
  OptimizerOptions cold = options_.optimizer;
  cold.serial_cells = true;
  cold.seed_segments_n = 0;
  cold.seed_chunks_m = 0;
  cold.work_hint = 0.0;

  // Streamed delivery is serialized so sinks stay lock-free; the lock is
  // uncontended relative to the per-cell optimization cost.
  std::mutex sink_mutex;

  // Cancellation: the first chain to observe the token fired latches
  // `aborted` so every other chain bails at its next cell boundary
  // without re-reading the clock, and run_impl throws after the fan-in.
  // Cells already streamed to the sink stay valid (their values never
  // depended on the cancellation), but no table is returned.
  std::atomic<bool> aborted{false};

  util::ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : util::global_pool();
  pool.parallel_for(
      chain_count,
      [&](std::size_t chain) {
        const std::size_t ip = chain / (costs_n * kinds_n);
        const std::size_t ic = (chain / kinds_n) % costs_n;
        const std::size_t ik = chain % kinds_n;
        const PatternKind kind = table.kinds[ik];

        // External seeds (cross-grid reuse): fetched once per chain. Only
        // numeric sweeps benefit — the analytic columns are cheap.
        std::vector<ChainSeed> seeds;
        if (options_.seed_source != nullptr && options_.numeric_optimum) {
          GridChain descriptor;
          descriptor.platform_index = ip;
          descriptor.cost_index = ic;
          descriptor.kind = kind;
          descriptor.key = chain_key(
              grid.platforms[ip],
              grid.cost_overrides.empty() ? CostOverride{}
                                          : grid.cost_overrides[ic],
              kind, options_);
          seeds = options_.seed_source->seeds_for(descriptor);
        }

        ExactEvaluator evaluator(table.points.front().params,
                                 cold.evaluation);  // arena reused chain-wide

        bool have_warm = false;
        std::size_t warm_n = 1;
        std::size_t warm_m = 1;
        double warm_work = 0.0;
        for (std::size_t in = 0; in < nodes_n; ++in) {
          for (std::size_t ir = 0; ir < rates_n; ++ir) {
            if (aborted.load(std::memory_order_relaxed) ||
                options_.cancel.cancelled()) {
              aborted.store(true, std::memory_order_relaxed);
              return;  // abandon this chain; peers bail at their next cell
            }
            const std::size_t point_index =
                ((ip * nodes_n + in) * rates_n + ir) * costs_n + ic;
            const ScenarioPoint& point = table.points[point_index];
            SweepCell& cell = table.cells[point_index * kinds_n + ik];

            // Value reuse: a supplied cell whose resolved parameters
            // bit-match this point's IS this cell (values are pure
            // functions of (kind, params, result-affecting options); the
            // chain key pinned everything but the parameters).
            const ChainSeed* match = nullptr;
            if (options_.numeric_optimum) {
              for (const ChainSeed& seed : seeds) {
                if (seed.cell.kind == kind &&
                    params_bit_identical(seed.params, point.params)) {
                  match = &seed;
                  break;
                }
              }
            }

            const bool warm = options_.numeric_optimum &&
                              options_.warm_start && have_warm;
            if (match != nullptr) {
              cell = match->cell;
              cell.point_index = point_index;
              cell.kind = kind;
              // The flag records what THIS sweep's schedule would have
              // done, not what the source sweep did — canonical, so a
              // reused table stays bit-identical to a cold one.
              cell.warm_started = warm;
            } else {
              cell.point_index = point_index;
              cell.kind = kind;

              cell.first_order = solve_first_order(kind, point.params);
              evaluator.reset(point.params, cold.evaluation);
              try {
                cell.exact_at_first_order =
                    evaluator
                        .evaluate(cell.first_order.to_pattern(
                            point.params.costs.recall))
                        .overhead;
              } catch (const std::domain_error&) {
                cell.exact_at_first_order =
                    std::numeric_limits<double>::infinity();
              }

              if (options_.numeric_optimum) {
                OptimizerOptions opts = cold;
                if (warm) {
                  opts.seed_segments_n = warm_n;
                  opts.seed_chunks_m = warm_m;
                  opts.work_hint = warm_work;
                  opts.scan_radius = options_.warm_scan_radius;
                } else if (const ChainSeed* external =
                               nearest_external_seed(seeds, point)) {
                  // Cold chain head (or post-degenerate restart): start
                  // from the nearest cached optimum instead of the
                  // first-order seed. Seeds shrink the scan window only —
                  // the descent lands on the same lattice optimum.
                  opts.seed_segments_n = external->cell.segments_n;
                  opts.seed_chunks_m = external->cell.chunks_m;
                  opts.work_hint = external->cell.work;
                  opts.scan_radius = options_.warm_scan_radius;
                }
                const NumericSolution solution =
                    optimize_pattern(kind, point.params, opts);
                cell.segments_n = solution.segments_n;
                cell.chunks_m = solution.chunks_m;
                cell.work = solution.pattern.work();
                cell.overhead = solution.overhead;
                cell.warm_started = warm;
              }
            }

            if (options_.numeric_optimum) {
              if (std::isfinite(cell.overhead)) {
                warm_n = cell.segments_n;
                warm_m = cell.chunks_m;
                warm_work = cell.work;
                have_warm = true;
              } else {
                have_warm = false;  // degenerate point; reseed the next cold
              }
            }

            if (sink != nullptr) {
              const std::lock_guard<std::mutex> lock(sink_mutex);
              sink->on_cell(cell);
            }
          }
        }
      },
      /*grain=*/1);  // chains are heavyweight; one ticket each
  if (aborted.load(std::memory_order_relaxed) || options_.cancel.cancelled()) {
    throw SweepCancelled(options_.cancel.deadline_expired());
  }
  return table;
}

}  // namespace resilience::core
