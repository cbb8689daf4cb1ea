#include "resilience/core/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "resilience/core/first_order.hpp"
#include "resilience/util/thread_pool.hpp"

namespace resilience::core {

namespace {

constexpr double kGoldenStep = 0.3819660112501051;  // (3 - sqrt(5)) / 2

/// Exact overhead of the canonical (kind, n, m, W) pattern through the
/// one-shot evaluate_pattern path (allocates per call); +inf where the
/// evaluator rejects the configuration (e.g. success probability underflow
/// for absurdly long patterns). Kept as the legacy baseline the fused
/// evaluator path is benchmarked against.
double exact_overhead(PatternKind kind, std::size_t n, std::size_t m, double work,
                      const ModelParams& params, const EvaluationOptions& eval) {
  try {
    const PatternSpec pattern = make_pattern(kind, work, n, m, params.costs.recall);
    return evaluate_pattern(pattern, params, eval).overhead;
  } catch (const std::domain_error&) {
    return std::numeric_limits<double>::infinity();
  }
}

/// One lattice cell of the (n, m) search space.
struct Cell {
  std::size_t n = 1;
  std::size_t m = 1;

  [[nodiscard]] std::uint64_t key() const noexcept {
    return (static_cast<std::uint64_t>(n) << 32) | static_cast<std::uint64_t>(m);
  }
  bool operator==(const Cell& other) const noexcept {
    return n == other.n && m == other.m;
  }
};

/// Exact evaluation of one cell: the W search's optimum and the work it
/// took (the latter feeds EngineCounters, never a result).
struct CellValue {
  double overhead = std::numeric_limits<double>::infinity();
  double work = 0.0;
  std::size_t probes = 0;
  bool full_bracket_fallback = false;
};

/// Brent W search with a bracket derived from `center` (the cell's
/// first-order W*): [center/50, 50*center] clamped to the global
/// [work_lo, work_hi]. H is unimodal in W and the first-order W* is within
/// a small factor of the true optimum in every regime we care about, so
/// the tight bracket is normally safe — and when it is not, the minimizer
/// lands on a tightened edge and the search re-runs on the full bracket,
/// so the result never depends on the tightening.
CellValue bracketed_work_minimum(const std::function<double(double)>& objective,
                                 double center, const OptimizerOptions& options) {
  double lo = options.work_lo;
  double hi = options.work_hi;
  if (std::isfinite(center) && center > 0.0) {
    const double tight_lo = std::max(options.work_lo, center / 50.0);
    const double tight_hi = std::min(options.work_hi, center * 50.0);
    if (tight_hi > tight_lo) {
      lo = tight_lo;
      hi = tight_hi;
    }
  }
  WorkMinimum best = brent_minimize_work(objective, lo, hi, options.work_tolerance);
  CellValue value;
  value.probes = best.probes;
  const double margin = 2.0 * options.work_tolerance;
  const bool pinned_lo = best.work - lo <= margin && lo > options.work_lo;
  const bool pinned_hi = hi - best.work <= margin && hi < options.work_hi;
  if (pinned_lo || pinned_hi) {
    best = brent_minimize_work(objective, options.work_lo, options.work_hi,
                               options.work_tolerance);
    value.probes += best.probes;
    value.full_bracket_fallback = true;
  }
  value.work = best.work;
  value.overhead = best.value;
  return value;
}

/// Searches one (n, m) cell. The bracket center is always the cell's own
/// first-order W*, never the caller's work_hint: a cell's (W, H) must be a
/// pure function of (kind, n, m, params, evaluation options) so that cold,
/// chain-warm and cross-grid-seeded searches all land on bit-identical
/// values — the identity the sweep cache's partial-result reuse is built
/// on. The fused path binds the shape once and probes W through the
/// allocation-free ExactEvaluator (one per worker thread, so re-binding
/// reuses the arena capacity); legacy_cell_evaluation probes through the
/// per-probe make_pattern + evaluate_pattern baseline BENCH_micro.json
/// keeps measuring the fused path against.
CellValue evaluate_cell(PatternKind kind, std::size_t n, std::size_t m,
                        const ModelParams& params,
                        const OptimizerOptions& options) {
  const double center = overhead_coefficients(kind, params, n, m).optimal_work();
  if (options.legacy_cell_evaluation) {
    return bracketed_work_minimum(
        [&](double w) {
          return exact_overhead(kind, n, m, w, params, options.evaluation);
        },
        center, options);
  }
  thread_local std::optional<ExactEvaluator> shared_evaluator;
  if (shared_evaluator.has_value()) {
    shared_evaluator->reset(params, options.evaluation);
  } else {
    shared_evaluator.emplace(params, options.evaluation);
  }
  ExactEvaluator& evaluator = *shared_evaluator;
  evaluator.bind_canonical(kind, n, m);
  return bracketed_work_minimum(
      [&](double w) {
        try {
          return evaluator.overhead_at(w);
        } catch (const std::domain_error&) {
          return std::numeric_limits<double>::infinity();
        }
      },
      center, options);
}

/// Memoized, pool-parallel evaluator of (n, m) cells. Cell evaluations are
/// pure functions of (kind, params, options), so concurrent evaluation and
/// memoization cannot change any value — only the wall-clock time.
class CellEvaluator {
 public:
  CellEvaluator(PatternKind kind, const ModelParams& params,
                const OptimizerOptions& options)
      : kind_(kind),
        params_(params),
        options_(options),
        pool_(options.pool != nullptr ? *options.pool : util::global_pool()) {}

  /// Evaluates every not-yet-memoized cell of `cells` across the pool (or
  /// inline under OptimizerOptions::serial_cells, which callers running
  /// inside pool tasks must set — parallel_for does not nest).
  void prefetch(const std::vector<Cell>& cells) {
    std::vector<Cell> fresh;
    fresh.reserve(cells.size());
    {
      const std::lock_guard lock(memo_mutex_);
      for (const Cell& cell : cells) {
        if (memo_.find(cell.key()) == memo_.end() &&
            std::find(fresh.begin(), fresh.end(), cell) == fresh.end()) {
          fresh.push_back(cell);
        }
      }
    }
    if (fresh.empty()) {
      return;
    }
    if (options_.serial_cells) {
      for (const Cell& cell : fresh) {
        const CellValue value = evaluate(cell);
        const std::lock_guard lock(memo_mutex_);
        remember_locked(cell, value);
      }
      return;
    }
    pool_.parallel_for(
        fresh.size(),
        [&](std::size_t i) {
          const CellValue value = evaluate(fresh[i]);
          const std::lock_guard lock(memo_mutex_);
          remember_locked(fresh[i], value);
        },
        /*grain=*/1);  // cells are expensive; one ticket each
  }

  /// Memoized lookup; evaluates inline on a miss. Returns by value so the
  /// result stays valid whatever later prefetches do to the table; every
  /// memo_ access takes the lock, so calling this concurrently with an
  /// in-flight prefetch is also safe (the sweep never needs to, but the
  /// invariant should not depend on that).
  CellValue value(const Cell& cell) {
    {
      const std::lock_guard lock(memo_mutex_);
      const auto it = memo_.find(cell.key());
      if (it != memo_.end()) {
        return it->second;
      }
    }
    const CellValue computed = evaluate(cell);
    const std::lock_guard lock(memo_mutex_);
    return remember_locked(cell, computed);
  }

  /// Adds every search this evaluator ran to `counters` (no-op on null).
  /// Called once per optimize_pattern, so the shared atomics see one
  /// update per call, not one per probe.
  void report(EngineCounters* counters) {
    if (counters == nullptr) {
      return;
    }
    const std::lock_guard lock(memo_mutex_);
    counters->lattice_cells.fetch_add(lattice_cells_, std::memory_order_relaxed);
    counters->w_probes.fetch_add(w_probes_, std::memory_order_relaxed);
    counters->full_bracket_fallbacks.fetch_add(fallbacks_,
                                               std::memory_order_relaxed);
  }

 private:
  CellValue evaluate(const Cell& cell) const {
    return evaluate_cell(kind_, cell.n, cell.m, params_, options_);
  }

  /// Memoizes a searched cell and counts its work; the caller holds
  /// memo_mutex_. Which cells get searched is fixed before any fan-out,
  /// so the counts are the same at any pool size.
  const CellValue& remember_locked(const Cell& cell, const CellValue& value) {
    ++lattice_cells_;
    w_probes_ += value.probes;
    fallbacks_ += value.full_bracket_fallback ? 1 : 0;
    return memo_.emplace(cell.key(), value).first->second;
  }

  PatternKind kind_;
  const ModelParams& params_;
  const OptimizerOptions& options_;
  util::ThreadPool& pool_;
  std::unordered_map<std::uint64_t, CellValue> memo_;
  std::mutex memo_mutex_;
  std::uint64_t lattice_cells_ = 0;
  std::uint64_t w_probes_ = 0;
  std::uint64_t fallbacks_ = 0;
};

}  // namespace

WorkMinimum brent_minimize_work(const std::function<double(double)>& f,
                                double lo, double hi, double tolerance) {
  if (!(lo > 0.0) || !(hi > lo)) {
    throw std::invalid_argument(
        "brent_minimize_work: bracket must satisfy 0 < lo < hi");
  }
  if (!(tolerance > 0.0)) {
    throw std::invalid_argument("brent_minimize_work: tolerance must be positive");
  }
  // Brent (1973), ch. 5 "fmin", on u = ln W. A W step of `tolerance` is a
  // u step of tolerance / W >= tolerance / hi, so stopping on the latter
  // is never looser in W than the absolute tolerance anywhere in [lo, hi].
  const double sqrt_eps = std::sqrt(std::numeric_limits<double>::epsilon());
  const double tolerance_u = tolerance / hi;
  WorkMinimum result;
  const auto probe = [&](double u) {
    ++result.probes;
    return f(std::exp(u));
  };
  double a = std::log(lo);
  double b = std::log(hi);
  double x = a + kGoldenStep * (b - a);  // best point so far
  double fx = probe(x);
  // The exact overhead is +inf past the W where the success probability
  // underflows, so a non-finite probe has the finite region (if any) to
  // its left: shrink toward lo until a probe is finite — golden section's
  // tie-break on a plateau — before any parabola is fitted.
  while (!std::isfinite(fx) && b - a > tolerance_u) {
    b = x;
    x = a + kGoldenStep * (b - a);
    fx = probe(x);
  }
  double w = x;  // second best
  double v = x;  // previous value of w
  double fw = fx;
  double fv = fx;
  double d = 0.0;  // last step
  double e = 0.0;  // step before last
  for (;;) {
    const double xm = 0.5 * (a + b);
    const double tol1 = sqrt_eps * std::fabs(x) + tolerance_u / 3.0;
    const double tol2 = 2.0 * tol1;
    if (std::fabs(x - xm) <= tol2 - 0.5 * (b - a)) {
      break;
    }
    bool parabolic = false;
    if (std::fabs(e) > tol1) {
      // Parabola through (v, fv), (w, fw), (x, fx): its vertex is x + p/q.
      const double r = (x - w) * (fx - fv);
      double q = (x - v) * (fx - fw);
      double p = (x - v) * q - (x - w) * r;
      q = 2.0 * (q - r);
      if (q > 0.0) {
        p = -p;
      } else {
        q = -q;
      }
      const double step_before_last = e;
      e = d;
      // Accept a finite vertex inside (a, b) that moves less than half the
      // step before last (the guarantee against slow parabolic creep);
      // +inf probes make p or q non-finite and fall through to golden.
      if (std::isfinite(p) && std::isfinite(q) &&
          std::fabs(p) < std::fabs(0.5 * q * step_before_last) &&
          p > q * (a - x) && p < q * (b - x)) {
        d = p / q;
        const double u = x + d;
        if (u - a < tol2 || b - u < tol2) {
          d = std::copysign(tol1, xm - x);  // never probe next to an end
        }
        parabolic = true;
      }
    }
    if (!parabolic) {
      e = (x >= xm ? a : b) - x;
      d = kGoldenStep * e;
    }
    const double u = x + (std::fabs(d) >= tol1 ? d : std::copysign(tol1, d));
    const double fu = probe(u);
    if (fu <= fx) {
      (u >= x ? a : b) = x;
      v = w;
      fv = fw;
      w = x;
      fw = fx;
      x = u;
      fx = fu;
    } else {
      (u < x ? a : b) = u;
      if (fu <= fw || w == x) {
        v = w;
        fv = fw;
        w = u;
        fw = fu;
      } else if (fu <= fv || v == x || v == w) {
        v = u;
        fv = fu;
      }
    }
  }
  result.work = std::exp(x);
  result.value = fx;
  return result;
}

double optimize_work_length(PatternKind kind, std::size_t segments_n,
                            std::size_t chunks_m, const ModelParams& params,
                            const OptimizerOptions& options) {
  params.validate();
  return evaluate_cell(kind, segments_n, chunks_m, params, options).work;
}

NumericSolution optimize_pattern(PatternKind kind, const ModelParams& params,
                                 const OptimizerOptions& options) {
  params.validate();

  const bool search_n = uses_memory_checkpoints(kind);
  const bool search_m = uses_intermediate_verifications(kind);

  // Seed the search, exhaustively scan the (n, m) window around the seed
  // across the pool, then hill-descend over the integer lattice from the
  // window's best cell. F(n, m) = oef * orw is jointly convex (paper,
  // Theorem 4), and the exact objective inherits unimodality in the
  // regimes of interest, so neighborhood descent from the scan winner finds
  // the lattice optimum — wherever the seed comes from. Every cell
  // evaluation is memoized, so the descent never re-runs the inner W search
  // for a cell the scan already covered. The seed is the first-order
  // closed-form solution unless the caller supplies a warm start (a grid
  // neighbor's optimum in SweepRunner).
  CellEvaluator evaluator(kind, params, options);

  const bool warm_seeded =
      options.seed_segments_n > 0 || options.seed_chunks_m > 0;
  std::size_t n = 1;
  std::size_t m = 1;
  if (warm_seeded) {
    n = search_n ? std::min(std::max<std::size_t>(options.seed_segments_n, 1),
                            options.max_segments)
                 : 1;
    m = search_m ? std::min(std::max<std::size_t>(options.seed_chunks_m, 1),
                            options.max_chunks)
                 : 1;
  } else if (search_n || search_m) {
    const FirstOrderSolution seed = solve_first_order(kind, params);
    n = search_n ? std::min(seed.segments_n, options.max_segments) : 1;
    m = search_m ? std::min(seed.chunks_m, options.max_chunks) : 1;
  }

  const auto dimension_window = [&](std::size_t center, std::size_t bound,
                                    bool searched) {
    std::vector<std::size_t> values;
    if (!searched) {
      values.push_back(1);
      return values;
    }
    const std::size_t lo =
        center > options.scan_radius ? center - options.scan_radius : 1;
    const std::size_t hi = std::min(bound, center + options.scan_radius);
    for (std::size_t v = lo; v <= hi; ++v) {
      values.push_back(v);
    }
    return values;
  };

  std::vector<Cell> window;
  for (const std::size_t wn : dimension_window(n, options.max_segments, search_n)) {
    for (const std::size_t wm : dimension_window(m, options.max_chunks, search_m)) {
      window.push_back({wn, wm});
    }
  }
  evaluator.prefetch(window);

  Cell best{n, m};
  CellValue best_value = evaluator.value(best);
  for (const Cell& cell : window) {
    const CellValue& value = evaluator.value(cell);
    if (value.overhead < best_value.overhead - 1e-12) {
      best = cell;
      best_value = value;
    }
  }

  bool improved = true;
  while (improved) {
    improved = false;
    std::vector<Cell> moves;
    if (search_n) {
      if (best.n + 1 <= options.max_segments) {
        moves.push_back({best.n + 1, best.m});
      }
      if (best.n > 1) {
        moves.push_back({best.n - 1, best.m});
      }
    }
    if (search_m) {
      if (best.m + 1 <= options.max_chunks) {
        moves.push_back({best.n, best.m + 1});
      }
      if (best.m > 1) {
        moves.push_back({best.n, best.m - 1});
      }
    }
    // All neighbors of the round evaluate concurrently; the winner is
    // picked deterministically (first improving move in declaration order
    // wins ties), so the pool size never changes the outcome.
    evaluator.prefetch(moves);
    for (const Cell& move : moves) {
      const CellValue& value = evaluator.value(move);
      if (value.overhead < best_value.overhead - 1e-12) {
        best = move;
        best_value = value;
        improved = true;
        break;  // greedy: re-expand the neighborhood from the new cell
      }
    }
  }

  evaluator.report(options.counters);

  n = best.n;
  m = best.m;
  const double best_overhead = best_value.overhead;
  const double best_work = best_value.work;
  NumericSolution solution{
      make_pattern(kind, best_work, n, m, params.costs.recall), best_overhead, n, m};

  if (options.optimize_chunk_fractions && search_m && m > 1) {
    // Replace the closed-form chunk fractions by numerically optimized ones
    // and keep whichever evaluates better (they should coincide; the
    // comparison is the validation).
    const std::vector<double> beta =
        optimize_chunk_fractions_numeric(m, params.costs.recall);
    std::vector<SegmentSpec> segments(n);
    for (auto& segment : segments) {
      segment.alpha = 1.0 / static_cast<double>(n);
      segment.beta = beta;
    }
    const PatternSpec refined(best_work, std::move(segments));
    const double refined_overhead =
        evaluate_pattern(refined, params, options.evaluation).overhead;
    if (refined_overhead < solution.overhead) {
      solution.pattern = refined;
      solution.overhead = refined_overhead;
    }
  }
  return solution;
}

std::vector<double> optimize_chunk_fractions_numeric(std::size_t chunks,
                                                     double recall,
                                                     std::size_t iterations) {
  if (chunks == 0) {
    throw std::invalid_argument("optimize_chunk_fractions_numeric: zero chunks");
  }
  if (chunks == 1) {
    return {1.0};
  }
  // Minimize beta^T A beta on the simplex by pairwise mass transfers: for a
  // quadratic objective, the optimal transfer between coordinates (i, j)
  // along e_i - e_j has the closed form below; cycling over all pairs is a
  // convergent coordinate descent on the simplex.
  const std::size_t m = chunks;
  std::vector<double> beta(m, 1.0 / static_cast<double>(m));
  std::vector<std::vector<double>> a(m, std::vector<double>(m));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const auto d = static_cast<double>(i > j ? i - j : j - i);
      a[i][j] = 0.5 * (1.0 + std::pow(1.0 - recall, d));
    }
  }
  const auto gradient = [&](std::size_t i) {
    double g = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      g += 2.0 * a[i][j] * beta[j];
    }
    return g;
  };
  for (std::size_t it = 0; it < iterations; ++it) {
    double max_change = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = i + 1; j < m; ++j) {
        // Objective restricted to beta + t (e_i - e_j) is quadratic with
        // curvature c = 2 (A_ii + A_jj - 2 A_ij) and slope g_i - g_j.
        const double curvature = 2.0 * (a[i][i] + a[j][j] - 2.0 * a[i][j]);
        if (curvature <= 0.0) {
          continue;
        }
        double t = -(gradient(i) - gradient(j)) / curvature;
        t = std::clamp(t, -beta[i], beta[j]);  // keep both coordinates >= 0
        beta[i] += t;
        beta[j] -= t;
        max_change = std::max(max_change, std::fabs(t));
      }
    }
    if (max_change < 1e-14) {
      break;
    }
  }
  return beta;
}

}  // namespace resilience::core
