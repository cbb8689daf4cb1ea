#pragma once

// Numeric pattern optimization on top of the exact evaluator — no
// first-order truncation. Used (1) to cross-validate the Table 1 closed
// forms in the large-MTBF regime, and (2) to produce genuinely optimal
// patterns when the MTBF is small and the first-order model degrades
// (the regime the paper's weak-scaling experiment exposes).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "resilience/core/expected_time.hpp"
#include "resilience/core/params.hpp"
#include "resilience/core/pattern.hpp"

namespace resilience::util {
class ThreadPool;  // the options only carry a pointer; see thread_pool.hpp
}

namespace resilience::core {

/// Work counters of the exact-model search, summed over optimize_pattern
/// calls: each call adds its own totals once, on return, so the atomics
/// are touched per call rather than per probe. Bookkeeping only — the
/// pointer in OptimizerOptions is excluded from every signature and chain
/// key, and the counts of a grid are the same at any pool size.
struct EngineCounters {
  /// (n, m) lattice cells whose W was searched (memoized cells count once
  /// per optimize_pattern call).
  std::atomic<std::uint64_t> lattice_cells{0};
  /// Exact-model evaluations of H at one W inside those searches.
  std::atomic<std::uint64_t> w_probes{0};
  /// Searches re-run on the full [work_lo, work_hi] bracket because the
  /// first landed on a tightened bracket edge.
  std::atomic<std::uint64_t> full_bracket_fallbacks{0};
};

/// Search-space bounds for the numeric optimizer.
struct OptimizerOptions {
  std::size_t max_segments = 64;       ///< upper bound on n
  std::size_t max_chunks = 256;        ///< upper bound on m
  double work_lo = 1.0;                ///< seconds, > 0; global W bracket
  double work_hi = 1e7;                ///< seconds
  double work_tolerance = 1e-3;        ///< absolute W tolerance (seconds)
  EvaluationOptions evaluation;        ///< exact-evaluator switches
  /// When true, also refines the chunk fractions numerically instead of
  /// trusting the Eq. (18) closed form (slow; used by validation tests).
  bool optimize_chunk_fractions = false;
  /// Half-width of the exhaustive (n, m) window scanned around the
  /// seed before the descent; the window cells and each descent round's
  /// neighbor moves are evaluated across the pool.
  std::size_t scan_radius = 2;
  /// Pool for the (n, m) sweep; nullptr means the global pool. Every cell
  /// evaluation is memoized, and the result is deterministic regardless of
  /// the pool size.
  util::ThreadPool* pool = nullptr;
  /// Warm-start seed for the (n, m) search (0 = derive from the
  /// first-order closed forms). Used by SweepRunner to start each grid
  /// point from its neighbor's optimum. The descent still converges to the
  /// lattice optimum; the seed only moves the starting window.
  std::size_t seed_segments_n = 0;
  std::size_t seed_chunks_m = 0;
  /// Warm-start W metadata carried alongside the (n, m) seed (seconds;
  /// 0 = none). Deliberately inert in cell evaluation: the W search
  /// bracket is always centered on the cell's own first-order W* (with the
  /// pinned-edge full-bracket fallback), so every cell's (W, H) is a pure
  /// function of (kind, n, m, params, evaluation options) and any seeding
  /// path — cold, chain predecessor, cross-grid SeedSource — produces
  /// bit-identical values. Seed providers still populate it (it documents
  /// where the seed sat), but it must never change results.
  double work_hint = 0.0;
  /// Evaluate (n, m) cells inline instead of fanning out across the pool.
  /// Required when the optimizer itself runs inside a pool task (the pool
  /// forbids nested parallel_for); SweepRunner sets this because it already
  /// parallelizes across grid points.
  bool serial_cells = false;
  /// Per-probe make_pattern + evaluate_pattern instead of the bound
  /// ExactEvaluator — the pre-sweep baseline kept measurable for
  /// BENCH_micro.json. Note the one-shot evaluate_pattern itself now runs
  /// on the rebuilt evaluator, so this baseline is already faster than the
  /// true pre-PR code and the measured sweep speedup is a lower bound.
  bool legacy_cell_evaluation = false;
  /// Receives this call's search work (nullptr = not counted). Execution
  /// bookkeeping like `pool`: never changes a result.
  EngineCounters* counters = nullptr;
};

/// A numerically optimized pattern and its exact overhead.
struct NumericSolution {
  PatternSpec pattern;
  double overhead = 0.0;   ///< exact H(P) at the optimum
  std::size_t segments_n = 1;
  std::size_t chunks_m = 1;
};

/// Result of one W search.
struct WorkMinimum {
  double work = 0.0;       ///< minimizer W
  double value = 0.0;      ///< f(work), the probe that found it
  std::size_t probes = 0;  ///< evaluations of f spent
};

/// Minimizes f(W) on [lo, hi] (0 < lo < hi) by Brent's method — parabolic
/// interpolation safeguarded by golden-section steps — run on u = ln W.
/// The exact overhead is a smooth bowl in ln W (its first-order part,
/// a/W + b*W, is 2*sqrt(ab)*cosh(ln W - ln W*)), so parabolic steps
/// converge in a handful of probes. `tolerance` is an absolute W
/// tolerance, applied as tolerance/hi on ln W (never looser in W than
/// `tolerance` anywhere in the bracket) plus Brent's usual sqrt(eps)*|u|
/// term. Throws std::invalid_argument on an empty or non-positive
/// bracket or a non-positive tolerance.
[[nodiscard]] WorkMinimum brent_minimize_work(
    const std::function<double(double)>& f, double lo, double hi,
    double tolerance);

/// Best work length W for a fixed pattern shape (n, m and chunk fractions),
/// minimizing the exact overhead.
[[nodiscard]] double optimize_work_length(PatternKind kind, std::size_t segments_n,
                                          std::size_t chunks_m,
                                          const ModelParams& params,
                                          const OptimizerOptions& options = {});

/// Full numeric optimization of one pattern family: exact-overhead search
/// over W (Brent's method on ln W), n and m (monotone neighborhood descent from the
/// first-order guess, falling back to exhaustive scan for small spaces).
[[nodiscard]] NumericSolution optimize_pattern(PatternKind kind,
                                               const ModelParams& params,
                                               const OptimizerOptions& options = {});

/// Numeric minimization of the segment quadratic form beta^T A beta over
/// the probability simplex (projected coordinate descent); converges to the
/// Eq. (18) fractions and is used to property-test them.
[[nodiscard]] std::vector<double> optimize_chunk_fractions_numeric(
    std::size_t chunks, double recall, std::size_t iterations = 2000);

}  // namespace resilience::core
