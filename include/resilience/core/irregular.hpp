#pragma once

// Heterogeneous (irregular) pattern search. Theorem 4 proves the optimal
// pattern is homogeneous — equal segments, the same chunk count everywhere
// — via a chain of closed-form minimizations. This module searches the
// *unconstrained* space (per-segment chunk counts, free segment fractions)
// numerically, which (1) validates the theorem's claim against an
// independent optimizer and (2) provides honest optima in regimes where
// the first-order analysis degrades.

#include <cstddef>

#include "resilience/core/expected_time.hpp"
#include "resilience/core/optimizer.hpp"
#include "resilience/core/params.hpp"
#include "resilience/core/pattern.hpp"
#include "resilience/util/random.hpp"

namespace resilience::core {

/// Theorem-4 segment fractions for heterogeneous chunk counts: segment i
/// gets alpha_i proportional to 1/f*(m_i), where f*(m) is the minimized
/// silent re-execution factor of a segment with m chunks. For equal m this
/// reduces to alpha_i = 1/n.
[[nodiscard]] std::vector<double> optimal_segment_fractions(
    const std::vector<std::size_t>& chunk_counts, double recall);

/// Builds a heterogeneous pattern: segment i has chunk_counts[i] chunks
/// (Eq. (18) sizes), fractions per optimal_segment_fractions.
[[nodiscard]] PatternSpec make_irregular_pattern(
    double work, const std::vector<std::size_t>& chunk_counts, double recall);

/// Uniformly random valid pattern (for property tests): up to max_segments
/// segments with random fractions, up to max_chunks random-size chunks.
[[nodiscard]] PatternSpec random_pattern(util::Xoshiro256& rng, double work,
                                         std::size_t max_segments,
                                         std::size_t max_chunks);

/// Result of the irregular search.
struct IrregularSolution {
  PatternSpec pattern;
  double overhead = 0.0;               ///< exact H at the optimum
  std::vector<std::size_t> chunk_counts;  ///< m_i per segment
};

/// Local search over heterogeneous shapes: starting from the homogeneous
/// first-order optimum, tries per-segment chunk increments/decrements and
/// segment insertion/removal, re-optimizing W (Brent's method on ln W)
/// and the segment fractions at every candidate. Exact-evaluator
/// objective.
[[nodiscard]] IrregularSolution optimize_irregular(const ModelParams& params,
                                                   const OptimizerOptions& options = {});

}  // namespace resilience::core
