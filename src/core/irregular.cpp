#include "resilience/core/irregular.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "resilience/core/first_order.hpp"

namespace resilience::core {

namespace {

/// Minimized silent re-execution factor of a segment with m chunks sized by
/// Eq. (18): f*(m) = (1 + (2-r)/((m-2)r + 2)) / 2.
double optimal_segment_factor(std::size_t chunks, double recall) {
  const auto m = static_cast<double>(chunks);
  return 0.5 * (1.0 + (2.0 - recall) / ((m - 2.0) * recall + 2.0));
}

/// Exact overhead of a heterogeneous shape after optimizing W by Brent's
/// method on ln W. Returns +inf for shapes the evaluator rejects.
double shape_overhead(const std::vector<std::size_t>& chunk_counts, double recall,
                      const ModelParams& params, const OptimizerOptions& options,
                      double* best_work) {
  // Bracket around a crude analytic period estimate derived from the
  // homogeneous formulas with the mean chunk count.
  const double mean_m =
      std::accumulate(chunk_counts.begin(), chunk_counts.end(), 0.0) /
      static_cast<double>(chunk_counts.size());
  const auto seed_coefficients = overhead_coefficients(
      PatternKind::kDMV, params, chunk_counts.size(),
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(mean_m))));
  const double seed_work = seed_coefficients.optimal_work();
  const double lo = std::max(options.work_lo, seed_work / 50.0);
  const double hi = std::min(options.work_hi, seed_work * 50.0);

  const auto objective = [&](double work) {
    try {
      const PatternSpec pattern = make_irregular_pattern(work, chunk_counts, recall);
      return evaluate_pattern(pattern, params, options.evaluation).overhead;
    } catch (const std::domain_error&) {
      return std::numeric_limits<double>::infinity();
    }
  };
  const WorkMinimum best =
      brent_minimize_work(objective, lo, hi, options.work_tolerance);
  if (best_work != nullptr) {
    *best_work = best.work;
  }
  return best.value;
}

}  // namespace

std::vector<double> optimal_segment_fractions(
    const std::vector<std::size_t>& chunk_counts, double recall) {
  if (chunk_counts.empty()) {
    throw std::invalid_argument("optimal_segment_fractions: no segments");
  }
  if (!(recall > 0.0) || recall > 1.0) {
    throw std::invalid_argument("optimal_segment_fractions: recall in (0, 1]");
  }
  // Theorem 4 inner minimization: minimizing sum_i f*_i alpha_i^2 subject to
  // sum alpha_i = 1 gives alpha_i proportional to 1/f*_i.
  std::vector<double> inverse(chunk_counts.size());
  for (std::size_t i = 0; i < chunk_counts.size(); ++i) {
    if (chunk_counts[i] == 0) {
      throw std::invalid_argument("optimal_segment_fractions: zero chunk count");
    }
    inverse[i] = 1.0 / optimal_segment_factor(chunk_counts[i], recall);
  }
  const double total = std::accumulate(inverse.begin(), inverse.end(), 0.0);
  for (double& value : inverse) {
    value /= total;
  }
  return inverse;
}

PatternSpec make_irregular_pattern(double work,
                                   const std::vector<std::size_t>& chunk_counts,
                                   double recall) {
  const std::vector<double> alpha = optimal_segment_fractions(chunk_counts, recall);
  std::vector<SegmentSpec> segments(chunk_counts.size());
  for (std::size_t i = 0; i < chunk_counts.size(); ++i) {
    segments[i].alpha = alpha[i];
    segments[i].beta = optimal_chunk_fractions(chunk_counts[i], recall);
  }
  return PatternSpec(work, std::move(segments));
}

PatternSpec random_pattern(util::Xoshiro256& rng, double work,
                           std::size_t max_segments, std::size_t max_chunks) {
  if (max_segments == 0 || max_chunks == 0) {
    throw std::invalid_argument("random_pattern: empty shape space");
  }
  const std::size_t n = 1 + util::uniform_below(rng, max_segments);
  std::vector<SegmentSpec> segments(n);
  // Random positive fractions, normalized; floor keeps them bounded away
  // from zero so the spec validates.
  double alpha_sum = 0.0;
  for (auto& segment : segments) {
    segment.alpha = 0.05 + util::uniform01(rng);
    alpha_sum += segment.alpha;
    const std::size_t m = 1 + util::uniform_below(rng, max_chunks);
    segment.beta.resize(m);
    double beta_sum = 0.0;
    for (double& b : segment.beta) {
      b = 0.05 + util::uniform01(rng);
      beta_sum += b;
    }
    for (double& b : segment.beta) {
      b /= beta_sum;
    }
  }
  for (auto& segment : segments) {
    segment.alpha /= alpha_sum;
  }
  return PatternSpec(work, std::move(segments));
}

IrregularSolution optimize_irregular(const ModelParams& params,
                                     const OptimizerOptions& options) {
  params.validate();
  const double recall = params.costs.recall;

  // Seed from the homogeneous first-order optimum.
  const FirstOrderSolution seed = solve_first_order(PatternKind::kDMV, params);
  std::vector<std::size_t> shape(
      std::min<std::size_t>(seed.segments_n, options.max_segments),
      std::max<std::size_t>(1, seed.chunks_m));

  double best_work = 0.0;
  double best = shape_overhead(shape, recall, params, options, &best_work);

  bool improved = true;
  while (improved) {
    improved = false;
    std::vector<std::vector<std::size_t>> candidates;
    // Per-segment chunk-count nudges.
    for (std::size_t i = 0; i < shape.size(); ++i) {
      if (shape[i] + 1 <= options.max_chunks) {
        auto candidate = shape;
        ++candidate[i];
        candidates.push_back(std::move(candidate));
      }
      if (shape[i] > 1) {
        auto candidate = shape;
        --candidate[i];
        candidates.push_back(std::move(candidate));
      }
    }
    // Segment insertion (cloning the last segment) and removal.
    if (shape.size() + 1 <= options.max_segments) {
      auto candidate = shape;
      candidate.push_back(shape.back());
      candidates.push_back(std::move(candidate));
    }
    if (shape.size() > 1) {
      auto candidate = shape;
      candidate.pop_back();
      candidates.push_back(std::move(candidate));
    }

    for (const auto& candidate : candidates) {
      double work = 0.0;
      const double overhead =
          shape_overhead(candidate, recall, params, options, &work);
      if (overhead < best - 1e-12) {
        best = overhead;
        best_work = work;
        shape = candidate;
        improved = true;
        break;  // greedy re-expansion from the improved shape
      }
    }
  }

  IrregularSolution solution{make_irregular_pattern(best_work, shape, recall), best,
                             shape};
  return solution;
}

}  // namespace resilience::core
