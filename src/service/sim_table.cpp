#include "resilience/service/sim_table.hpp"

#include <algorithm>

#include "resilience/util/fnv1a.hpp"

namespace resilience::service {

core::GridSignature sim_signature(
    const std::vector<core::ScenarioPoint>& points,
    const std::vector<core::PatternKind>& kinds, const SimParams& params) {
  util::Fnv1a hasher;
  hasher.mix_bytes("sim-v1");  // domain tag: raw bytes, no length prefix
  // The analytic identity of (points, kinds) under default options — the
  // sim path has no result-affecting SweepOptions of its own.
  hasher.mix(core::grid_signature(points, kinds, core::SweepOptions{}).value);
  hasher.mix(params.seed);
  hasher.mix(params.target_ci);
  hasher.mix(params.max_runs);
  hasher.mix(params.min_runs);
  hasher.mix(params.patterns_per_run);
  hasher.mix(static_cast<std::uint64_t>(params.weibull_shape.size()));
  for (const double shape : params.weibull_shape) {
    hasher.mix(shape);
  }
  hasher.mix(static_cast<std::uint64_t>(params.faulty_ops.size()));
  for (const double factor : params.faulty_ops) {
    hasher.mix(factor);
  }
  return core::GridSignature{hasher.value()};
}

std::uint64_t sim_cell_seed(const SimParams& params, core::PatternKind kind,
                            const core::ModelParams& point_params,
                            double weibull_shape, double faulty_ops) {
  util::Fnv1a hasher;
  hasher.mix_bytes("sim-cell-v1");
  hasher.mix(params.seed);
  hasher.mix(static_cast<std::uint64_t>(kind));
  // Every resolved parameter the simulation reads, by bit pattern — the
  // same fields grid signatures mix per point.
  hasher.mix(point_params.costs.disk_checkpoint);
  hasher.mix(point_params.costs.memory_checkpoint);
  hasher.mix(point_params.costs.disk_recovery);
  hasher.mix(point_params.costs.memory_recovery);
  hasher.mix(point_params.costs.guaranteed_verification);
  hasher.mix(point_params.costs.partial_verification);
  hasher.mix(point_params.costs.recall);
  hasher.mix(point_params.rates.fail_stop);
  hasher.mix(point_params.rates.silent);
  hasher.mix(weibull_shape);
  hasher.mix(faulty_ops);
  return hasher.value();
}

std::size_t sub_index(const SimCell& cell, const SimParams& sim) noexcept {
  const auto& shapes = sim.weibull_shape;
  const auto& ops = sim.faulty_ops;
  const auto shape = static_cast<std::size_t>(
      std::find(shapes.begin(), shapes.end(), cell.weibull_shape) -
      shapes.begin());
  const auto op = static_cast<std::size_t>(
      std::find(ops.begin(), ops.end(), cell.faulty_ops) - ops.begin());
  if (shape == shapes.size() || op == ops.size()) {
    return sub_cells(sim);
  }
  return shape * ops.size() + op;
}

bool cells_bit_identical(const SimCell& a, const SimCell& b) noexcept {
  using core::same_bits;
  return a.point_index == b.point_index && a.kind == b.kind &&
         same_bits(a.weibull_shape, b.weibull_shape) &&
         same_bits(a.faulty_ops, b.faulty_ops) && same_bits(a.mean, b.mean) &&
         same_bits(a.ci_low, b.ci_low) && same_bits(a.ci_high, b.ci_high) &&
         a.runs == b.runs && a.early_stopped == b.early_stopped;
}

bool headers_bit_identical(const SimParams& a, const SimParams& b) noexcept {
  const auto same_axis = [](const std::vector<double>& x,
                            const std::vector<double>& y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end(), core::same_bits);
  };
  return a.seed == b.seed && core::same_bits(a.target_ci, b.target_ci) &&
         a.max_runs == b.max_runs && a.min_runs == b.min_runs &&
         a.patterns_per_run == b.patterns_per_run &&
         same_axis(a.weibull_shape, b.weibull_shape) &&
         same_axis(a.faulty_ops, b.faulty_ops);
}

}  // namespace resilience::service
