#include "resilience/service/sim_table.hpp"

#include <cstring>

#include "resilience/util/fnv1a.hpp"

namespace resilience::service {

namespace {

bool bits_equal(double a, double b) noexcept {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

}  // namespace

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

bool sim_tables_bit_identical(const SimTable& a, const SimTable& b) noexcept {
  if (a.points.size() != b.points.size() || a.kinds != b.kinds ||
      a.cells.size() != b.cells.size() ||
      a.params.seed != b.params.seed ||
      !bits_equal(a.params.target_ci, b.params.target_ci) ||
      a.params.max_runs != b.params.max_runs ||
      a.params.min_runs != b.params.min_runs ||
      a.params.patterns_per_run != b.params.patterns_per_run ||
      a.params.weibull_shape.size() != b.params.weibull_shape.size() ||
      a.params.faulty_ops.size() != b.params.faulty_ops.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.params.weibull_shape.size(); ++i) {
    if (!bits_equal(a.params.weibull_shape[i], b.params.weibull_shape[i])) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.params.faulty_ops.size(); ++i) {
    if (!bits_equal(a.params.faulty_ops[i], b.params.faulty_ops[i])) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    if (!core::points_bit_identical(a.points[i], b.points[i])) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const SimCell& x = a.cells[i];
    const SimCell& y = b.cells[i];
    if (x.point_index != y.point_index || x.kind != y.kind ||
        !bits_equal(x.weibull_shape, y.weibull_shape) ||
        !bits_equal(x.faulty_ops, y.faulty_ops) ||
        !bits_equal(x.mean, y.mean) || !bits_equal(x.ci_low, y.ci_low) ||
        !bits_equal(x.ci_high, y.ci_high) || x.runs != y.runs ||
        x.early_stopped != y.early_stopped) {
      return false;
    }
  }
  return true;
}

}  // namespace resilience::service
