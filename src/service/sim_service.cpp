#include "resilience/service/sim_service.hpp"

#include "resilience/core/first_order.hpp"
#include "resilience/sim/adaptive.hpp"
#include "resilience/sim/renewal.hpp"

namespace resilience::service {

namespace {

void throw_if_cancelled(const core::CancelToken& cancel) {
  if (cancel.cancelled()) {
    throw core::SweepCancelled(cancel.deadline_expired());
  }
}

}  // namespace

std::shared_ptr<const SimTable> compute_sim_table(
    const std::vector<core::ScenarioPoint>& points,
    const std::vector<core::PatternKind>& kinds, const SimParams& sim,
    util::ThreadPool* pool, const SimCellFn& sink,
    const core::CancelToken& cancel) {
  auto table = std::make_shared<SimTable>();
  table->points = points;
  table->kinds = kinds;
  table->header = sim;
  table->index_kinds();
  table->cells.reserve(table->cell_count());

  const auto check_cancel = [&cancel] { throw_if_cancelled(cancel); };

  // Canonical order, sequentially: parallelism lives INSIDE each cell's
  // campaign (runs fan out on the pool), never across cells, so the
  // stream order — and with content-addressed per-cell seeds, the stream
  // bytes — cannot depend on the pool size.
  for (std::size_t p = 0; p < table->points.size(); ++p) {
    const core::ModelParams& params = table->points[p].params;
    for (const core::PatternKind kind : table->kinds) {
      const core::PatternSpec pattern =
          core::solve_first_order(kind, params).to_pattern(params.costs.recall);
      for (const double shape : sim.weibull_shape) {
        for (const double ops : sim.faulty_ops) {
          check_cancel();
          sim::AdaptiveConfig config;
          config.seed = sim_cell_seed(sim, kind, params, shape, ops);
          config.target_ci = sim.target_ci;
          config.max_runs = sim.max_runs;
          config.min_runs = sim.min_runs;
          config.patterns_per_run = sim.patterns_per_run;
          config.pool = pool;
          config.check_cancel = check_cancel;
          // Model choice is a pure function of the cell's (shape, ops):
          // the default cell runs the Poisson fast path, any other cell the
          // renewal model (exponential in law when shape == 1) with its
          // operation-site factor.
          const sim::FailureDistribution distribution =
              shape == 1.0 ? sim::FailureDistribution::kExponential
                           : sim::FailureDistribution::kWeibull;
          const sim::AdaptiveResult result =
              shape == 1.0 && ops == 1.0
                  ? sim::run_adaptive_monte_carlo(pattern, params, config)
                  : sim::run_adaptive_monte_carlo(
                        pattern, params, config, [&](util::Xoshiro256 rng) {
                          return sim::make_renewal_model(
                              params.rates, distribution, shape, rng, ops);
                        });

          SimCell cell;
          cell.point_index = p;
          cell.kind = kind;
          cell.weibull_shape = shape;
          cell.faulty_ops = ops;
          cell.mean = result.mean_overhead();
          const double half = result.overhead_ci();
          cell.ci_low = cell.mean - half;
          cell.ci_high = cell.mean + half;
          cell.runs = result.runs;
          cell.early_stopped = result.early_stopped;

          table->cells.push_back(cell);
          if (sink) {
            sink(cell);
          }
        }
      }
    }
  }
  return table;
}

}  // namespace resilience::service
