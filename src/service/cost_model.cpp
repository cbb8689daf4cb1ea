#include "resilience/service/cost_model.hpp"

#include <algorithm>

#include "resilience/service/line_session.hpp"
#include "resilience/service/sweep_service.hpp"

namespace resilience::service {

CostEstimate estimate_cost(const ScenarioRequest& request,
                           const SweepService* service) {
  CostEstimate estimate;
  const core::ScenarioGrid& grid = request.grid;
  estimate.cells = grid.cell_count();
  if (request.simulate) {
    estimate.cells *= request.sim.weibull_shape.size() *
                      request.sim.faulty_ops.size();
  }

  // Identity tier first, both modes: an exact-signature hit replays the
  // finished table — cost is per-cell serialization, not compute.
  if (service != nullptr &&
      service->cache().contains(service->signature_for(request))) {
    estimate.identity_hit = true;
    estimate.units = static_cast<double>(estimate.cells) * kCostReplayCell;
    return estimate;
  }

  if (request.simulate) {
    // Simulate requests are priced from their run budget — the cost the
    // admission controller/fair queue must bound is Monte Carlo draws,
    // not (n, m, W) searches. max_runs is the upper bound; target_ci can
    // only make cells cheaper.
    const double per_cell =
        std::max(kCostFirstOrderCell,
                 static_cast<double>(request.sim.max_runs) *
                     static_cast<double>(request.sim.patterns_per_run) /
                     kCostSimDrawsPerUnit);
    estimate.units = static_cast<double>(estimate.cells) * per_cell;
    return estimate;
  }

  const double per_cell =
      request.numeric_optimum ? kCostColdCell : kCostFirstOrderCell;
  if (service == nullptr) {
    estimate.units = static_cast<double>(estimate.cells) * per_cell;
    return estimate;
  }

  // Miss: price chain by chain. The chain list needs the same effective
  // options the service will submit under (numeric_optimum is the only
  // per-request override).
  core::SweepOptions sweep = service->options().sweep;
  sweep.numeric_optimum = request.numeric_optimum;
  const std::vector<core::GridChain> chains = core::grid_chains(grid, sweep);
  estimate.chains = chains.size();
  const std::size_t cells_per_chain =
      chains.empty() ? 0 : estimate.cells / chains.size();

  const bool seeds_apply = request.numeric_optimum && request.reuse_seeds &&
                           service->options().reuse_seeds;
  if (!seeds_apply) {
    estimate.units = static_cast<double>(estimate.cells) * per_cell;
    return estimate;
  }
  for (const core::GridChain& chain : chains) {
    const bool seeded = service->cache().has_seeds(chain.key);
    if (seeded) {
      ++estimate.seeded_chains;
    }
    estimate.units += static_cast<double>(cells_per_chain) *
                      (seeded ? kCostSeededCell : per_cell);
  }
  return estimate;
}

LineCost estimate_line_cost(std::string_view line, const SweepService* service,
                            int /*default_deadline_ms*/) {
  const RequestLine request = classify_line(line, 0);
  LineCost cost;
  cost.scenario = request.kind == RequestLine::Kind::kScenario;
  if (cost.scenario) {
    cost.estimate = estimate_cost(request.request, service);
  }
  return cost;
}

}  // namespace resilience::service
