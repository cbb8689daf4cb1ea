#include "resilience/service/cost_model.hpp"

#include <algorithm>

#include "resilience/service/line_session.hpp"
#include "resilience/service/sweep_service.hpp"

namespace resilience::service {

CostEstimate estimate_cost(const ResolvedRequest& resolved,
                           const SweepService* service) {
  const ScenarioRequest& request = resolved.request;
  CostEstimate estimate;
  estimate.cells = resolved.points.size() * resolved.kinds.size() *
                   (request.simulate ? sub_cells(request.sim) : 1);

  // Identity tier first, both modes: an exact-signature hit replays the
  // finished table — cost is per-cell serialization, not compute.
  if (service != nullptr && service->cache().contains(resolved.signature)) {
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

  // Miss: price chain by chain where the seed tier may help.
  const double per_cell =
      request.numeric_optimum ? kCostColdCell : kCostFirstOrderCell;
  estimate.chains = service != nullptr ? resolved.chains.size() : 0;
  if (service == nullptr || !request.numeric_optimum ||
      !request.reuse_seeds || !service->options().reuse_seeds) {
    estimate.units = static_cast<double>(estimate.cells) * per_cell;
    return estimate;
  }
  const std::size_t cells_per_chain = estimate.cells / estimate.chains;
  for (const core::GridChain& chain : resolved.chains) {
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
  if (request.kind != RequestLine::Kind::kScenario) {
    return {};
  }
  return {true, estimate_cost(request.scenario, service)};
}

}  // namespace resilience::service
