// Ablation: at what recall does a partial verification stop paying off?
// Sweeps the detector recall r and cost V — a ScenarioGrid over the
// cost-override axis — and reports the first-order overhead of P_DMV
// against the partial-free baseline P_DMV*, together with the Section 2.3
// accuracy-to-cost ratio that predicts the crossover.

#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "resilience/core/verification.hpp"

namespace rc = resilience::core;
namespace ru = resilience::util;

int main(int argc, char** argv) {
  ru::CliParser cli("ablation_recall", "value of partial verifications vs recall/cost");
  cli.add_flag("platform", "hera", "catalog platform");
  resilience::bench::add_common_flags(cli);
  if (!cli.parse(argc, argv)) {
    return 1;
  }
  resilience::bench::CommonOptions common =
      resilience::bench::parse_common_flags(cli);
  const auto platform = cli.checked_name("platform", rc::platform_by_name);
  if (!platform) {
    return 2;
  }
  const auto base = platform->model_params();

  resilience::bench::print_header(
      "Ablation: partial-verification recall/cost sweep (first-order model)");

  const double baseline =
      rc::solve_first_order(rc::PatternKind::kDMVg, base).overhead;
  std::printf("Baseline P_DMV* (guaranteed verifications only): H* = %s\n\n",
              ru::format_percent(baseline).c_str());

  const double vstar = base.costs.guaranteed_verification;
  const double cm = base.costs.memory_checkpoint;
  const std::vector<double> cost_fractions = {0.001, 0.01, 0.1, 0.5, 1.0};
  const std::vector<double> recalls = {0.05, 0.2, 0.5, 0.8, 0.99};

  rc::ScenarioGrid grid;
  grid.platforms = {*platform};
  for (const double cost_fraction : cost_fractions) {
    for (const double recall : recalls) {
      rc::CostOverride detector_override;
      detector_override.partial_verification = vstar * cost_fraction;
      detector_override.recall = recall;
      grid.cost_overrides.push_back(detector_override);
    }
  }
  grid.kinds = {rc::PatternKind::kDMV};
  rc::SweepOptions options;
  options.numeric_optimum = false;  // the table reads first-order columns only
  options.pool = common.pool();
  const auto sweep = rc::SweepRunner(options).run(grid);

  ru::Table table({"V / V*", "recall r", "accuracy/cost ratio", "ratio(V*)",
                   "PDMV H*", "vs baseline", "worthwhile?"});
  for (std::size_t p = 0; p < sweep.points.size(); ++p) {
    // The resolved params already carry the override; no need to re-derive
    // them from the axis construction order.
    const double cost_fraction =
        sweep.points[p].params.costs.partial_verification / vstar;
    const double recall = sweep.points[p].params.costs.recall;
    const rc::Detector detector{"sweep", vstar * cost_fraction, recall};
    const double overhead =
        sweep.cell(p, rc::PatternKind::kDMV).first_order.overhead;
    const double ratio = rc::accuracy_to_cost_ratio(detector, vstar, cm);
    const double guaranteed_ratio =
        rc::guaranteed_accuracy_to_cost_ratio(vstar, cm);
    table.add_row({ru::format_double(cost_fraction, 3),
                   ru::format_double(recall, 2), ru::format_double(ratio, 1),
                   ru::format_double(guaranteed_ratio, 1),
                   ru::format_percent(overhead),
                   ru::format_percent(overhead - baseline),
                   overhead < baseline - 1e-9 ? "yes" : "no"});
  }
  resilience::bench::Reporter report("ablation_recall");
  report.add("Partial-verification recall/cost sweep", table);
  report.note(
      "Observation: partial verifications help exactly when their\n"
      "accuracy-to-cost ratio exceeds the guaranteed verification's ratio,\n"
      "validating the Section 2.3 selection rule.");
  return report.write(common.json_out) ? 0 : 1;
}
