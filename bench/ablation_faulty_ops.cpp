// Ablation: do errors during checkpoints/recoveries/verifications change
// the answer? Compares the plain analytical model against the Section-5
// refinement (fail-stop-aware operation costs + widened verification
// windows) and against the simulator, which always injects faults into all
// operations.

#include <iostream>

#include "bench_common.hpp"

namespace rb = resilience::bench;
namespace rc = resilience::core;
namespace ru = resilience::util;

int main(int argc, char** argv) {
  ru::CliParser cli("ablation_faulty_ops",
                    "Section-5 refinement: errors during resilience operations");
  rb::add_simulation_flags(cli, "48", "80");
  rb::add_common_flags(cli);
  if (!cli.parse(argc, argv)) {
    return 1;
  }
  rb::CommonOptions common = rb::parse_common_flags(cli);
  const auto [runs, patterns, seed] = rb::parse_simulation_flags(cli);

  rb::print_header(
      "Ablation: plain model vs Section-5 refinement vs simulation (P_DMV)");

  ru::Table table({"platform", "plain exact H", "refined exact H", "simulated H",
                   "refinement delta"});
  for (const auto& platform : rc::all_platforms()) {
    const auto params = platform.model_params();
    const auto solution = rc::solve_first_order(rc::PatternKind::kDMV, params);
    const auto pattern = solution.to_pattern(params.costs.recall);

    const double plain = rc::evaluate_pattern(pattern, params).overhead;
    rc::EvaluationOptions refined_options;
    refined_options.faulty_operations = true;
    refined_options.faulty_verifications = true;
    const double refined =
        rc::evaluate_pattern(pattern, params, refined_options).overhead;

    const auto simulated = rb::simulate_family(rc::PatternKind::kDMV, params,
                                               runs, patterns, seed,
                                               common.pool());

    table.add_row({platform.name, ru::format_percent(plain),
                   ru::format_percent(refined),
                   ru::format_percent(simulated.result.mean_overhead()),
                   ru::format_percent(refined - plain)});
  }
  rb::Reporter report("ablation_faulty_ops");
  report.add("Plain model vs Section-5 refinement vs simulation", table);
  report.note(
      "Observation: the refinement shifts the expected overhead by well\n"
      "under a percentage point at these MTBFs — the Section 5 conclusion\n"
      "that first-order results survive faulty resilience operations.");
  return report.write(common.json_out) ? 0 : 1;
}
