// Quickstart: compute the optimal resilience pattern for a platform.
//
// Given a platform description (error rates, checkpoint costs), this walks
// the library's main path: pick a pattern family, solve the Table 1 closed
// forms, and print the resulting schedule — the same answer a user would
// previously have extracted from the paper by hand.
//
//   ./quickstart --platform hera --pattern PDMV

#include <cstdio>

#include "resilience/core/first_order.hpp"
#include "resilience/core/platform.hpp"
#include "resilience/util/cli.hpp"

int main(int argc, char** argv) {
  resilience::util::CliParser cli("quickstart",
                                  "optimal resilience pattern for a platform");
  cli.add_flag("platform", "hera", "hera | atlas | coastal | coastalssd");
  cli.add_flag("pattern", "PDMV", "PD | PDV* | PDV | PDM | PDMV* | PDMV");
  if (!cli.parse(argc, argv)) {
    return 1;
  }

  const auto platform =
      cli.checked_name("platform", resilience::core::platform_by_name);
  const auto kind =
      cli.checked_name("pattern", resilience::core::pattern_kind_from_name);
  if (!platform || !kind) {
    return 2;
  }
  const auto params = platform->model_params();

  std::printf("Platform %s: %zu nodes, lambda_f = %.3g /s, lambda_s = %.3g /s\n",
              platform->name.c_str(), platform->nodes, params.rates.fail_stop,
              params.rates.silent);
  std::printf("Costs: C_D = %.1fs, C_M = %.1fs, V* = %.1fs, V = %.3fs (r = %.2f)\n\n",
              params.costs.disk_checkpoint, params.costs.memory_checkpoint,
              params.costs.guaranteed_verification, params.costs.partial_verification,
              params.costs.recall);

  const auto solution = resilience::core::solve_first_order(*kind, params);
  std::printf("Optimal %s pattern:\n",
              resilience::core::pattern_name(*kind).c_str());
  std::printf("  period W*                = %.0f s (%.2f hours)\n", solution.work,
              solution.work / 3600.0);
  std::printf("  memory checkpoints n*    = %zu per pattern\n", solution.segments_n);
  std::printf("  verifications m*         = %zu per segment\n", solution.chunks_m);
  std::printf("  expected overhead H*     = %.2f%%\n", solution.overhead * 100.0);
  std::printf("\nSchedule: every %.2f h of work, take %zu in-memory checkpoint(s)\n"
              "(each preceded by a guaranteed verification), with %zu verification(s)\n"
              "per segment, then one disk checkpoint.\n",
              solution.work / 3600.0, solution.segments_n, solution.chunks_m);
  return 0;
}
