// Figure 9 regeneration: impact of the error rates on Hera scaled to 1e5
// nodes. Three parts:
//   (a-c) simulated overhead of P_DMV, P_D and their difference over a grid
//         of (lambda_f, lambda_s) multipliers in [0.2, 2],
//   (d-g) lambda_f sweep at nominal lambda_s: periods, checkpoint rates,
//         recovery rates,
//   (h-k) lambda_s sweep at nominal lambda_f: same series.
// Every part is a ScenarioGrid over the rate-factor axis; the SweepRunner
// resolves the analytic side (warm-starting along the factor chain) and
// the driver only adds the Monte Carlo columns.

#include <iostream>
#include <vector>

#include "bench_common.hpp"

namespace rb = resilience::bench;
namespace rc = resilience::core;
namespace ru = resilience::util;

namespace {

constexpr std::size_t kNodes = 100000;

struct SweepPoint {
  double factor;
  rb::SimulatedPattern pd;
  rb::SimulatedPattern pdmv;
};

std::vector<double> sweep_factors(std::size_t points) {
  std::vector<double> factors;
  for (std::size_t i = 0; i < points; ++i) {
    factors.push_back(0.2 + 1.8 * static_cast<double>(i) /
                                static_cast<double>(points - 1));
  }
  return factors;
}

/// Sweeps P_D and P_DMV over a list of rate factors on Hera @ kNodes.
rc::SweepTable run_rate_sweep(std::vector<rc::RateFactors> factors,
                              resilience::util::ThreadPool* pool) {
  rc::ScenarioGrid grid;
  grid.platforms = {rc::hera()};
  grid.node_counts = {kNodes};
  grid.rate_factors = std::move(factors);
  grid.kinds = {rc::PatternKind::kD, rc::PatternKind::kDMV};
  rc::SweepOptions options;
  options.numeric_optimum = false;  // panels use first-order + simulation only
  options.pool = pool;
  return rc::SweepRunner(options).run(grid);
}

/// Simulates every point of an axis sweep, tagging rows with `factor`.
std::vector<SweepPoint> simulate_axis(const rc::SweepTable& sweep,
                                      const std::vector<double>& factors,
                                      std::uint64_t runs, std::uint64_t patterns,
                                      std::uint64_t seed,
                                      resilience::util::ThreadPool* pool) {
  std::vector<SweepPoint> points;
  for (std::size_t p = 0; p < sweep.points.size(); ++p) {
    points.push_back(
        {factors[sweep.points[p].rate_index],
         rb::simulate_cell(sweep, p, rc::PatternKind::kD, runs, patterns, seed,
                           pool),
         rb::simulate_cell(sweep, p, rc::PatternKind::kDMV, runs, patterns,
                           seed, pool)});
  }
  return points;
}

void report_rate_sweep(rb::Reporter& report, const char* label,
                       const std::vector<SweepPoint>& points) {
  ru::Table table({label, "PD W* (min)", "PDMV W* (min)", "PDMV disk ckpts/h",
                   "PDMV mem ckpts/h", "PDMV verifs/h", "disk rec/day",
                   "mem rec/day"});
  for (const auto& point : points) {
    const auto& agg = point.pdmv.result.aggregate;
    table.add_row({ru::format_double(point.factor, 2),
                   ru::format_double(point.pd.solution.work / 60.0, 1),
                   ru::format_double(point.pdmv.solution.work / 60.0, 1),
                   ru::format_double(agg.disk_checkpoints_per_hour.mean(), 2),
                   ru::format_double(agg.memory_checkpoints_per_hour.mean(), 1),
                   ru::format_double(agg.verifications_per_hour.mean(), 0),
                   ru::format_double(agg.disk_recoveries_per_day.mean(), 1),
                   ru::format_double(agg.memory_recoveries_per_day.mean(), 1)});
  }
  report.add(std::string("Periods and rates along the ") + label + " sweep",
             table);
}

}  // namespace

int main(int argc, char** argv) {
  ru::CliParser cli("fig9_error_rates", "regenerate Figure 9 (a-k)");
  rb::add_simulation_flags(cli, "24", "40");
  rb::add_common_flags(cli);
  cli.add_flag("grid", "5", "points per axis for the (a-c) surface");
  if (!cli.parse(argc, argv)) {
    return 1;
  }
  const auto [runs, patterns, seed] = rb::parse_simulation_flags(cli);
  // At least two points span [0.2, 2]; at most 181 keeps the surface
  // (181^2 points x 2 families) within kMaxRequestCells, the bound the
  // service puts on one request's grid.
  const auto grid_flag = cli.checked_int("grid", 2, 181);
  if (!grid_flag) {
    return 2;
  }
  const auto grid_points = static_cast<std::size_t>(*grid_flag);
  rb::CommonOptions common = rb::parse_common_flags(cli);

  rb::print_header("Figure 9: error-rate impact on Hera @ 100,000 nodes");
  rb::Reporter report("fig9_error_rates");

  // ---- Panels (a-c): overhead surface over the multiplier grid ----
  {
    std::vector<rc::RateFactors> surface;
    for (const double lf : sweep_factors(grid_points)) {
      for (const double ls : sweep_factors(grid_points)) {
        surface.push_back({lf, ls});
      }
    }
    const auto sweep = run_rate_sweep(surface, common.pool());
    ru::Table table({"lf factor", "ls factor", "PDMV H", "PD H", "PD - PDMV"});
    for (std::size_t p = 0; p < sweep.points.size(); ++p) {
      const auto& factors = surface[sweep.points[p].rate_index];
      const auto pdmv = rb::simulate_cell(sweep, p, rc::PatternKind::kDMV,
                                          runs, patterns, seed, common.pool());
      const auto pd = rb::simulate_cell(sweep, p, rc::PatternKind::kD, runs,
                                        patterns, seed, common.pool());
      table.add_row({ru::format_double(factors.fail_stop, 2),
                     ru::format_double(factors.silent, 2),
                     ru::format_percent(pdmv.result.mean_overhead()),
                     ru::format_percent(pd.result.mean_overhead()),
                     ru::format_percent(pd.result.mean_overhead() -
                                        pdmv.result.mean_overhead())});
    }
    report.add(
        "Panels (a-c): simulated overhead over (lambda_f, lambda_s) factors",
        table);
  }

  // ---- Panels (d-g): lambda_f sweep at nominal lambda_s ----
  {
    const auto factors = sweep_factors(7);
    std::vector<rc::RateFactors> axis;
    for (const double lf : factors) {
      axis.push_back({lf, 1.0});
    }
    const auto sweep = run_rate_sweep(axis, common.pool());
    report_rate_sweep(report, "lambda_f factor",
                      simulate_axis(sweep, factors, runs, patterns, seed,
                                    common.pool()));
  }

  // ---- Panels (h-k): lambda_s sweep at nominal lambda_f ----
  {
    const auto factors = sweep_factors(7);
    std::vector<rc::RateFactors> axis;
    for (const double ls : factors) {
      axis.push_back({1.0, ls});
    }
    const auto sweep = run_rate_sweep(axis, common.pool());
    report_rate_sweep(report, "lambda_s factor",
                      simulate_axis(sweep, factors, runs, patterns, seed,
                                    common.pool()));
  }
  return report.write(common.json_out) ? 0 : 1;
}
