#pragma once

// Shared driver for the Figure 7 / Figure 8 weak-scaling experiments: scale
// the Hera platform from 2^8 to 2^max nodes (per-node MTBF fixed), simulate
// P_D and P_DMV at each size, and print the six panels' series through the
// shared Reporter (--json-out emits them as one JSON document).

#include <cstdint>
#include <vector>

#include "bench_common.hpp"

namespace resilience::bench {

inline int run_weak_scaling(const char* title, double disk_checkpoint_cost,
                            int argc, char** argv) {
  util::CliParser cli("weak_scaling", title);
  add_simulation_flags(cli, "40", "60");
  add_common_flags(cli);
  cli.add_flag("min-log2", "8", "smallest node count (log2)");
  cli.add_flag("max-log2", "18", "largest node count (log2)");
  if (!cli.parse(argc, argv)) {
    return 1;
  }
  const auto [runs, patterns, seed] = parse_simulation_flags(cli);
  // At 2^20 Hera nodes the first-order overhead of PD is already 457%;
  // past it a simulated pattern almost never runs error-free to its disk
  // checkpoint, so the series stops there.
  constexpr std::int64_t kMaxLog2 = 20;
  const auto min_flag = cli.checked_int("min-log2", 0, kMaxLog2);
  const auto max_flag =
      cli.checked_int("max-log2", min_flag.value_or(0), kMaxLog2);
  if (!min_flag || !max_flag) {
    return 2;
  }
  const int min_log2 = static_cast<int>(*min_flag);
  const int max_log2 = static_cast<int>(*max_flag);
  CommonOptions common = parse_common_flags(cli);

  print_header(title);

  // The analytic path of the whole scaling series is one sweep: each node
  // count warm-starts from its predecessor's optimum along the chain.
  core::ScenarioGrid grid;
  grid.platforms = {core::hera()};
  for (int log2_nodes = min_log2; log2_nodes <= max_log2; log2_nodes += 2) {
    grid.node_counts.push_back(std::size_t{1} << log2_nodes);
  }
  core::CostOverride disk_cost;
  disk_cost.disk_checkpoint = disk_checkpoint_cost;
  grid.cost_overrides = {disk_cost};
  grid.kinds = {core::PatternKind::kD, core::PatternKind::kDMV};
  core::SweepOptions sweep_options;
  sweep_options.pool = common.pool();
  const auto sweep = core::SweepRunner(sweep_options).run(grid);

  struct Row {
    int log2_nodes;
    SimulatedPattern pd;
    SimulatedPattern pdmv;
  };
  std::vector<Row> rows;
  for (std::size_t p = 0; p < sweep.points.size(); ++p) {
    rows.push_back(
        {min_log2 + 2 * static_cast<int>(sweep.points[p].node_index),
         simulate_cell(sweep, p, core::PatternKind::kD, runs, patterns, seed,
                       common.pool()),
         simulate_cell(sweep, p, core::PatternKind::kDMV, runs, patterns, seed,
                       common.pool())});
  }

  Reporter report("weak_scaling");
  {
    util::Table out({"nodes", "PD predicted", "PD simulated", "PDMV predicted",
                     "PDMV numeric-opt", "PDMV simulated"});
    for (const auto& row : rows) {
      out.add_row({"2^" + std::to_string(row.log2_nodes),
                   util::format_percent(row.pd.solution.overhead),
                   util::format_percent(row.pd.result.mean_overhead()),
                   util::format_percent(row.pdmv.solution.overhead),
                   util::format_percent(row.pdmv.numeric_overhead),
                   util::format_percent(row.pdmv.result.mean_overhead())});
    }
    report.add("Panel (a): expected overhead, predicted vs simulated", out);
  }

  {
    util::Table table({"nodes", "PD period", "PDMV period"});
    for (const auto& row : rows) {
      table.add_row({"2^" + std::to_string(row.log2_nodes),
                     util::format_double(row.pd.solution.work / 3600.0, 3),
                     util::format_double(row.pdmv.solution.work / 3600.0, 3)});
    }
    report.add("Panel (b): pattern period W* (hours)", table);
  }

  {
    util::Table table({"nodes", "disk recoveries/pattern", "mem recoveries/pattern"});
    for (const auto& row : rows) {
      const auto& agg = row.pdmv.result.aggregate;
      table.add_row({"2^" + std::to_string(row.log2_nodes),
                     util::format_double(agg.disk_recoveries_per_pattern.mean(), 4),
                     util::format_double(agg.memory_recoveries_per_pattern.mean(), 4)});
    }
    report.add("Panel (c): recoveries per pattern (PDMV, simulated)", table);
  }

  {
    util::Table table({"nodes", "disk ckpts/h", "mem ckpts/h", "verifs/h"});
    for (const auto& row : rows) {
      const auto& agg = row.pdmv.result.aggregate;
      table.add_row({"2^" + std::to_string(row.log2_nodes),
                     util::format_double(agg.disk_checkpoints_per_hour.mean(), 3),
                     util::format_double(agg.memory_checkpoints_per_hour.mean(), 2),
                     util::format_double(agg.verifications_per_hour.mean(), 1)});
    }
    report.add("Panel (d): checkpoints / verifications per hour (PDMV)", table);
  }

  {
    util::Table table({"nodes", "PDMV disk ckpts/h", "PDMV mem ckpts/h",
                       "PD disk ckpts/h"});
    for (const auto& row : rows) {
      table.add_row(
          {"2^" + std::to_string(row.log2_nodes),
           util::format_double(
               row.pdmv.result.aggregate.disk_checkpoints_per_hour.mean(), 3),
           util::format_double(
               row.pdmv.result.aggregate.memory_checkpoints_per_hour.mean(), 2),
           util::format_double(
               row.pd.result.aggregate.disk_checkpoints_per_hour.mean(), 3)});
    }
    report.add("Panel (e): checkpoint rates, PD vs PDMV", table);
  }

  {
    util::Table table({"nodes", "disk recoveries/day", "mem recoveries/day"});
    for (const auto& row : rows) {
      const auto& agg = row.pdmv.result.aggregate;
      table.add_row({"2^" + std::to_string(row.log2_nodes),
                     util::format_double(agg.disk_recoveries_per_day.mean(), 2),
                     util::format_double(agg.memory_recoveries_per_day.mean(), 2)});
    }
    report.add("Panel (f): recoveries per day (PDMV)", table);
  }
  return report.write(common.json_out) ? 0 : 1;
}

}  // namespace resilience::bench
