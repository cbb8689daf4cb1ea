#pragma once

// Shared plumbing for the figure/table regeneration harnesses: every bench
// resolves its scenario grid through the SweepRunner (first-order closed
// forms + exact-model optima per cell), simulates the predicted patterns,
// and prints rows matching the paper's tables/figures. Simulation sizes
// default well below the paper's 1000 x 1000 so the whole suite runs in
// minutes; pass --runs/--patterns to reproduce at paper scale.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "resilience/core/expected_time.hpp"
#include "resilience/core/first_order.hpp"
#include "resilience/core/platform.hpp"
#include "resilience/core/sweep.hpp"
#include "resilience/sim/runner.hpp"
#include "resilience/util/cli.hpp"
#include "resilience/util/json.hpp"
#include "resilience/util/table.hpp"
#include "resilience/util/thread_pool.hpp"

namespace resilience::bench {

/// The fig6-style full-catalog grid every bench_micro throughput section
/// measures on: 4 platforms x weak-scaling node counts x all 6 families
/// (96 cells). `extra_node_counts` appends axis values — the "reuse"
/// section extends the axis by one step to model an incrementally
/// evolving client grid.
inline core::ScenarioGrid catalog_grid(
    std::vector<std::size_t> extra_node_counts = {}) {
  core::ScenarioGrid grid;
  grid.platforms = core::all_platforms();
  grid.node_counts = {256, 1024, 4096, 16384};
  for (const std::size_t nodes : extra_node_counts) {
    grid.node_counts.push_back(nodes);
  }
  return grid;
}

struct SimulatedPattern {
  core::FirstOrderSolution solution;
  double exact_overhead = 0.0;
  /// Exact-model optimum of the same cell (from the sweep table; 0 when
  /// the pattern was simulated outside a sweep).
  double numeric_overhead = 0.0;
  double numeric_work = 0.0;
  sim::MonteCarloResult result;
};

/// Solves, evaluates exactly, and simulates one pattern family.
inline SimulatedPattern simulate_family(core::PatternKind kind,
                                        const core::ModelParams& params,
                                        std::uint64_t runs, std::uint64_t patterns,
                                        std::uint64_t seed,
                                        util::ThreadPool* pool = nullptr) {
  SimulatedPattern out;
  out.solution = core::solve_first_order(kind, params);
  const auto pattern = out.solution.to_pattern(params.costs.recall);
  out.exact_overhead = core::evaluate_pattern(pattern, params).overhead;
  sim::MonteCarloConfig config;
  config.runs = runs;
  config.patterns_per_run = patterns;
  config.seed = seed;
  config.pool = pool;
  out.result = sim::run_monte_carlo(pattern, params, config);
  return out;
}

/// Simulates the first-order pattern of one sweep cell: the analytic
/// columns (first-order solution, exact H, numeric optimum) come straight
/// from the sweep table, only the Monte Carlo part runs here.
inline SimulatedPattern simulate_cell(const core::SweepTable& table,
                                      std::size_t point_index,
                                      core::PatternKind kind, std::uint64_t runs,
                                      std::uint64_t patterns, std::uint64_t seed,
                                      util::ThreadPool* pool = nullptr) {
  const core::SweepCell& cell = table.cell(point_index, kind);
  const core::ModelParams& params = table.points[point_index].params;
  SimulatedPattern out;
  out.solution = cell.first_order;
  out.exact_overhead = cell.exact_at_first_order;
  out.numeric_overhead = cell.overhead;
  out.numeric_work = cell.work;
  sim::MonteCarloConfig config;
  config.runs = runs;
  config.patterns_per_run = patterns;
  config.seed = seed;
  config.pool = pool;
  out.result = sim::run_monte_carlo(
      cell.first_order.to_pattern(params.costs.recall), params, config);
  return out;
}

/// Standard --runs/--patterns/--seed flags shared by all harnesses.
inline void add_simulation_flags(util::CliParser& cli, const char* default_runs,
                                 const char* default_patterns) {
  cli.add_flag("runs", default_runs, "Monte Carlo runs per configuration");
  cli.add_flag("patterns", default_patterns, "patterns per run");
  cli.add_flag("seed", "1", "base RNG seed");
}

/// Parsed values of the simulation flag triple.
struct SimulationOptions {
  std::uint64_t runs = 0;
  std::uint64_t patterns = 0;
  std::uint64_t seed = 0;
};

/// Reads --runs and --patterns (whole counts >= 1) and --seed (any
/// unsigned 64-bit value); a bad value exits 2 after the parser's
/// diagnostic.
inline SimulationOptions parse_simulation_flags(const util::CliParser& cli) {
  const auto runs = cli.checked_uint64("runs", 1);
  const auto patterns = cli.checked_uint64("patterns", 1);
  const auto seed = cli.checked_uint64("seed");
  if (!runs || !patterns || !seed) {
    std::exit(2);
  }
  return {*runs, *patterns, *seed};
}

/// Shared --threads/--json-out pair: every fig/ablation driver registers
/// and interprets these two identically (add right after construction so
/// --help lists them uniformly).
inline void add_common_flags(util::CliParser& cli) {
  cli.add_flag("threads", "0",
               "worker threads for the analytic sweep (0 = shared global pool)");
  cli.add_flag("json-out", "",
               "write every printed table to this file as one JSON document");
}

/// Parsed values of the common flag pair. The dedicated pool is created
/// lazily on first pool() call, so drivers with no parallel work never
/// spawn idle threads; the returned pointer plugs straight into
/// SweepOptions::pool / MonteCarloConfig::pool (nullptr = global pool).
struct CommonOptions {
  std::size_t threads = 0;
  std::string json_out;

  [[nodiscard]] util::ThreadPool* pool() {
    if (threads > 0 && owned_pool_ == nullptr) {
      owned_pool_ = std::make_unique<util::ThreadPool>(threads);
    }
    return owned_pool_.get();
  }

 private:
  std::unique_ptr<util::ThreadPool> owned_pool_;
};

/// Reads the common pair; a bad --threads exits 2 after the parser's
/// diagnostic.
inline CommonOptions parse_common_flags(const util::CliParser& cli) {
  const auto threads = cli.checked_int("threads", 0);
  if (!threads) {
    std::exit(2);
  }
  CommonOptions common;
  common.threads = static_cast<std::size_t>(*threads);
  common.json_out = cli.get_string("json-out");
  return common;
}

inline void print_header(const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("==============================================================\n\n");
}

/// The one output path for figure/ablation tables: add() prints the titled
/// table to stdout exactly as the drivers always did AND records it, so
/// write() can emit the whole run as one JSON document
/// ({"harness": ..., "sections": [{"title", "headers", "rows"}], "notes"})
/// through the same util/json serializer the sweep service speaks.
class Reporter {
 public:
  explicit Reporter(std::string harness) : harness_(std::move(harness)) {}

  /// Prints "title" + the table (the classic console format) and records
  /// the section for JSON emission.
  void add(const std::string& title, const util::Table& table) {
    std::printf("%s\n", title.c_str());
    table.print(std::cout);
    std::cout << '\n';
    util::JsonValue section = util::JsonValue::object();
    section.set("title", title);
    const util::JsonValue table_json = table.to_json();
    for (const auto& [key, value] : table_json.as_object()) {
      section.set(key, value);
    }
    sections_.push_back(std::move(section));
  }

  /// Prints free-form commentary and records it under "notes".
  void note(const std::string& text) {
    std::printf("%s\n", text.c_str());
    notes_.push_back(text);
  }

  /// Writes the collected document when --json-out was given; returns
  /// false (after a diagnostic) when the file cannot be written.
  bool write(const std::string& path) const {
    if (path.empty()) {
      return true;
    }
    util::JsonValue doc = util::JsonValue::object();
    doc.set("harness", harness_);
    util::JsonValue sections = util::JsonValue::array();
    for (const auto& section : sections_) {
      sections.push_back(section);
    }
    doc.set("sections", std::move(sections));
    if (!notes_.empty()) {
      util::JsonValue notes = util::JsonValue::array();
      for (const auto& text : notes_) {
        notes.push_back(text);
      }
      doc.set("notes", std::move(notes));
    }
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "%s: cannot write %s\n", harness_.c_str(),
                   path.c_str());
      return false;
    }
    out << doc.dump(2) << '\n';
    return true;
  }

 private:
  std::string harness_;
  std::vector<util::JsonValue> sections_;
  std::vector<std::string> notes_;
};

}  // namespace resilience::bench
