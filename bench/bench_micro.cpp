// Microbenchmarks for the hot paths: the analytical evaluator, the
// optimizers, the simulation engine (arrival-driven fast path vs. the
// per-operation reference sampler) and the stencil kernel.
//
// Two modes:
//   * default: Google Benchmark suite (when the library is available),
//     gating performance regressions interactively;
//   * --json [--patterns=N] [--out=FILE]: fixed-seed throughput harness
//     emitting BENCH_micro.json with patterns/sec per pattern family for
//     both engine paths, so the perf trajectory is tracked across PRs
//     (see bench/README.md for the methodology).

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <limits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <thread>

#include "bench_common.hpp"
#include "resilience/core/expected_time.hpp"
#include "resilience/core/first_order.hpp"
#include "resilience/core/optimizer.hpp"
#include "resilience/core/platform.hpp"
#include "resilience/core/sweep.hpp"
#include "resilience/net/client.hpp"
#include "resilience/net/resilient_client.hpp"
#include "resilience/net/router.hpp"
#include "resilience/net/server.hpp"
#include "resilience/service/jsonl_session.hpp"
#include "resilience/service/serialize.hpp"
#include "resilience/service/sim_service.hpp"
#include "resilience/service/sim_table.hpp"
#include "resilience/service/sweep_service.hpp"
#include "resilience/sim/engine.hpp"
#include "resilience/sim/runner.hpp"

#if RESILIENCE_HAVE_GBENCH
#include <benchmark/benchmark.h>

#include "resilience/app/stencil.hpp"
#endif

namespace rc = resilience::core;
namespace rs = resilience::sim;
namespace ru = resilience::util;

namespace {

const rc::ModelParams& hera_params() {
  static const rc::ModelParams params = rc::hera().model_params();
  return params;
}

// ------------------------------------------------------------ JSON mode --

constexpr std::uint64_t kJsonSeed = 42;  // fixed: throughput must be replayable

struct FamilyResult {
  std::string name;
  double fast_patterns_per_sec = 0.0;
  double reference_patterns_per_sec = 0.0;
  double fast_overhead = 0.0;
  double reference_overhead = 0.0;

  [[nodiscard]] double speedup() const {
    return reference_patterns_per_sec > 0.0
               ? fast_patterns_per_sec / reference_patterns_per_sec
               : 0.0;
  }
};

/// Best-of-`reps` throughput of one simulation closure (patterns/sec).
template <typename Simulate>
double measure_patterns_per_sec(std::uint64_t patterns, int reps,
                                Simulate&& simulate) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    simulate();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (elapsed.count() > 0.0) {
      best = std::max(best, static_cast<double>(patterns) / elapsed.count());
    }
  }
  return best;
}

FamilyResult measure_family(rc::PatternKind kind, std::uint64_t patterns) {
  FamilyResult result;
  result.name = rc::pattern_name(kind);
  const auto& params = hera_params();
  const auto solution = rc::solve_first_order(kind, params);
  const auto pattern = solution.to_pattern(params.costs.recall);
  constexpr int kReps = 3;

  {  // arrival-driven fast path: no-op observer
    rs::RunMetrics metrics;
    result.fast_patterns_per_sec =
        measure_patterns_per_sec(patterns, kReps, [&] {
          rs::PoissonArrivalModel errors(params.rates, ru::Xoshiro256(kJsonSeed));
          metrics = rs::simulate_patterns(pattern, params, errors, patterns);
        });
    result.fast_overhead = metrics.overhead();
  }
  {  // per-operation reference sampler, bound through the same template
    rs::RunMetrics metrics;
    result.reference_patterns_per_sec =
        measure_patterns_per_sec(patterns, kReps, [&] {
          rs::ErrorModel errors(params.rates, ru::Xoshiro256(kJsonSeed));
          metrics = rs::simulate_patterns(pattern, params, errors, patterns);
        });
    result.reference_overhead = metrics.overhead();
  }
  return result;
}

// ----------------------------------------------------- sweep throughput --

/// Throughput of the analytical scenario-sweep path: the fig6-style
/// full-catalog grid (4 platforms x weak-scaling node counts x 6 families)
/// through the warm-started SweepRunner vs. the pre-sweep baseline (every
/// point independently cold-optimized with per-probe make_pattern +
/// evaluate_pattern, selected via OptimizerOptions::legacy_cell_evaluation).
/// A scenario = one (grid point, pattern family) optimization. The two
/// paths must land on identical optima — same (n, m), overhead within
/// 1e-9 — or the run fails; speed without agreement is not a result.
struct SweepBenchResult {
  std::size_t cells = 0;
  double runner_scenarios_per_sec = 0.0;
  double reference_scenarios_per_sec = 0.0;
  std::size_t mismatched_cells = 0;
  double max_overhead_gap = 0.0;

  [[nodiscard]] double speedup() const {
    return reference_scenarios_per_sec > 0.0
               ? runner_scenarios_per_sec / reference_scenarios_per_sec
               : 0.0;
  }
  [[nodiscard]] bool optima_match() const { return mismatched_cells == 0; }
};

SweepBenchResult run_sweep_bench() {
  // One builder for every throughput section (sweep/service/reuse):
  // resilience::bench::catalog_grid, the fig6-style 96-cell catalog.
  const rc::ScenarioGrid grid = resilience::bench::catalog_grid();
  const auto kinds = grid.resolved_kinds();
  SweepBenchResult result;
  result.cells = grid.cell_count();

  // Warm-started sweep engine (best of 2: the first run also validates).
  rc::SweepTable table;
  double runner_seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 2; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    table = rc::SweepRunner().run(grid);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    runner_seconds = std::min(runner_seconds, elapsed.count());
  }
  result.runner_scenarios_per_sec =
      static_cast<double>(result.cells) / runner_seconds;

  // Pre-sweep baseline: independent cold optimizations, legacy evaluation.
  const auto points = rc::resolve_points(grid);
  struct ReferenceCell {
    std::size_t n = 0;
    std::size_t m = 0;
    double overhead = 0.0;
  };
  std::vector<ReferenceCell> reference(points.size() * kinds.size());
  rc::OptimizerOptions legacy;
  legacy.legacy_cell_evaluation = true;
  double reference_seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 2; ++rep) {  // best of 2, same protocol as the runner
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t p = 0; p < points.size(); ++p) {
      for (std::size_t k = 0; k < kinds.size(); ++k) {
        const auto solution =
            rc::optimize_pattern(kinds[k], points[p].params, legacy);
        reference[p * kinds.size() + k] = {solution.segments_n, solution.chunks_m,
                                           solution.overhead};
      }
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    reference_seconds = std::min(reference_seconds, elapsed.count());
  }
  result.reference_scenarios_per_sec =
      static_cast<double>(result.cells) / reference_seconds;

  // Cell-by-cell agreement.
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const auto& sweep_cell = table.cells[p * kinds.size() + k];
      const auto& ref = reference[p * kinds.size() + k];
      const double gap = std::fabs(sweep_cell.overhead - ref.overhead);
      result.max_overhead_gap = std::max(result.max_overhead_gap, gap);
      if (sweep_cell.segments_n != ref.n || sweep_cell.chunks_m != ref.m ||
          !(gap <= 1e-9 * std::max(1.0, std::fabs(ref.overhead)))) {
        ++result.mismatched_cells;
        std::fprintf(stderr,
                     "bench_micro: sweep cell %zu/%s diverges from the "
                     "reference: (n=%zu,m=%zu,H=%.12g) vs (n=%zu,m=%zu,H=%.12g)\n",
                     p, rc::pattern_name(kinds[k]).c_str(), sweep_cell.segments_n,
                     sweep_cell.chunks_m, sweep_cell.overhead, ref.n, ref.m,
                     ref.overhead);
      }
    }
  }
  return result;
}

// --------------------------------------------------- service throughput --

/// Repeated-batch throughput through the SweepService on the fig6-style
/// 96-cell catalog grid: one cold submit (computes + fills the cache),
/// then repeated submits of the identical batch served from the warm
/// cache. A warm hit must be bit-identical to a fresh recompute — reuse
/// speed without identity is not a result — and the acceptance bar is a
/// >= 20x warm-over-cold scenario throughput.
struct ServiceBenchResult {
  std::size_t cells = 0;
  std::size_t warm_batches = 0;
  double cold_scenarios_per_sec = 0.0;
  double warm_scenarios_per_sec = 0.0;
  bool hit_bit_identical = false;

  [[nodiscard]] double warm_speedup() const {
    return cold_scenarios_per_sec > 0.0
               ? warm_scenarios_per_sec / cold_scenarios_per_sec
               : 0.0;
  }
};

ServiceBenchResult run_service_bench() {
  namespace rv = resilience::service;
  const rc::ScenarioGrid grid = resilience::bench::catalog_grid();
  ServiceBenchResult result;
  result.cells = grid.cell_count();

  rv::SweepService service;
  double cold_seconds = 0.0;
  {
    const auto start = std::chrono::steady_clock::now();
    const rv::SubmitResult cold = service.submit(grid);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    cold_seconds = elapsed.count();
    if (cold.cache_hit) {
      std::fprintf(stderr, "bench_micro: cold submit unexpectedly hit cache\n");
      return result;
    }
  }
  result.cold_scenarios_per_sec =
      static_cast<double>(result.cells) / cold_seconds;

  // Identity first: a cached hit against a from-scratch recompute.
  const rv::SubmitResult hit = service.submit(grid);
  const rc::SweepTable recomputed = rc::SweepRunner().run(grid);
  result.hit_bit_identical =
      hit.cache_hit && rc::tables_bit_identical(*hit.table, recomputed);

  // Warm throughput: enough repeats to out-resolve the clock.
  result.warm_batches = 200;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < result.warm_batches; ++i) {
    const rv::SubmitResult warm = service.submit(grid);
    if (!warm.cache_hit) {
      std::fprintf(stderr, "bench_micro: warm submit missed the cache\n");
      return result;
    }
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  const double per_batch =
      std::max(elapsed.count() / static_cast<double>(result.warm_batches),
               1e-9);  // clock floor: avoid infinite rates on coarse clocks
  result.warm_scenarios_per_sec = static_cast<double>(result.cells) / per_batch;
  return result;
}

// ----------------------------------------------------- cross-grid reuse --

/// Cross-grid seed reuse: the catalog grid is cached, then the client
/// extends the node-count axis by one step (256..16384 -> +20480) — the
/// incremental-evolution pattern the seed index exists for. The seeded
/// submit reuses the 96 bit-equal points outright and computes only the
/// 24 genuinely new cells (warm-started from the cached chain ends). The
/// gate counts work instead of timing it: the seeded submit must search
/// at most 1/5 of the (n, m) lattice cells a cold sweep of the extended
/// grid searches (deterministic: the same count on any machine and pool
/// size), and every cell of the reused table must be bit-identical to the
/// cold table. The wall-clock speedup is recorded, not gated. A second
/// gate covers the ROADMAP persistence item: a service restart over a
/// cache_dir must serve the spilled entry back byte-identically (lazy
/// reload, zero recomputes).
struct ReuseBenchResult {
  std::size_t base_cells = 0;
  std::size_t extended_cells = 0;
  double cold_scenarios_per_sec = 0.0;
  double reuse_scenarios_per_sec = 0.0;
  std::uint64_t cold_lattice_cells = 0;    ///< searched by the cold sweep
  std::uint64_t seeded_lattice_cells = 0;  ///< searched by the seeded submit
  bool seeded = false;
  bool bit_identical = false;
  bool persistence_reload_bit_identical = false;

  [[nodiscard]] double speedup() const {
    return cold_scenarios_per_sec > 0.0
               ? reuse_scenarios_per_sec / cold_scenarios_per_sec
               : 0.0;
  }
  [[nodiscard]] double lattice_ratio() const {
    return seeded_lattice_cells > 0
               ? static_cast<double>(cold_lattice_cells) /
                     static_cast<double>(seeded_lattice_cells)
               : 0.0;
  }
  [[nodiscard]] bool work_within_bound() const {
    return seeded_lattice_cells > 0 &&
           5 * seeded_lattice_cells <= cold_lattice_cells;
  }
};

ReuseBenchResult run_reuse_bench() {
  namespace rv = resilience::service;
  const rc::ScenarioGrid base = resilience::bench::catalog_grid();
  const rc::ScenarioGrid extended = resilience::bench::catalog_grid({20480});
  ReuseBenchResult result;
  result.base_cells = base.cell_count();
  result.extended_cells = extended.cell_count();

  // Cold reference for the extended grid (no cache, no seeds), best of 2.
  rc::SweepTable cold_table;
  double cold_seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 2; ++rep) {
    rc::EngineCounters counters;
    rc::SweepOptions options;
    options.optimizer.counters = &counters;
    const auto start = std::chrono::steady_clock::now();
    cold_table = rc::SweepRunner(options).run(extended);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    cold_seconds = std::min(cold_seconds, elapsed.count());
    result.cold_lattice_cells = counters.lattice_cells.load();
  }
  result.cold_scenarios_per_sec =
      static_cast<double>(result.extended_cells) / cold_seconds;

  // Seeded submit of the extended grid against a service that has the
  // base grid cached. Fresh service per rep so every rep is a true miss
  // seeded only by the base table (best of 2, same protocol as cold).
  double reuse_seconds = std::numeric_limits<double>::infinity();
  result.seeded = true;
  result.bit_identical = true;
  for (int rep = 0; rep < 2; ++rep) {
    rv::SweepService service;
    const rv::SubmitResult warmup = service.submit(base);
    if (warmup.cache_hit) {
      std::fprintf(stderr, "bench_micro: base submit unexpectedly hit cache\n");
      return result;
    }
    const std::uint64_t searched_before = service.stats().engine_lattice_cells;
    const auto start = std::chrono::steady_clock::now();
    const rv::SubmitResult reused = service.submit(extended);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    reuse_seconds = std::min(reuse_seconds, elapsed.count());
    result.seeded_lattice_cells =
        service.stats().engine_lattice_cells - searched_before;
    result.seeded = result.seeded && reused.seeded && !reused.cache_hit;
    result.bit_identical =
        result.bit_identical &&
        rc::tables_bit_identical(*reused.table, cold_table);
  }
  result.reuse_scenarios_per_sec =
      static_cast<double>(result.extended_cells) / reuse_seconds;

  // Persistence: destroy a service (spilling its cache), restart over the
  // same directory, and demand the reload serve the identical bytes
  // without recomputing anything.
  const std::string cache_dir = "bench_micro_reuse_cache";
  std::error_code cleanup_error;
  std::filesystem::remove_all(cache_dir, cleanup_error);
  std::string before;
  {
    rv::ServiceOptions options;
    options.cache_dir = cache_dir;
    rv::SweepService service(options);
    before = rv::to_json(*service.submit(base).table).dump();
  }  // destructor spills the LRU to cache_dir
  {
    rv::ServiceOptions options;
    options.cache_dir = cache_dir;
    rv::SweepService service(options);
    const rv::SubmitResult reloaded = service.submit(base);
    result.persistence_reload_bit_identical =
        reloaded.cache_hit && reloaded.disk_hit &&
        service.tables_computed() == 0 &&
        rv::to_json(*reloaded.table).dump() == before;
  }
  std::filesystem::remove_all(cache_dir, cleanup_error);
  return result;
}

// ------------------------------------------------------ net throughput --

/// Loopback throughput of the epoll transport: a warm single-cell
/// request (transport cost, not compute cost) answered over TCP, serial
/// (one request in flight) vs. pipelined (every request sent before any
/// response is read). Gated on the transported responses being
/// byte-identical to the stdin sweep_server path — both run
/// service::JsonlSession, and this gate pins that the network layer
/// neither reorders, drops nor rewrites a byte.
struct NetBenchResult {
  std::size_t requests = 0;
  double serial_requests_per_sec = 0.0;
  double pipelined_requests_per_sec = 0.0;
  bool responses_identical = false;
  bool transport_supported = true;
  // Deadline gate: a cold grid that cannot finish inside a short
  // "deadline_ms" (see doomed_request) must answer a located timeout
  // error line in under 2x the deadline, and leave no compute behind it:
  // the engine and compute counters of a stats snapshot taken right
  // after the error line must not move while the daemon serves warm
  // requests afterwards (all identity hits, which compute nothing). The
  // post-timeout throughput is recorded, not gated: preemption moves it.
  int deadline_ms = 0;
  std::size_t deadline_cells = 0;  ///< size of the doomed grid
  double deadline_elapsed_ms = 0.0;
  bool deadline_error_line = false;
  double post_timeout_requests_per_sec = 0.0;
  bool post_timeout_identical = false;
  bool post_timeout_quiescent = false;

  [[nodiscard]] double pipelining_speedup() const {
    return serial_requests_per_sec > 0.0
               ? pipelined_requests_per_sec / serial_requests_per_sec
               : 0.0;
  }
  [[nodiscard]] bool deadline_within_bound() const {
    return deadline_error_line &&
           deadline_elapsed_ms < 2.0 * static_cast<double>(deadline_ms);
  }
};

/// A request that cannot finish inside `deadline_ms` on any core count:
/// one chain (hera x 1024 nodes x PDMV under one cost), whose points the
/// runner computes strictly in sequence — chains are its unit of
/// parallelism — and whose consecutive points swap the fail-stop and
/// silent rates across four orders of magnitude, so each warm-started
/// (n, m) descent crosses the lattice (~200 lattice cells per point from
/// a ~40-byte rate entry, so parsing stays negligible next to the
/// compute). The chain is sized from this machine's measured cost per
/// point to ten times the deadline. Sets `cells` to the grid's size.
std::string doomed_request(int deadline_ms, std::size_t& cells) {
  const auto chain = [](std::size_t points) {
    rc::ScenarioGrid grid;
    grid.platforms = {rc::hera()};
    grid.node_counts = {1024};
    grid.kinds = {rc::PatternKind::kDMV};
    for (std::size_t i = 0; i < points; ++i) {
      const double drift = 1.0 + 1e-4 * static_cast<double>(i);  // distinct
      const double low = 0.01 * drift;
      const double high = 100.0 * drift;
      grid.rate_factors.push_back(i % 2 == 0 ? rc::RateFactors{low, high}
                                             : rc::RateFactors{high, low});
    }
    return grid;
  };
  const rc::ScenarioGrid probe = chain(16);
  const auto start = std::chrono::steady_clock::now();
  (void)rc::SweepRunner().run(probe);
  const double seconds_per_point =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count() /
      static_cast<double>(probe.cell_count());
  const double target_seconds = 10.0 * deadline_ms / 1000.0;
  const auto points = std::max<std::size_t>(
      16, static_cast<std::size_t>(std::ceil(
              target_seconds / std::max(seconds_per_point, 1e-9))));
  const rc::ScenarioGrid grid = chain(points);
  cells = grid.cell_count();

  std::string request =
      "{\"id\": \"doomed\", \"platforms\": [\"hera\"], "
      "\"node_counts\": [1024], \"kinds\": [\"PDMV\"], \"rate_factors\": [";
  for (std::size_t i = 0; i < grid.rate_factors.size(); ++i) {
    const rc::RateFactors& f = grid.rate_factors[i];
    request += (i == 0 ? "{\"fail_stop\": " : ", {\"fail_stop\": ") +
               ru::format_json_number(f.fail_stop) +
               ", \"silent\": " + ru::format_json_number(f.silent) + "}";
  }
  request += "], \"deadline_ms\": " + std::to_string(deadline_ms) + "}";
  return request;
}

NetBenchResult run_net_bench() {
  namespace rv = resilience::service;
  namespace rn = resilience::net;
  NetBenchResult result;
  if (!rn::transport_supported()) {
    result.transport_supported = false;
    return result;  // non-Linux build: the section reports "skipped"
  }
  constexpr std::size_t kRequests = 1000;
  result.requests = kRequests;
  // Single-cell grid: even the cold first answer streams one cell in a
  // deterministic order, so the whole stream (1 warm-up miss + hits)
  // compares byte for byte without normalization.
  const std::string request =
      "{\"id\": \"net\", \"platforms\": [\"hera\"], \"node_counts\": [1024], "
      "\"kinds\": [\"PD\"]}";

  // Reference: the stdin path over the daemon's full request sequence —
  // 1 warm-up + kRequests serial + kRequests pipelined.
  std::vector<std::string> expected;
  {
    rv::SweepService reference;
    rv::JsonlSession session(reference,
                             [&expected](std::string&& line, bool) {
                               expected.push_back(std::move(line));
                             });
    for (std::size_t i = 0; i < 2 * kRequests + 1; ++i) {
      session.handle_line(request);
    }
  }

  // Construction binds (and can throw in sandboxes without loopback);
  // keep it inside the failure path so the bench degrades to a gated
  // "net section failed" instead of std::terminate.
  std::unique_ptr<rn::NetServer> server;
  std::thread serving;
  std::vector<std::string> received;
  received.reserve(expected.size());
  double serial_seconds = 0.0;
  double pipelined_seconds = 0.0;
  try {
    server = std::make_unique<rn::NetServer>(rn::NetServerOptions{});
    serving = std::thread([&server] {
      try {
        server->run();
      } catch (const std::exception& error) {
        // A dying loop thread must not take the whole bench with it; the
        // client side will observe the dead server and fail the gate.
        std::fprintf(stderr, "bench_micro: net server died: %s\n",
                     error.what());
      }
    });
    rn::Client client;
    client.connect("127.0.0.1", server->port());
    // A dead server (loop thread failure) must fail the gate, not hang
    // the bench until the CI job timeout.
    client.set_receive_timeout(30000);
    std::vector<std::string> warm_lines;  // one warm serial response
    {  // warm-up: the one cache-miss compute, excluded from the timing
      const auto response = client.transact(request);
      received.insert(received.end(), response.lines.begin(),
                      response.lines.end());
    }
    {  // serial: one request in flight at a time
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < kRequests; ++i) {
        const auto response = client.transact(request);
        if (i == 0) {
          warm_lines = response.lines;
        }
        received.insert(received.end(), response.lines.begin(),
                        response.lines.end());
      }
      serial_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
    }
    {  // pipelined: the same work, one write burst, responses streamed
      std::string burst;
      for (std::size_t i = 0; i < kRequests; ++i) {
        burst += request;
        burst += '\n';
      }
      std::vector<std::string> pipelined;
      const auto start = std::chrono::steady_clock::now();
      client.send_raw(burst);
      for (std::size_t i = 0; i < kRequests; ++i) {
        const auto response = client.read_response();
        pipelined.insert(pipelined.end(), response.lines.begin(),
                         response.lines.end());
      }
      pipelined_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      received.insert(received.end(), pipelined.begin(), pipelined.end());
      result.responses_identical = received == expected;
    }
    {  // deadline: a grid doomed by construction (see doomed_request)
      // must answer a timeout error line in < 2x the deadline, and the
      // worker it released must keep serving warm requests at full
      // speed. (A done line instead of the error means the gate
      // measured nothing: a gate failure.)
      result.deadline_ms = 100;
      const std::string doomed =
          doomed_request(result.deadline_ms, result.deadline_cells);
      const auto start = std::chrono::steady_clock::now();
      const auto response = client.transact(doomed);
      result.deadline_elapsed_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start)
              .count();
      result.deadline_error_line =
          response.complete && !response.lines.empty() &&
          response.lines.back().starts_with("{\"type\":\"error\"") &&
          response.lines.back().find("deadline") != std::string::npos;
    }
    {  // post-timeout: the timed-out sweep stopped at its error line
      // (engine.lattice_cells, engine.w_probes and service.tables_computed
      // hold still) and the daemon serves the warm request unchanged.
      const auto compute_counters = [&client] {
        const auto response =
            client.transact(R"({"type": "stats", "id": "quiescence"})");
        if (!response.complete) {
          throw std::runtime_error("stats request went unanswered");
        }
        const ru::JsonValue stats = ru::JsonValue::parse(response.lines.back());
        const auto counter = [&stats](const char* block, const char* key) {
          return stats.find(block)->find(key)->as_double();
        };
        return std::array<double, 3>{counter("engine", "lattice_cells"),
                                     counter("engine", "w_probes"),
                                     counter("service", "tables_computed")};
      };
      const auto at_error_line = compute_counters();
      constexpr std::size_t kPostRequests = kRequests / 10;
      bool identical = true;
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < kPostRequests; ++i) {
        const auto response = client.transact(request);
        identical = identical && response.complete &&
                    response.lines == warm_lines;
      }
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (seconds > 0.0) {
        result.post_timeout_requests_per_sec =
            static_cast<double>(kPostRequests) / seconds;
      }
      result.post_timeout_identical = identical;
      result.post_timeout_quiescent = compute_counters() == at_error_line;
    }
    client.close();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_micro: net bench failed: %s\n", error.what());
    result.responses_identical = false;
  }
  if (server != nullptr) {
    server->stop();
  }
  if (serving.joinable()) {
    serving.join();
  }

  if (serial_seconds > 0.0) {
    result.serial_requests_per_sec =
        static_cast<double>(kRequests) / serial_seconds;
  }
  if (pipelined_seconds > 0.0) {
    result.pipelined_requests_per_sec =
        static_cast<double>(kRequests) / pipelined_seconds;
  }
  return result;
}

// ----------------------------------------------------------- fleet merge --

/// The sharded-fleet front end driven fully in-process: N real NetServer
/// shards, a ShardFleet routing grid chains by consistent hash, and a
/// RouterSession merging the shard streams. Gated on byte-identity to
/// the single-process service::JsonlSession path: cold merges match per
/// response after a per-line sort (cold compute streams cells in pool
/// order; the router merges into table order), warm merges match
/// exactly. The robustness headline is kill recovery: one shard of
/// three stopped under a warm fleet, and the next pass must fail its
/// chains over to the survivors — still matching the reference (cells
/// never change; a done flag may legitimately report the cold recompute
/// of a merged failover unit) — with the elapsed time recorded.
struct FleetBenchResult {
  bool transport_supported = true;
  std::size_t requests = 0;  ///< per pass
  double one_shard_requests_per_sec = 0.0;
  double two_shard_requests_per_sec = 0.0;
  double three_shard_requests_per_sec = 0.0;
  bool merged_identical = false;  ///< cold sorted + warm exact, every N
  double kill_recovery_ms = 0.0;
  std::uint64_t failovers = 0;
  bool post_kill_identical = false;
};

FleetBenchResult run_fleet_bench() {
  namespace rv = resilience::service;
  namespace rn = resilience::net;
  FleetBenchResult result;
  if (!rn::transport_supported()) {
    result.transport_supported = false;
    return result;
  }

  // Distinct multi-chain grids: chains spread over every shard, and no
  // done flag depends on another request having been served first.
  const std::vector<std::string> workload = {
      "{\"id\": \"m1\", \"platforms\": [\"hera\", \"atlas\"], "
      "\"node_counts\": [256, 1024, 4096], \"kinds\": [\"PD\", \"PDMV\"]}",
      "{\"id\": \"m2\", \"platforms\": [\"atlas\", \"coastal\"], "
      "\"node_counts\": [512, 2048], \"kinds\": [\"PDM\", \"PDMV*\"]}",
      "{\"id\": \"m3\", \"platforms\": [\"hera\", \"coastal\"], "
      "\"node_counts\": [384, 1536, 6144], \"kinds\": [\"PDV\", \"PDMV\"]}",
      "{\"id\": \"m4\", \"platforms\": [\"hera\", \"atlas\", \"coastal\"], "
      "\"node_counts\": [320, 1280], \"kinds\": [\"PD\", \"PDV*\"]}",
      "{\"id\": \"m5\", \"platforms\": [\"hera\", \"coastal\"], "
      "\"node_counts\": [448, 1792], \"cost_overrides\": "
      "[{\"disk_checkpoint\": 311.0}, {}], \"kinds\": [\"PDMV\"]}",
      "{\"id\": \"m6\", \"platforms\": [\"atlas\"], "
      "\"node_counts\": [640, 2560, 10240], \"kinds\": [\"PD\", \"PDM\", "
      "\"PDMV\"]}",
  };
  result.requests = workload.size();

  using Responses = std::vector<std::vector<std::string>>;
  const auto sorted = [](Responses responses) {
    for (auto& lines : responses) {
      std::sort(lines.begin(), lines.end());
    }
    return responses;
  };

  // Single-process truth: one cold stream, one warm stream.
  Responses cold_reference;
  Responses warm_reference;
  {
    rv::SweepService reference;
    Responses* sink = &cold_reference;
    std::vector<std::string> current;
    rv::JsonlSession session(reference,
                             [&sink, &current](std::string&& line, bool end) {
                               current.push_back(std::move(line));
                               if (end) {
                                 sink->push_back(std::move(current));
                                 current.clear();
                               }
                             });
    for (const std::string& request : workload) {
      session.handle_line(request);
    }
    sink = &warm_reference;
    for (const std::string& request : workload) {
      session.handle_line(request);
    }
  }

  /// A real shard: NetServer (full SweepService) on its own thread.
  struct Shard {
    std::unique_ptr<rn::NetServer> server;
    std::thread thread;
    Shard()
        : server(std::make_unique<rn::NetServer>(rn::NetServerOptions{})),
          thread([this] {
            try {
              server->run();
            } catch (const std::exception& error) {
              std::fprintf(stderr, "bench_micro: fleet shard died: %s\n",
                           error.what());
            }
          }) {}
    void stop() {
      if (server != nullptr) {
        server->stop();
      }
      if (thread.joinable()) {
        thread.join();
      }
    }
    ~Shard() { stop(); }
  };

  // Stable ring ids (ports are ephemeral): the chain assignment — and
  // therefore which shard the kill below orphans — is deterministic
  // across runs.
  const auto fleet_options = [](const std::vector<std::unique_ptr<Shard>>&
                                    shards) {
    rn::RouterOptions options;
    for (std::size_t i = 0; i < shards.size(); ++i) {
      rn::ShardConfig config;
      config.port = shards[i]->server->port();
      config.id = "shard-" + std::to_string(i);
      options.shards.push_back(config);
    }
    options.connect_timeout_ms = 2000;
    options.receive_timeout_ms = 30000;
    options.attempts_per_shard = 2;
    options.backoff_initial_ms = 1;
    options.backoff_max_ms = 10;
    return options;
  };

  const auto run_pass = [&workload](rn::ShardFleet& fleet) {
    Responses responses;
    std::vector<std::string> current;
    rn::RouterSession session(
        fleet, [&responses, &current](std::string&& line, bool end) {
          current.push_back(std::move(line));
          if (end) {
            responses.push_back(std::move(current));
            current.clear();
          }
        });
    for (const std::string& request : workload) {
      session.handle_line(request);
    }
    return responses;
  };

  try {
    bool identical = true;
    constexpr std::size_t kWarmPasses = 20;
    for (std::size_t shard_count = 1; shard_count <= 3; ++shard_count) {
      std::vector<std::unique_ptr<Shard>> shards;
      for (std::size_t i = 0; i < shard_count; ++i) {
        shards.push_back(std::make_unique<Shard>());
      }
      rn::ShardFleet fleet(fleet_options(shards));

      identical = identical &&
                  sorted(run_pass(fleet)) == sorted(cold_reference) &&
                  run_pass(fleet) == warm_reference;

      const auto start = std::chrono::steady_clock::now();
      for (std::size_t pass = 0; pass < kWarmPasses; ++pass) {
        identical = identical && run_pass(fleet) == warm_reference;
      }
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      const double per_sec =
          seconds > 0.0
              ? static_cast<double>(kWarmPasses * workload.size()) / seconds
              : 0.0;
      (shard_count == 1   ? result.one_shard_requests_per_sec
       : shard_count == 2 ? result.two_shard_requests_per_sec
                          : result.three_shard_requests_per_sec) = per_sec;
    }
    result.merged_identical = identical;

    // Kill recovery: a warm 3-shard fleet loses one shard, and the next
    // pass pays the detection + failover + recompute bill. Every
    // response must still match the reference bytes — warm where the
    // dead shard owned nothing, cold-flagged where a failed-over unit
    // recomputed — with no line dropped or duplicated.
    {
      std::vector<std::unique_ptr<Shard>> shards;
      for (std::size_t i = 0; i < 3; ++i) {
        shards.push_back(std::make_unique<Shard>());
      }
      rn::ShardFleet fleet(fleet_options(shards));
      run_pass(fleet);  // warm every shard (identity gated above)

      shards[2]->stop();  // fail-stop under a warm fleet
      const auto start = std::chrono::steady_clock::now();
      const Responses after = sorted(run_pass(fleet));
      result.kill_recovery_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start)
              .count();
      bool post_identical = after.size() == warm_reference.size();
      const Responses warm_sorted = sorted(warm_reference);
      const Responses cold_sorted = sorted(cold_reference);
      for (std::size_t i = 0; i < after.size() && post_identical; ++i) {
        post_identical =
            after[i] == warm_sorted[i] || after[i] == cold_sorted[i];
      }
      result.post_kill_identical = post_identical;
      result.failovers = fleet.stats().failovers;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_micro: fleet bench failed: %s\n",
                 error.what());
    result.merged_identical = false;
    result.post_kill_identical = false;
  }
  return result;
}

// -------------------------------------------------------------- overload --

/// Admission-control costs under saturation. Two gates: (1) a shed
/// answer is CHEAP — with the queue at its budget a scenario request is
/// rejected in well under 10 ms round trip (the whole point of load
/// shedding is that saying "no" never costs a worker); (2) warm traffic
/// keeps flowing — with a second connection continuously streaming heavy
/// cold grids, warm single-cell requests are still served (the fair
/// queue dispatches them past the heavy lane instead of behind it),
/// byte-identical to the unloaded answers. Their throughput relative to
/// the unloaded phase is recorded as warm_loaded_ratio, not gated.
struct OverloadBenchResult {
  bool transport_supported = true;
  std::size_t shed_samples = 0;
  double shed_latency_ms_mean = 0.0;
  double shed_latency_ms_max = 0.0;
  bool shed_answers_wellformed = false;  ///< code + retry_after on each
  std::uint64_t sheds_recorded = 0;      ///< server-side counter
  double warm_unloaded_requests_per_sec = 0.0;
  double warm_loaded_requests_per_sec = 0.0;
  bool warm_loaded_identical = false;

  [[nodiscard]] double loaded_ratio() const {
    return warm_unloaded_requests_per_sec > 0.0
               ? warm_loaded_requests_per_sec / warm_unloaded_requests_per_sec
               : 0.0;
  }
};

OverloadBenchResult run_overload_bench() {
  namespace rn = resilience::net;
  OverloadBenchResult result;
  if (!rn::transport_supported()) {
    result.transport_supported = false;
    return result;
  }

  // ~384 cold cells: heavy enough to hold a worker for a scheduling-
  // visible stretch, and priced far over the 16-unit admission budget
  // even once the seed index discounts sibling grids to 384/8 = 48
  // units, so any arrival behind a queued one is shed.
  const auto heavy = [](int salt) {
    std::string nodes;
    for (int i = 0; i < 16; ++i) {
      nodes += (i == 0 ? "" : ", ") + std::to_string(128 + salt + i * 16);
    }
    return "{\"id\": \"ov_h" + std::to_string(salt) +
           "\", \"platforms\": [\"hera\", \"atlas\", \"coastal\"], "
           "\"node_counts\": [" +
           nodes +
           "], \"rate_factors\": [{\"fail_stop\": 0.5}, {\"fail_stop\": 1.0}, "
           "{\"fail_stop\": 2.0}, {\"fail_stop\": 4.0}], "
           "\"kinds\": [\"PD\", \"PDMV\"]}";
  };
  const std::string warm_request =
      "{\"id\": \"ov\", \"platforms\": [\"hera\"], \"node_counts\": [777], "
      "\"kinds\": [\"PD\"]}";
  constexpr std::size_t kWarmRequests = 300;
  constexpr std::size_t kShedSamples = 100;

  std::unique_ptr<rn::NetServer> server;
  std::thread serving;
  try {
    rn::NetServerOptions options;
    // Two lanes so heavy load occupies one while warm traffic keeps the
    // other. The 16-unit budget sits well below a queued heavy's price
    // even after the seed index discounts it (384 cells / 8 = 48 units),
    // so while a heavy is queued every further arrival is shed — the
    // path this phase measures. Oversized singletons still admit when
    // the queue is empty, so the heavies themselves get through.
    options.request_workers = 2;
    options.max_queue_cost = 16.0;
    server = std::make_unique<rn::NetServer>(options);
    serving = std::thread([&server] {
      try {
        server->run();
      } catch (const std::exception& error) {
        std::fprintf(stderr, "bench_micro: overload server died: %s\n",
                     error.what());
      }
    });

    rn::Client warm_client;
    warm_client.connect("127.0.0.1", server->port());
    warm_client.set_receive_timeout(30000);
    std::vector<std::string> warm_lines;
    {  // warm-up compute + capture the warm reference bytes
      (void)warm_client.transact(warm_request);
      warm_lines = warm_client.transact(warm_request).lines;
    }
    {  // unloaded warm throughput
      bool identical = true;
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < kWarmRequests; ++i) {
        const auto response = warm_client.transact(warm_request);
        identical =
            identical && response.complete && response.lines == warm_lines;
      }
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (seconds > 0.0 && identical) {
        result.warm_unloaded_requests_per_sec =
            static_cast<double>(kWarmRequests) / seconds;
      }
    }

    {  // shed path: saturate the queue, then measure rejection latency.
      // The heavies go out one by one, each after the previous reached a
      // worker: a single burst is admitted before any dispatch, where
      // the queue-empty exception covers only its first request and the
      // rest shed instead of staying queued.
      rn::Client flood;
      flood.connect("127.0.0.1", server->port());
      flood.set_receive_timeout(30000);
      const std::uint64_t started_before = server->stats().requests_started;
      const auto await = [&](auto pred) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!pred() && std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      };
      flood.send_raw(heavy(0) + "\n");
      await([&] {
        return server->stats().requests_started >= started_before + 1;
      });
      flood.send_raw(heavy(1) + "\n");
      await([&] {
        return server->stats().requests_started >= started_before + 2;
      });
      flood.send_raw(heavy(2) + "\n");  // both workers busy: this queues
      await([&] { return server->overload_stats().queued_depth >= 1; });
      bool wellformed = true;
      double total_ms = 0.0;
      for (std::size_t i = 0; i < kShedSamples; ++i) {
        if (server->overload_stats().queued_depth < 1) {
          break;  // the flood drained; stop measuring, keep the samples
        }
        const auto start = std::chrono::steady_clock::now();
        const auto response = warm_client.transact(warm_request);
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
        if (!response.complete) {
          wellformed = false;
          break;
        }
        std::int64_t retry_after = 0;
        if (!rn::is_overloaded_response(response, &retry_after)) {
          break;  // the flood drained mid-flight and this answer was
                  // served, not shed; stop measuring
        }
        wellformed = wellformed && retry_after >= 1;
        total_ms += ms;
        result.shed_latency_ms_max = std::max(result.shed_latency_ms_max, ms);
        ++result.shed_samples;
      }
      if (result.shed_samples > 0) {
        result.shed_latency_ms_mean =
            total_ms / static_cast<double>(result.shed_samples);
      }
      result.shed_answers_wellformed = wellformed && result.shed_samples > 0;
      for (int i = 0; i < 3; ++i) {  // drain the flood before phase 3
        (void)flood.read_response();
      }
      result.sheds_recorded = server->overload_stats().shed_overload;
    }

    {  // warm throughput under a continuous heavy stream
      std::atomic<bool> stop{false};
      std::thread heavy_thread([&] {
        try {
          rn::Client loader;
          loader.connect("127.0.0.1", server->port());
          loader.set_receive_timeout(30000);
          int salt = 3;
          while (!stop.load(std::memory_order_relaxed)) {
            // A shed here (warm item momentarily queued) just means this
            // round produced no load; keep streaming.
            (void)loader.transact(heavy(1000 + salt++));
          }
        } catch (const std::exception& error) {
          std::fprintf(stderr, "bench_micro: overload loader died: %s\n",
                       error.what());
        }
      });
      bool identical = true;
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < kWarmRequests; ++i) {
        auto response = warm_client.transact(warm_request);
        // The loader's next heavy sits queued for a few µs between its
        // admission and a worker picking it up; a warm arrival inside
        // that window is shed under the tight budget. Retry inline (the
        // window clears as soon as the heavy dispatches): this phase
        // measures served-warm throughput — the shed path has its own.
        int shed_retries = 0;
        while (response.complete && rn::is_overloaded_response(response) &&
               ++shed_retries <= 1000) {
          response = warm_client.transact(warm_request);
        }
        identical =
            identical && response.complete && response.lines == warm_lines;
      }
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      stop.store(true, std::memory_order_relaxed);
      heavy_thread.join();
      if (seconds > 0.0) {
        result.warm_loaded_requests_per_sec =
            static_cast<double>(kWarmRequests) / seconds;
      }
      result.warm_loaded_identical = identical;
    }
    warm_client.close();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_micro: overload bench failed: %s\n",
                 error.what());
    result.shed_answers_wellformed = false;
    result.warm_loaded_identical = false;
  }
  if (server != nullptr) {
    server->stop();
  }
  if (serving.joinable()) {
    serving.join();
  }
  return result;
}

// -------------------------------------------------------------- simulate --

/// Monte Carlo serving: one fixed-seed "mode": "simulate" request (hera x
/// 4096 nodes x all 6 families x 2 Weibull shapes x 2 faulty-ops factors,
/// CI-bounded at 5%) answered through the full JsonlSession pipeline at
/// pool sizes 1, 2 and 8. The determinism contract says the response
/// stream is byte-identical at ANY pool size — parallelism lives inside a
/// cell's campaign, never across the emission order — so the gate diffs
/// the emitted lines across the three pools; throughput is the
/// SimService's runs/sec counter at the largest pool. A warm replay of
/// the same request must hit the sim cache tier and serve a table
/// bit-identical to a cold recompute.
struct SimBenchResult {
  std::size_t cells = 0;
  std::uint64_t runs = 0;
  double runs_per_sec = 0.0;
  bool pool_identical = false;
  bool replay_identical = false;
};

SimBenchResult run_sim_bench() {
  namespace rv = resilience::service;
  SimBenchResult result;

  const std::string request_line =
      R"({"id": "sim-bench", "platforms": ["hera"], "node_counts": [4096],)"
      R"( "mode": "simulate", "sim": {"seed": 42, "target_ci": 0.05,)"
      R"( "max_runs": 256, "weibull_shape": [1.0, 0.7],)"
      R"( "faulty_ops": [1.0, 0.0]}})";

  const std::size_t pool_sizes[] = {1, 2, 8};
  std::vector<std::string> streams;
  for (const std::size_t threads : pool_sizes) {
    ru::ThreadPool pool(threads);
    rv::ServiceOptions options;
    options.sweep.pool = &pool;
    rv::SweepService service(options);
    std::string lines;
    rv::JsonlSession session(service, [&](std::string&& line, bool) {
      lines += line;
      lines += '\n';
    });
    session.handle_line(request_line);
    streams.push_back(std::move(lines));

    if (threads == pool_sizes[std::size(pool_sizes) - 1]) {
      result.runs = service.sim().runs_executed();
      result.runs_per_sec = service.sim().runs_per_second();

      // Warm replay vs a genuinely cold recompute, bit for bit.
      const rv::ScenarioRequest request =
          rv::ScenarioRequest::parse(request_line);
      const rv::SimSubmitResult warm = service.sim().submit(request);
      rv::SweepService cold_service(options);
      const rv::SimSubmitResult cold = cold_service.sim().submit(request);
      result.cells = warm.table->cell_count();
      result.replay_identical =
          warm.cache_hit && !cold.cache_hit &&
          rv::sim_tables_bit_identical(*warm.table, *cold.table);
    }
  }
  result.pool_identical = streams.size() == std::size(pool_sizes) &&
                          streams[0] == streams[1] && streams[1] == streams[2];
  if (!result.pool_identical) {
    for (std::size_t i = 1; i < streams.size(); ++i) {
      if (streams[i] != streams[0]) {
        std::fprintf(stderr,
                     "bench_micro: simulate stream at pool %zu differs from "
                     "pool %zu\n",
                     pool_sizes[i], pool_sizes[0]);
      }
    }
  }
  return result;
}

int run_json_mode(std::uint64_t patterns, const std::string& out_path) {
  std::vector<FamilyResult> families;
  for (const auto kind : rc::all_pattern_kinds()) {
    families.push_back(measure_family(kind, patterns));
    const auto& f = families.back();
    std::printf("%-6s fast %12.0f pat/s   reference %12.0f pat/s   speedup %5.2fx\n",
                f.name.c_str(), f.fast_patterns_per_sec,
                f.reference_patterns_per_sec, f.speedup());
  }

  // Geomean over families with a valid measurement; a zero speedup means a
  // family could not be timed (clock too coarse), which must fail loudly
  // rather than silently zeroing the perf-trajectory record.
  double log_speedup_sum = 0.0;
  std::size_t measured = 0;
  for (const auto& f : families) {
    if (f.speedup() > 0.0) {
      log_speedup_sum += std::log(f.speedup());
      ++measured;
    } else {
      std::fprintf(stderr, "bench_micro: family %s produced no valid timing\n",
                   f.name.c_str());
    }
  }
  if (measured == 0) {
    std::fprintf(stderr, "bench_micro: no family produced a valid timing\n");
    return 1;
  }
  const double geomean_speedup =
      std::exp(log_speedup_sum / static_cast<double>(measured));
  // A partial family set would make cross-PR geomeans incomparable; still
  // write the JSON for inspection, but fail the run.
  const bool all_measured = measured == families.size();

  const SweepBenchResult sweep = run_sweep_bench();
  std::printf(
      "sweep  runner %10.0f scen/s   reference %10.0f scen/s   speedup %5.2fx"
      "   optima %s\n",
      sweep.runner_scenarios_per_sec, sweep.reference_scenarios_per_sec,
      sweep.speedup(), sweep.optima_match() ? "match" : "DIVERGE");

  const ServiceBenchResult service = run_service_bench();
  std::printf(
      "service cold %9.0f scen/s   warm-cache %12.0f scen/s   speedup "
      "%7.0fx   hit %s\n",
      service.cold_scenarios_per_sec, service.warm_scenarios_per_sec,
      service.warm_speedup(),
      service.hit_bit_identical ? "bit-identical" : "DIVERGES");

  const ReuseBenchResult reuse = run_reuse_bench();
  std::printf(
      "reuse  cold %10.0f scen/s   seeded %12.0f scen/s   speedup %5.2fx"
      "   lattice cells %llu vs %llu (%.2fx)   cells %s   persistence %s\n",
      reuse.cold_scenarios_per_sec, reuse.reuse_scenarios_per_sec,
      reuse.speedup(),
      static_cast<unsigned long long>(reuse.cold_lattice_cells),
      static_cast<unsigned long long>(reuse.seeded_lattice_cells),
      reuse.lattice_ratio(), reuse.bit_identical ? "bit-identical" : "DIVERGE",
      reuse.persistence_reload_bit_identical ? "bit-identical" : "BROKEN");

  const NetBenchResult net = run_net_bench();
  if (net.transport_supported) {
    std::printf(
        "net    serial %8.0f req/s   pipelined %11.0f req/s   speedup %5.2fx"
        "   responses %s\n",
        net.serial_requests_per_sec, net.pipelined_requests_per_sec,
        net.pipelining_speedup(),
        net.responses_identical ? "byte-identical" : "DIVERGE");
    std::printf(
        "net    deadline %.0f ms, %zu-cell chain -> error in %.0f ms (%s)   "
        "post-timeout %8.0f req/s (%s, %s)\n",
        static_cast<double>(net.deadline_ms), net.deadline_cells,
        net.deadline_elapsed_ms,
        net.deadline_within_bound() ? "in bound" : "OUT OF BOUND",
        net.post_timeout_requests_per_sec,
        net.post_timeout_identical ? "byte-identical" : "DIVERGE",
        net.post_timeout_quiescent ? "no compute behind"
                                   : "COMPUTE KEPT RUNNING");
  } else {
    std::printf("net    skipped (transport requires Linux epoll)\n");
  }

  const FleetBenchResult fleet = run_fleet_bench();
  if (fleet.transport_supported) {
    std::printf(
        "fleet  1/2/3 shards %7.0f /%7.0f /%7.0f req/s   merge %s\n",
        fleet.one_shard_requests_per_sec, fleet.two_shard_requests_per_sec,
        fleet.three_shard_requests_per_sec,
        fleet.merged_identical ? "byte-identical" : "DIVERGE");
    std::printf(
        "fleet  kill recovery %6.0f ms   failovers %llu   post-kill %s\n",
        fleet.kill_recovery_ms,
        static_cast<unsigned long long>(fleet.failovers),
        fleet.post_kill_identical ? "byte-identical" : "DIVERGE");
  } else {
    std::printf("fleet  skipped (transport requires Linux epoll)\n");
  }

  const OverloadBenchResult overload = run_overload_bench();
  if (overload.transport_supported) {
    std::printf(
        "overload shed %6.2f ms mean (max %6.2f, %zu samples, %s)   "
        "warm under load %8.0f req/s (%.2fx of %8.0f, %s)\n",
        overload.shed_latency_ms_mean, overload.shed_latency_ms_max,
        overload.shed_samples,
        overload.shed_answers_wellformed ? "well-formed" : "MALFORMED",
        overload.warm_loaded_requests_per_sec, overload.loaded_ratio(),
        overload.warm_unloaded_requests_per_sec,
        overload.warm_loaded_identical ? "byte-identical" : "DIVERGE");
  } else {
    std::printf("overload skipped (transport requires Linux epoll)\n");
  }

  const SimBenchResult sim = run_sim_bench();
  std::printf(
      "sim    %zu cells, %llu runs at %10.0f runs/s   pools 1/2/8 %s   "
      "replay %s\n",
      sim.cells, static_cast<unsigned long long>(sim.runs), sim.runs_per_sec,
      sim.pool_identical ? "byte-identical" : "DIVERGE",
      sim.replay_identical ? "bit-identical" : "DIVERGES");

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_micro: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"bench_micro\",\n"
      << "  \"seed\": " << kJsonSeed << ",\n"
      << "  \"patterns\": " << patterns << ",\n"
      << "  \"geomean_speedup\": " << geomean_speedup << ",\n"
      << "  \"sweep\": {\n"
      << "    \"grid\": \"4 platforms x {256,1024,4096,16384} nodes x 6 "
         "families\",\n"
      << "    \"cells\": " << sweep.cells << ",\n"
      << "    \"runner_scenarios_per_sec\": " << sweep.runner_scenarios_per_sec
      << ",\n"
      << "    \"reference_scenarios_per_sec\": "
      << sweep.reference_scenarios_per_sec << ",\n"
      << "    \"speedup\": " << sweep.speedup() << ",\n"
      << "    \"optima_match\": " << (sweep.optima_match() ? "true" : "false")
      << ",\n"
      << "    \"max_overhead_gap\": " << sweep.max_overhead_gap << "\n"
      << "  },\n"
      << "  \"service\": {\n"
      << "    \"grid\": \"96-cell catalog (4 platforms x "
         "{256,1024,4096,16384} nodes x 6 families)\",\n"
      << "    \"cells\": " << service.cells << ",\n"
      << "    \"warm_batches\": " << service.warm_batches << ",\n"
      << "    \"cold_scenarios_per_sec\": " << service.cold_scenarios_per_sec
      << ",\n"
      << "    \"warm_scenarios_per_sec\": " << service.warm_scenarios_per_sec
      << ",\n"
      << "    \"warm_speedup\": " << service.warm_speedup() << ",\n"
      << "    \"hit_bit_identical\": "
      << (service.hit_bit_identical ? "true" : "false") << "\n"
      << "  },\n"
      << "  \"reuse\": {\n"
      << "    \"grid\": \"96-cell catalog extended by one node count "
         "(+20480)\",\n"
      << "    \"base_cells\": " << reuse.base_cells << ",\n"
      << "    \"extended_cells\": " << reuse.extended_cells << ",\n"
      << "    \"cold_scenarios_per_sec\": " << reuse.cold_scenarios_per_sec
      << ",\n"
      << "    \"reuse_scenarios_per_sec\": " << reuse.reuse_scenarios_per_sec
      << ",\n"
      << "    \"speedup\": " << reuse.speedup() << ",\n"
      << "    \"cold_lattice_cells\": " << reuse.cold_lattice_cells << ",\n"
      << "    \"seeded_lattice_cells\": " << reuse.seeded_lattice_cells
      << ",\n"
      << "    \"lattice_ratio\": " << reuse.lattice_ratio() << ",\n"
      << "    \"seeded\": " << (reuse.seeded ? "true" : "false") << ",\n"
      << "    \"bit_identical\": " << (reuse.bit_identical ? "true" : "false")
      << ",\n"
      << "    \"persistence_reload_bit_identical\": "
      << (reuse.persistence_reload_bit_identical ? "true" : "false") << "\n"
      << "  },\n"
      << "  \"net\": {\n"
      << "    \"workload\": \"warm single-cell request over loopback TCP, "
         "serial vs pipelined\",\n"
      << "    \"transport_supported\": "
      << (net.transport_supported ? "true" : "false") << ",\n"
      << "    \"requests\": " << net.requests << ",\n"
      << "    \"serial_requests_per_sec\": " << net.serial_requests_per_sec
      << ",\n"
      << "    \"pipelined_requests_per_sec\": "
      << net.pipelined_requests_per_sec << ",\n"
      << "    \"pipelining_speedup\": " << net.pipelining_speedup() << ",\n"
      << "    \"responses_identical\": "
      << (net.responses_identical ? "true" : "false") << ",\n"
      << "    \"deadline_ms\": " << net.deadline_ms << ",\n"
      << "    \"deadline_cells\": " << net.deadline_cells << ",\n"
      << "    \"deadline_elapsed_ms\": " << net.deadline_elapsed_ms << ",\n"
      << "    \"deadline_within_bound\": "
      << (net.deadline_within_bound() ? "true" : "false") << ",\n"
      << "    \"post_timeout_requests_per_sec\": "
      << net.post_timeout_requests_per_sec << ",\n"
      << "    \"post_timeout_identical\": "
      << (net.post_timeout_identical ? "true" : "false") << ",\n"
      << "    \"post_timeout_quiescent\": "
      << (net.post_timeout_quiescent ? "true" : "false") << "\n"
      << "  },\n"
      << "  \"fleet\": {\n"
      << "    \"workload\": \"6 distinct multi-chain grids merged by "
         "sweep_router over in-process NetServer shards\",\n"
      << "    \"transport_supported\": "
      << (fleet.transport_supported ? "true" : "false") << ",\n"
      << "    \"requests_per_pass\": " << fleet.requests << ",\n"
      << "    \"one_shard_requests_per_sec\": "
      << fleet.one_shard_requests_per_sec << ",\n"
      << "    \"two_shard_requests_per_sec\": "
      << fleet.two_shard_requests_per_sec << ",\n"
      << "    \"three_shard_requests_per_sec\": "
      << fleet.three_shard_requests_per_sec << ",\n"
      << "    \"merged_identical\": "
      << (fleet.merged_identical ? "true" : "false") << ",\n"
      << "    \"kill_recovery_ms\": " << fleet.kill_recovery_ms << ",\n"
      << "    \"failovers\": " << fleet.failovers << ",\n"
      << "    \"post_kill_identical\": "
      << (fleet.post_kill_identical ? "true" : "false") << "\n"
      << "  },\n"
      << "  \"overload\": {\n"
      << "    \"workload\": \"warm single-cell traffic vs heavy cold grids "
         "on a 2-worker daemon with a 16-unit admission budget\",\n"
      << "    \"transport_supported\": "
      << (overload.transport_supported ? "true" : "false") << ",\n"
      << "    \"shed_samples\": " << overload.shed_samples << ",\n"
      << "    \"shed_latency_ms_mean\": " << overload.shed_latency_ms_mean
      << ",\n"
      << "    \"shed_latency_ms_max\": " << overload.shed_latency_ms_max
      << ",\n"
      << "    \"shed_answers_wellformed\": "
      << (overload.shed_answers_wellformed ? "true" : "false") << ",\n"
      << "    \"sheds_recorded\": " << overload.sheds_recorded << ",\n"
      << "    \"warm_unloaded_requests_per_sec\": "
      << overload.warm_unloaded_requests_per_sec << ",\n"
      << "    \"warm_loaded_requests_per_sec\": "
      << overload.warm_loaded_requests_per_sec << ",\n"
      << "    \"warm_loaded_ratio\": " << overload.loaded_ratio() << ",\n"
      << "    \"warm_loaded_identical\": "
      << (overload.warm_loaded_identical ? "true" : "false") << "\n"
      << "  },\n"
      << "  \"simulate\": {\n"
      << "    \"workload\": \"hera x 4096 nodes x 6 families x 2 Weibull "
         "shapes x 2 faulty-ops factors, target_ci 0.05, max_runs 256, "
         "pools 1/2/8\",\n"
      << "    \"cells\": " << sim.cells << ",\n"
      << "    \"runs\": " << sim.runs << ",\n"
      << "    \"runs_per_sec\": " << sim.runs_per_sec << ",\n"
      << "    \"pool_identical\": "
      << (sim.pool_identical ? "true" : "false") << ",\n"
      << "    \"replay_identical\": "
      << (sim.replay_identical ? "true" : "false") << "\n"
      << "  },\n"
      << "  \"families\": [\n";
  for (std::size_t i = 0; i < families.size(); ++i) {
    const auto& f = families[i];
    out << "    {\"pattern\": \"" << f.name << "\", "
        << "\"fast_patterns_per_sec\": " << f.fast_patterns_per_sec << ", "
        << "\"reference_patterns_per_sec\": " << f.reference_patterns_per_sec
        << ", "
        << "\"speedup\": " << f.speedup() << ", "
        << "\"fast_overhead\": " << f.fast_overhead << ", "
        << "\"reference_overhead\": " << f.reference_overhead << "}"
        << (i + 1 < families.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf(
      "geomean speedup %.2fx, sweep speedup %.2fx, warm-cache %.0fx, "
      "reuse %.2fx fewer lattice cells -> %s\n",
      geomean_speedup, sweep.speedup(), service.warm_speedup(),
      reuse.lattice_ratio(), out_path.c_str());
  if (!all_measured) {
    std::fprintf(stderr,
                 "bench_micro: only %zu/%zu families timed; geomean not "
                 "comparable across runs\n",
                 measured, families.size());
    return 1;
  }
  if (!sweep.optima_match()) {
    std::fprintf(stderr,
                 "bench_micro: %zu/%zu sweep cells diverge from the reference "
                 "optimizer; the sweep throughput is not trustworthy\n",
                 sweep.mismatched_cells, sweep.cells);
    return 1;
  }
  if (!service.hit_bit_identical) {
    std::fprintf(stderr,
                 "bench_micro: a warm cache hit is not bit-identical to a "
                 "fresh recompute; the service throughput is not trustworthy\n");
    return 1;
  }
  if (service.warm_speedup() < 20.0) {
    std::fprintf(stderr,
                 "bench_micro: warm-cache throughput is only %.1fx the cold "
                 "sweep path (acceptance bar: 20x)\n",
                 service.warm_speedup());
    return 1;
  }
  if (!reuse.seeded || !reuse.bit_identical) {
    std::fprintf(stderr,
                 "bench_micro: the seeded reuse sweep %s; its throughput is "
                 "not trustworthy\n",
                 !reuse.seeded ? "consumed no cross-grid seeds"
                               : "is not bit-identical to the cold sweep");
    return 1;
  }
  if (!reuse.work_within_bound()) {
    std::fprintf(stderr,
                 "bench_micro: seeded reuse of the one-axis-extended catalog "
                 "grid searched %llu lattice cells against the cold sweep's "
                 "%llu (acceptance bar: at most 1/5)\n",
                 static_cast<unsigned long long>(reuse.seeded_lattice_cells),
                 static_cast<unsigned long long>(reuse.cold_lattice_cells));
    return 1;
  }
  if (!reuse.persistence_reload_bit_identical) {
    std::fprintf(stderr,
                 "bench_micro: a persisted cache entry did not reload "
                 "bit-identically after a service restart\n");
    return 1;
  }
  if (net.transport_supported) {
    if (!net.responses_identical) {
      std::fprintf(stderr,
                   "bench_micro: transported responses are not byte-identical "
                   "to the stdin path; the net throughput is not trustworthy\n");
      return 1;
    }
    if (net.serial_requests_per_sec <= 0.0 ||
        net.pipelined_requests_per_sec <= 0.0) {
      std::fprintf(stderr, "bench_micro: net section produced no timing\n");
      return 1;
    }
    if (!net.deadline_within_bound()) {
      std::fprintf(stderr,
                   "bench_micro: deadline-exceeded request answered in "
                   "%.0f ms (bound: 2 x %d ms deadline)%s\n",
                   net.deadline_elapsed_ms, net.deadline_ms,
                   net.deadline_error_line ? ""
                                           : "; no timeout error line at all");
      return 1;
    }
    if (!net.post_timeout_identical || !net.post_timeout_quiescent) {
      std::fprintf(stderr,
                   "bench_micro: after the deadline error line %s\n",
                   net.post_timeout_quiescent
                       ? "the warm responses DIVERGE"
                       : "the engine kept computing (lattice_cells, w_probes "
                         "or tables_computed moved); the timed-out sweep was "
                         "left running");
      return 1;
    }
  }
  if (fleet.transport_supported) {
    if (!fleet.merged_identical) {
      std::fprintf(stderr,
                   "bench_micro: fleet-merged responses are not "
                   "byte-identical to the single-process path; the fleet "
                   "throughput is not trustworthy\n");
      return 1;
    }
    if (fleet.one_shard_requests_per_sec <= 0.0 ||
        fleet.two_shard_requests_per_sec <= 0.0 ||
        fleet.three_shard_requests_per_sec <= 0.0) {
      std::fprintf(stderr, "bench_micro: fleet section produced no timing\n");
      return 1;
    }
    if (!fleet.post_kill_identical || fleet.failovers == 0) {
      std::fprintf(stderr,
                   "bench_micro: the kill-recovery pass %s (failovers: "
                   "%llu)\n",
                   fleet.post_kill_identical
                       ? "recorded no failover despite the shard kill"
                       : "dropped, duplicated or rewrote a response line",
                   static_cast<unsigned long long>(fleet.failovers));
      return 1;
    }
  }
  if (overload.transport_supported) {
    if (overload.shed_samples < 20 || !overload.shed_answers_wellformed) {
      std::fprintf(stderr,
                   "bench_micro: the shed path measured %zu samples (need "
                   ">= 20)%s; admission control was not exercised\n",
                   overload.shed_samples,
                   overload.shed_answers_wellformed
                       ? ""
                       : ", with malformed overloaded answers");
      return 1;
    }
    if (overload.shed_latency_ms_mean >= 10.0) {
      std::fprintf(stderr,
                   "bench_micro: shedding a request at a full queue costs "
                   "%.2f ms mean (acceptance bar: < 10 ms) — saying no must "
                   "never cost a worker\n",
                   overload.shed_latency_ms_mean);
      return 1;
    }
    if (!overload.warm_loaded_identical) {
      std::fprintf(stderr,
                   "bench_micro: warm responses under heavy load are not "
                   "byte-identical to the unloaded answers\n");
      return 1;
    }
    // warm_loaded_ratio stays in the JSON but out of the exit code: a
    // wall-clock ratio between two phases has no 2x margin on every core
    // count (0.32x has been seen against a 0.5x bar).
  }
  if (!sim.pool_identical) {
    std::fprintf(stderr,
                 "bench_micro: simulate responses are not byte-identical "
                 "across pool sizes 1/2/8; the determinism contract is "
                 "broken\n");
    return 1;
  }
  if (!sim.replay_identical) {
    std::fprintf(stderr,
                 "bench_micro: a warm simulate replay is not bit-identical "
                 "to a cold recompute; the sim cache tier is not "
                 "trustworthy\n");
    return 1;
  }
  if (sim.runs_per_sec <= 0.0 || sim.runs == 0) {
    std::fprintf(stderr, "bench_micro: simulate section produced no timing\n");
    return 1;
  }
  return 0;
}

}  // namespace

// ------------------------------------------------- Google Benchmark mode --

#if RESILIENCE_HAVE_GBENCH

namespace {

namespace ra = resilience::app;

void BM_SolveFirstOrder(benchmark::State& state) {
  const auto kind = rc::all_pattern_kinds()[static_cast<std::size_t>(state.range(0))];
  for (auto _ : state) {
    benchmark::DoNotOptimize(rc::solve_first_order(kind, hera_params()));
  }
}
BENCHMARK(BM_SolveFirstOrder)->DenseRange(0, 5);

void BM_EvaluatePatternExact(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const auto pattern = rc::make_pattern(rc::PatternKind::kDMV, 30000.0, n, m, 0.8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rc::evaluate_pattern(pattern, hera_params()));
  }
}
BENCHMARK(BM_EvaluatePatternExact)->Args({1, 1})->Args({4, 4})->Args({16, 16});

void BM_OptimizeWorkLength(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rc::optimize_work_length(rc::PatternKind::kDMV, 3, 3, hera_params()));
  }
}
BENCHMARK(BM_OptimizeWorkLength);

void BM_OptimizePatternFull(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rc::optimize_pattern(rc::PatternKind::kDMV, hera_params()));
  }
}
BENCHMARK(BM_OptimizePatternFull)->Unit(benchmark::kMillisecond);

/// Arrival-driven fast path: PoissonArrivalModel + NullObserver, statically
/// bound end to end.
void BM_SimulatePatternsArrival(benchmark::State& state) {
  const auto solution = rc::solve_first_order(rc::PatternKind::kDMV, hera_params());
  const auto pattern = solution.to_pattern(hera_params().costs.recall);
  const auto patterns = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    rs::PoissonArrivalModel errors(hera_params().rates, ru::Xoshiro256(++seed));
    benchmark::DoNotOptimize(
        rs::simulate_patterns(pattern, hera_params(), errors, patterns));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(patterns));
}
BENCHMARK(BM_SimulatePatternsArrival)->Arg(100)->Arg(1000);

/// Per-operation reference sampler — the baseline the arrival-driven
/// kernel is measured against.
void BM_SimulatePatternsReference(benchmark::State& state) {
  const auto solution = rc::solve_first_order(rc::PatternKind::kDMV, hera_params());
  const auto pattern = solution.to_pattern(hera_params().costs.recall);
  const auto patterns = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    rs::ErrorModel errors(hera_params().rates, ru::Xoshiro256(++seed));
    benchmark::DoNotOptimize(
        rs::simulate_patterns(pattern, hera_params(), errors, patterns));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(patterns));
}
BENCHMARK(BM_SimulatePatternsReference)->Arg(100)->Arg(1000);

void BM_SimulateHighErrorRegimeArrival(benchmark::State& state) {
  const auto params = rc::hera().scaled_to(1u << 17).model_params();
  const auto solution = rc::solve_first_order(rc::PatternKind::kDMV, params);
  const auto pattern = solution.to_pattern(params.costs.recall);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    rs::PoissonArrivalModel errors(params.rates, ru::Xoshiro256(++seed));
    benchmark::DoNotOptimize(rs::simulate_patterns(pattern, params, errors, 100));
  }
}
BENCHMARK(BM_SimulateHighErrorRegimeArrival)->Unit(benchmark::kMillisecond);

void BM_SimulateHighErrorRegimeReference(benchmark::State& state) {
  const auto params = rc::hera().scaled_to(1u << 17).model_params();
  const auto solution = rc::solve_first_order(rc::PatternKind::kDMV, params);
  const auto pattern = solution.to_pattern(params.costs.recall);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    rs::ErrorModel errors(params.rates, ru::Xoshiro256(++seed));
    benchmark::DoNotOptimize(rs::simulate_patterns(pattern, params, errors, 100));
  }
}
BENCHMARK(BM_SimulateHighErrorRegimeReference)->Unit(benchmark::kMillisecond);

void BM_MonteCarloFanout(benchmark::State& state) {
  const auto solution = rc::solve_first_order(rc::PatternKind::kDMV, hera_params());
  const auto pattern = solution.to_pattern(hera_params().costs.recall);
  rs::MonteCarloConfig config;
  config.runs = static_cast<std::uint64_t>(state.range(0));
  config.patterns_per_run = 50;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rs::run_monte_carlo(pattern, hera_params(), config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(config.runs * 50));
}
BENCHMARK(BM_MonteCarloFanout)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_StencilStep(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  ra::StencilConfig config;
  config.nx = side;
  config.ny = side;
  ra::HeatField field(config);
  for (auto _ : state) {
    field.advance(1);
    benchmark::DoNotOptimize(field.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(side * side));
}
BENCHMARK(BM_StencilStep)->Arg(64)->Arg(256);

void BM_QuadraticForm(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto beta = rc::optimal_chunk_fractions(m, 0.8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rc::segment_quadratic_form(beta, 0.8));
  }
}
BENCHMARK(BM_QuadraticForm)->Arg(4)->Arg(32);

}  // namespace

#endif  // RESILIENCE_HAVE_GBENCH

int main(int argc, char** argv) {
  bool json = false;
  std::uint64_t patterns = 20000;
  std::string out_path = "BENCH_micro.json";
  std::vector<std::string> unrecognized;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--patterns=", 0) == 0) {
      char* end = nullptr;
      patterns = std::strtoull(arg.c_str() + 11, &end, 10);
      if (end == arg.c_str() + 11 || *end != '\0' || patterns == 0) {
        std::fprintf(stderr, "bench_micro: invalid pattern count in '%s'\n",
                     arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      unrecognized.push_back(arg);  // Google Benchmark flags in default mode
    }
  }
  if (json) {
    // A typo'd flag silently measuring the default workload would corrupt
    // the cross-PR perf record; in JSON mode every flag must be understood.
    if (!unrecognized.empty()) {
      std::fprintf(stderr, "bench_micro: unknown flag '%s' in --json mode\n",
                   unrecognized.front().c_str());
      return 2;
    }
    return run_json_mode(patterns, out_path);
  }
#if RESILIENCE_HAVE_GBENCH
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
#else
  std::fprintf(stderr,
               "bench_micro: built without Google Benchmark; only --json mode "
               "is available\n");
  return 1;
#endif
}
