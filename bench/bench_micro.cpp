// Microbenchmarks for the hot paths: the analytical evaluator, the
// optimizers and the simulation engine (arrival-driven fast path vs. the
// per-operation reference sampler).
//
// Two modes:
//   * default: Google Benchmark suite (when the library is available),
//     gating performance regressions interactively;
//   * --json [--patterns=N] [--out=FILE]: fixed-seed harness writing
//     BENCH_micro.json, the dump of one util::JsonValue document. Each
//     section (the simulator families, sweep, service, reuse, net, fleet,
//     overload, simulate) measures, builds its own block and checks its
//     own gates; the gates check structure (identity, counts), and the
//     timings are recorded for the perf trajectory. Exit code 0 when every
//     gate holds, 1 when any fails (the document is still written), 2 on
//     a usage error. See bench/README.md for the methodology.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <stop_token>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

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
#include "resilience/service/sweep_service.hpp"
#include "resilience/sim/engine.hpp"
#include "resilience/sim/runner.hpp"

#if RESILIENCE_HAVE_GBENCH
#include <benchmark/benchmark.h>
#endif

namespace rc = resilience::core;
namespace rn = resilience::net;
namespace rs = resilience::sim;
namespace ru = resilience::util;
namespace rv = resilience::service;

namespace {

const rc::ModelParams& hera_params() {
  static const rc::ModelParams params = rc::hera().model_params();
  return params;
}

// ------------------------------------------------------------ JSON mode --

using ru::JsonValue;

constexpr std::uint64_t kJsonSeed = 42;  // fixed: throughput must be replayable

/// Wall-clock time since construction.
class Stopwatch {
 public:
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  [[nodiscard]] double milliseconds() const { return 1e3 * seconds(); }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

/// Shortest wall-clock time of `reps` calls of `run`.
template <typename Run>
double best_seconds(int reps, Run&& run) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    const Stopwatch watch;
    run();
    best = std::min(best, watch.seconds());
  }
  return best;
}

/// `numerator / denominator`, or 0 when the denominator is not positive:
/// a rate over no measurable time, or a ratio against nothing.
double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// The run's gates. A failed gate prints its message and fails the run,
/// but the sections go on, so the document is still written in full.
class Gates {
 public:
  [[gnu::format(printf, 3, 4)]] void check(bool holds, const char* format,
                                           ...) {
    if (holds) {
      return;
    }
    ++failed_;
    std::fputs("bench_micro: ", stderr);
    va_list args;
    va_start(args, format);
    std::vfprintf(stderr, format, args);
    va_end(args);
    std::fputc('\n', stderr);
  }
  [[nodiscard]] bool failed() const { return failed_ > 0; }

 private:
  int failed_ = 0;
};

/// A NetServer serving on its own thread for as long as this object
/// lives; stops and joins on scope exit. Construction binds a port, which
/// can throw in a sandbox without loopback, so sections construct it
/// inside their try block and fail their gates instead of terminating. A
/// loop thread that dies is logged, not fatal: the section's clients see
/// the dead server and fail its gates.
class ServerThread {
 public:
  explicit ServerThread(rn::NetServerOptions options = {})
      : server_(std::move(options)), thread_([this] {
          try {
            server_.run();
          } catch (const std::exception& error) {
            std::fprintf(stderr, "bench_micro: server on port %u died: %s\n",
                         static_cast<unsigned>(port()), error.what());
          }
        }) {}
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;
  ~ServerThread() { stop(); }

  /// Begins the drain and joins the serving thread (idempotent).
  void stop() {
    server_.stop();
    if (thread_.joinable()) {
      thread_.join();
    }
  }
  [[nodiscard]] rn::NetServer& server() { return server_; }
  [[nodiscard]] std::uint16_t port() const { return server_.port(); }

 private:
  rn::NetServer server_;
  std::thread thread_;
};

/// Sweeps `grid` cold: no cache, no seeds. `lattice_cells` receives the
/// (n, m) lattice cells it searched, a pure function of the grid.
rc::SweepTable cold_sweep(const rc::ScenarioGrid& grid,
                          std::uint64_t& lattice_cells) {
  rc::EngineCounters counters;
  rc::SweepOptions options;
  options.optimizer.counters = &counters;
  rc::SweepTable table = rc::SweepRunner(options).run(grid);
  lattice_cells = counters.lattice_cells.load();
  return table;
}

// ------------------------------------------------------------ simulator --

/// Best-of-3 patterns/sec of `patterns` consecutive Hera patterns through
/// one error model seeded with kJsonSeed; `overhead` receives the
/// simulated mean overhead.
template <typename Model>
double patterns_per_sec(const rc::PatternSpec& pattern, std::uint64_t patterns,
                        double& overhead) {
  const auto& params = hera_params();
  return ratio(static_cast<double>(patterns), best_seconds(3, [&] {
                 Model errors(params.rates, ru::Xoshiro256(kJsonSeed));
                 overhead =
                     rs::simulate_patterns(pattern, params, errors, patterns)
                         .overhead();
               }));
}

/// The paper's Section 6 simulator, per family: the first-order pattern
/// on Hera through the arrival-driven fast path (PoissonArrivalModel) and
/// through the per-operation reference sampler (ErrorModel), both bound
/// statically and run from the same seed, plus the geometric-mean
/// speedup. A zero speedup means a family could not be timed (clock too
/// coarse); a partial family set would make cross-PR geomeans
/// incomparable, so it fails the run.
JsonValue families_section(std::uint64_t patterns, Gates& gates) {
  const auto& params = hera_params();
  JsonValue families = JsonValue::array();
  double log_speedup_sum = 0.0;
  std::size_t measured = 0;
  for (const auto kind : rc::all_pattern_kinds()) {
    const auto pattern =
        rc::solve_first_order(kind, params).to_pattern(params.costs.recall);
    double fast_overhead = 0.0;
    double reference_overhead = 0.0;
    const double fast = patterns_per_sec<rs::PoissonArrivalModel>(
        pattern, patterns, fast_overhead);
    const double reference =
        patterns_per_sec<rs::ErrorModel>(pattern, patterns, reference_overhead);
    const double speedup = ratio(fast, reference);
    if (speedup > 0.0) {
      log_speedup_sum += std::log(speedup);
      ++measured;
    } else {
      std::fprintf(stderr, "bench_micro: family %s produced no valid timing\n",
                   rc::pattern_name(kind).c_str());
    }
    families.push_back(JsonValue::Object{
        {"pattern", rc::pattern_name(kind)},
        {"fast_patterns_per_sec", fast},
        {"reference_patterns_per_sec", reference},
        {"speedup", speedup},
        {"fast_overhead", fast_overhead},
        {"reference_overhead", reference_overhead}});
  }
  const std::size_t kinds = rc::all_pattern_kinds().size();
  gates.check(measured == kinds,
              "only %zu/%zu families timed; geomean not comparable across "
              "runs",
              measured, kinds);
  return JsonValue::Object{
      {"geomean_speedup",
       measured > 0
           ? std::exp(log_speedup_sum / static_cast<double>(measured))
           : 0.0},
      {"families", std::move(families)}};
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
JsonValue sweep_section(Gates& gates) {
  // One builder for every throughput section (sweep/service/reuse):
  // resilience::bench::catalog_grid, the fig6-style 96-cell catalog.
  const rc::ScenarioGrid grid = resilience::bench::catalog_grid();
  const auto kinds = grid.resolved_kinds();
  const std::size_t cells = grid.cell_count();

  // Warm-started sweep engine (best of 2: the first run also validates).
  rc::SweepTable table;
  const double runner_seconds =
      best_seconds(2, [&] { table = rc::SweepRunner().run(grid); });

  // Pre-sweep baseline: independent cold optimizations, legacy evaluation,
  // best of 2 (same protocol as the runner).
  const auto points = rc::resolve_points(grid);
  std::vector<rc::NumericSolution> reference;  // point-major, like the table
  reference.reserve(cells);
  rc::OptimizerOptions legacy;
  legacy.legacy_cell_evaluation = true;
  const double reference_seconds = best_seconds(2, [&] {
    reference.clear();
    for (const auto& point : points) {
      for (const auto kind : kinds) {
        reference.push_back(rc::optimize_pattern(kind, point.params, legacy));
      }
    }
  });

  // Cell-by-cell agreement.
  std::size_t mismatched = 0;
  double max_overhead_gap = 0.0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const auto& sweep_cell = table.cells[p * kinds.size() + k];
      const auto& ref = reference[p * kinds.size() + k];
      const double gap = std::fabs(sweep_cell.overhead - ref.overhead);
      max_overhead_gap = std::max(max_overhead_gap, gap);
      if (sweep_cell.segments_n != ref.segments_n ||
          sweep_cell.chunks_m != ref.chunks_m ||
          !(gap <= 1e-9 * std::max(1.0, std::fabs(ref.overhead)))) {
        ++mismatched;
        std::fprintf(stderr,
                     "bench_micro: sweep cell %zu/%s diverges from the "
                     "reference: (n=%zu,m=%zu,H=%.12g) vs (n=%zu,m=%zu,H=%.12g)\n",
                     p, rc::pattern_name(kinds[k]).c_str(), sweep_cell.segments_n,
                     sweep_cell.chunks_m, sweep_cell.overhead, ref.segments_n,
                     ref.chunks_m, ref.overhead);
      }
    }
  }
  gates.check(mismatched == 0,
              "%zu/%zu sweep cells diverge from the reference optimizer; the "
              "sweep throughput is not trustworthy",
              mismatched, cells);
  const double runner = ratio(cells, runner_seconds);
  const double legacy_rate = ratio(cells, reference_seconds);
  return JsonValue::Object{
      {"grid", "4 platforms x {256,1024,4096,16384} nodes x 6 families"},
      {"cells", cells},
      {"runner_scenarios_per_sec", runner},
      {"reference_scenarios_per_sec", legacy_rate},
      {"speedup", ratio(runner, legacy_rate)},
      {"optima_match", mismatched == 0},
      {"max_overhead_gap", max_overhead_gap}};
}

// --------------------------------------------------- service throughput --

/// Repeated-batch throughput through the SweepService on the fig6-style
/// 96-cell catalog grid: one cold submit (computes + fills the cache),
/// then repeated submits of the identical batch served from the warm
/// cache. A warm hit must be bit-identical to a fresh recompute — reuse
/// speed without identity is not a result — and the acceptance bar is a
/// >= 20x warm-over-cold scenario throughput.
JsonValue service_section(Gates& gates) {
  const rc::ScenarioGrid grid = resilience::bench::catalog_grid();
  const std::size_t cells = grid.cell_count();
  constexpr std::size_t kWarmBatches = 200;

  rv::SweepService service;
  const Stopwatch cold_watch;
  (void)service.submit(grid);  // a fresh service: always a miss
  const double cold = ratio(cells, cold_watch.seconds());

  // Identity first: a cached hit against a from-scratch recompute.
  const rv::SubmitResult hit = service.submit(grid);
  const bool hit_bit_identical =
      hit.cache_hit &&
      rc::tables_bit_identical(*hit.table, rc::SweepRunner().run(grid));

  // Warm throughput: enough repeats to out-resolve the clock.
  bool all_hit = true;
  const Stopwatch warm_watch;
  for (std::size_t i = 0; i < kWarmBatches && all_hit; ++i) {
    all_hit = service.submit(grid).cache_hit;
  }
  const double per_batch =
      std::max(warm_watch.seconds() / static_cast<double>(kWarmBatches),
               1e-9);  // clock floor: avoid infinite rates on coarse clocks
  if (!all_hit) {
    std::fprintf(stderr, "bench_micro: warm submit missed the cache\n");
  }
  const double warm = all_hit ? ratio(cells, per_batch) : 0.0;
  const double warm_speedup = ratio(warm, cold);
  gates.check(hit_bit_identical,
              "a warm cache hit is not bit-identical to a fresh recompute; "
              "the service throughput is not trustworthy");
  gates.check(warm_speedup >= 20.0,
              "warm-cache throughput is only %.1fx the cold sweep path "
              "(acceptance bar: 20x)",
              warm_speedup);
  return JsonValue::Object{
      {"grid",
       "96-cell catalog (4 platforms x {256,1024,4096,16384} nodes x 6 "
       "families)"},
      {"cells", cells},
      {"warm_batches", kWarmBatches},
      {"cold_scenarios_per_sec", cold},
      {"warm_scenarios_per_sec", warm},
      {"warm_speedup", warm_speedup},
      {"hit_bit_identical", hit_bit_identical}};
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
JsonValue reuse_section(Gates& gates) {
  const rc::ScenarioGrid base = resilience::bench::catalog_grid();
  const rc::ScenarioGrid extended = resilience::bench::catalog_grid({20480});
  const std::size_t extended_cells = extended.cell_count();

  // Cold reference for the extended grid (no cache, no seeds), best of 2.
  rc::SweepTable cold_table;
  std::uint64_t cold_lattice_cells = 0;
  const double cold_seconds = best_seconds(
      2, [&] { cold_table = cold_sweep(extended, cold_lattice_cells); });

  // Seeded submit of the extended grid against a service that has the
  // base grid cached. Fresh service per rep so every rep is a true miss
  // seeded only by the base table (best of 2, same protocol as cold).
  double reuse_seconds = std::numeric_limits<double>::infinity();
  std::uint64_t seeded_lattice_cells = 0;
  bool seeded = true;
  bool bit_identical = true;
  for (int rep = 0; rep < 2; ++rep) {
    rv::SweepService service;
    (void)service.submit(base);
    const std::uint64_t searched_before = service.stats().engine_lattice_cells;
    const Stopwatch watch;
    const rv::SubmitResult reused = service.submit(extended);
    reuse_seconds = std::min(reuse_seconds, watch.seconds());
    seeded_lattice_cells =
        service.stats().engine_lattice_cells - searched_before;
    seeded = seeded && reused.seeded && !reused.cache_hit;
    bit_identical =
        bit_identical && rc::tables_bit_identical(*reused.table, cold_table);
  }

  // Persistence: destroy a service (spilling its cache), restart over the
  // same directory, and demand the reload serve the identical bytes
  // without recomputing anything.
  const std::string cache_dir = "bench_micro_reuse_cache";
  std::error_code cleanup_error;
  std::filesystem::remove_all(cache_dir, cleanup_error);
  rv::ServiceOptions persisted;
  persisted.cache_dir = cache_dir;
  std::string before;
  {
    rv::SweepService service(persisted);
    before = rv::to_json_text(*service.submit(base).table);
  }  // destructor spills the LRU to cache_dir
  bool persistence_reload_bit_identical = false;
  {
    rv::SweepService service(persisted);
    const rv::SubmitResult reloaded = service.submit(base);
    persistence_reload_bit_identical =
        reloaded.cache_hit && reloaded.disk_hit &&
        service.stats().tables_computed == 0 &&
        rv::to_json_text(*reloaded.table) == before;
  }
  std::filesystem::remove_all(cache_dir, cleanup_error);

  gates.check(seeded && bit_identical,
              "the seeded reuse sweep %s; its throughput is not trustworthy",
              !seeded ? "consumed no cross-grid seeds"
                      : "is not bit-identical to the cold sweep");
  gates.check(seeded_lattice_cells > 0 &&
                  5 * seeded_lattice_cells <= cold_lattice_cells,
              "seeded reuse of the one-axis-extended catalog grid searched "
              "%llu lattice cells against the cold sweep's %llu (acceptance "
              "bar: at most 1/5)",
              static_cast<unsigned long long>(seeded_lattice_cells),
              static_cast<unsigned long long>(cold_lattice_cells));
  gates.check(persistence_reload_bit_identical,
              "a persisted cache entry did not reload bit-identically after "
              "a service restart");
  const double cold = ratio(extended_cells, cold_seconds);
  const double reuse = ratio(extended_cells, reuse_seconds);
  return JsonValue::Object{
      {"grid", "96-cell catalog extended by one node count (+20480)"},
      {"base_cells", base.cell_count()},
      {"extended_cells", extended_cells},
      {"cold_scenarios_per_sec", cold},
      {"reuse_scenarios_per_sec", reuse},
      {"speedup", ratio(reuse, cold)},
      {"cold_lattice_cells", cold_lattice_cells},
      {"seeded_lattice_cells", seeded_lattice_cells},
      {"lattice_ratio", ratio(static_cast<double>(cold_lattice_cells),
                              static_cast<double>(seeded_lattice_cells))},
      {"seeded", seeded},
      {"bit_identical", bit_identical},
      {"persistence_reload_bit_identical", persistence_reload_bit_identical}};
}

// ------------------------------------------------------ net throughput --

/// A request that cannot finish inside `deadline_ms` on any core count:
/// one chain (hera x 1024 nodes x PDMV under one cost), whose points the
/// runner computes strictly in sequence — chains are its unit of
/// parallelism — and whose consecutive points swap the fail-stop and
/// silent rates across four orders of magnitude, so each warm-started
/// (n, m) descent crosses the lattice (~200 lattice cells per point from
/// a ~40-byte rate entry, so parsing stays negligible next to the
/// compute). The chain is sized from this machine's measured cost per
/// point to ten times the deadline. Sets `cells` to the grid's size and
/// `cold_lattice_cells` to the lattice cells a cold sweep of the whole
/// grid searches: a deterministic count, bought with about ten deadlines
/// of compute.
std::string doomed_request(int deadline_ms, std::size_t& cells,
                           std::uint64_t& cold_lattice_cells) {
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
  const Stopwatch watch;
  (void)rc::SweepRunner().run(probe);
  const double seconds_per_point =
      watch.seconds() / static_cast<double>(probe.cell_count());
  const double target_seconds = 10.0 * deadline_ms / 1000.0;
  const auto points = std::max<std::size_t>(
      16, static_cast<std::size_t>(std::ceil(
              target_seconds / std::max(seconds_per_point, 1e-9))));
  const rc::ScenarioGrid grid = chain(points);
  cells = grid.cell_count();
  (void)cold_sweep(grid, cold_lattice_cells);

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

/// Loopback throughput of the epoll transport: a warm single-cell
/// request (transport cost, not compute cost) answered over TCP, serial
/// (one request in flight) vs. pipelined (every request sent before any
/// response is read). Gated on the transported responses being
/// byte-identical to the stdin sweep_server path — both run
/// service::JsonlSession, and this gate pins that the network layer
/// neither reorders, drops nor rewrites a byte.
///
/// Deadline gate, on counts from `{"type":"stats"}` snapshots taken
/// before the doomed request (see doomed_request) and right after its
/// answer: the answer must be the located `deadline_ms` error line,
/// `service.deadline_timeouts` must rise by exactly 1,
/// `service.tables_computed` must not move, and `engine.lattice_cells`
/// must grow by less than a cold sweep of the whole doomed grid searches
/// — the deadline stopped the sweep partway. Post-timeout gate: the
/// engine and compute counters must then hold still while the daemon
/// serves warm requests (identity hits, which compute nothing), so no
/// compute was left running behind the error line. The elapsed time to
/// the error line and the post-timeout throughput are recorded, not
/// gated: preemption moves them.
JsonValue net_section(Gates& gates) {
  const char* const kWorkload =
      "warm single-cell request over loopback TCP, serial vs pipelined";
  if (!rn::transport_supported()) {
    return JsonValue::Object{{"workload", kWorkload},
                             {"transport_supported", false}};
  }
  constexpr std::size_t kRequests = 1000;
  constexpr std::size_t kPostRequests = kRequests / 10;
  constexpr int kDeadlineMs = 100;
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

  double serial_seconds = 0.0;
  double pipelined_seconds = 0.0;
  bool responses_identical = false;
  // Answers the loop served from memory in each phase; every warm
  // request should be one, on any core count.
  std::uint64_t serial_served_inline = 0;
  std::uint64_t pipelined_served_inline = 0;
  std::size_t deadline_cells = 0;
  std::uint64_t deadline_cold_lattice_cells = 0;
  double deadline_elapsed_ms = 0.0;
  bool deadline_error_line = false;
  double deadline_timeouts_added = 0.0;
  double deadline_tables_computed_added = 0.0;
  double deadline_lattice_cells = 0.0;
  double post_timeout_seconds = 0.0;
  bool post_timeout_identical = false;
  bool post_timeout_quiescent = false;
  try {
    ServerThread daemon;
    const auto served_inline = [&daemon] {
      return daemon.server().stats().served_inline;
    };
    rn::Client client;
    client.connect("127.0.0.1", daemon.port());
    // A dead server (loop thread failure) must fail the gate, not hang
    // the bench until the CI job timeout.
    client.set_receive_timeout(30000);
    std::vector<std::string> received;
    received.reserve(expected.size());
    {  // warm-up: the one cache-miss compute, excluded from the timing
      const auto response = client.transact(request);
      received.insert(received.end(), response.lines.begin(),
                      response.lines.end());
    }
    std::vector<std::string> warm_lines;  // one warm serial response
    {  // serial: one request in flight at a time
      const std::uint64_t inline_before = served_inline();
      const Stopwatch watch;
      for (std::size_t i = 0; i < kRequests; ++i) {
        const auto response = client.transact(request);
        if (i == 0) {
          warm_lines = response.lines;
        }
        received.insert(received.end(), response.lines.begin(),
                        response.lines.end());
      }
      serial_seconds = watch.seconds();
      serial_served_inline = served_inline() - inline_before;
    }
    {  // pipelined: the same work, one write burst, responses streamed
      std::string burst;
      for (std::size_t i = 0; i < kRequests; ++i) {
        burst += request;
        burst += '\n';
      }
      std::vector<std::string> pipelined;
      const std::uint64_t inline_before = served_inline();
      const Stopwatch watch;
      client.send_raw(burst);
      for (std::size_t i = 0; i < kRequests; ++i) {
        const auto response = client.read_response();
        pipelined.insert(pipelined.end(), response.lines.begin(),
                         response.lines.end());
      }
      pipelined_seconds = watch.seconds();
      pipelined_served_inline = served_inline() - inline_before;
      received.insert(received.end(), pipelined.begin(), pipelined.end());
      responses_identical = received == expected;
    }

    const auto stats = [&client] {
      const auto response =
          client.transact(R"({"type": "stats", "id": "quiescence"})");
      if (!response.complete) {
        throw std::runtime_error("stats request went unanswered");
      }
      return JsonValue::parse(response.lines.back());
    };
    const auto counter = [](const JsonValue& snapshot, const char* block,
                            const char* key) {
      return snapshot.find(block)->find(key)->as_double();
    };
    {  // deadline: a grid doomed by construction (see doomed_request).
      // A done line instead of the error means the gate measured
      // nothing: a gate failure.
      const std::string doomed = doomed_request(
          kDeadlineMs, deadline_cells, deadline_cold_lattice_cells);
      const JsonValue before = stats();
      const Stopwatch watch;
      const auto response = client.transact(doomed);
      deadline_elapsed_ms = watch.milliseconds();
      deadline_error_line =
          response.complete && !response.lines.empty() &&
          response.lines.back().starts_with("{\"type\":\"error\"") &&
          response.lines.back().find("\"field\":\"deadline_ms\"") !=
              std::string::npos;
      const JsonValue at_error_line = stats();
      const auto added = [&](const char* block, const char* key) {
        return counter(at_error_line, block, key) -
               counter(before, block, key);
      };
      deadline_timeouts_added = added("service", "deadline_timeouts");
      deadline_tables_computed_added = added("service", "tables_computed");
      deadline_lattice_cells = added("engine", "lattice_cells");

      // Post-timeout: the timed-out sweep stopped at its error line
      // (engine.lattice_cells, engine.w_probes and
      // service.tables_computed hold still) and the daemon serves the
      // warm request unchanged.
      post_timeout_identical = true;
      const Stopwatch post_watch;
      for (std::size_t i = 0; i < kPostRequests; ++i) {
        const auto warm = client.transact(request);
        post_timeout_identical = post_timeout_identical && warm.complete &&
                                 warm.lines == warm_lines;
      }
      post_timeout_seconds = post_watch.seconds();
      const JsonValue after = stats();
      const auto held = [&](const char* block, const char* key) {
        return counter(after, block, key) == counter(at_error_line, block, key);
      };
      post_timeout_quiescent = held("engine", "lattice_cells") &&
                               held("engine", "w_probes") &&
                               held("service", "tables_computed");
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_micro: net bench failed: %s\n", error.what());
    responses_identical = false;
  }

  const double serial = ratio(kRequests, serial_seconds);
  const double pipelined = ratio(kRequests, pipelined_seconds);
  gates.check(responses_identical,
              "transported responses are not byte-identical to the stdin "
              "path; the net throughput is not trustworthy");
  gates.check(serial > 0.0 && pipelined > 0.0,
              "net section produced no timing");
  gates.check(serial_served_inline == kRequests &&
                  pipelined_served_inline == kRequests,
              "the loop answered %llu of %zu serial and %llu of %zu "
              "pipelined warm requests from memory; every one is a "
              "memory-tier hit",
              static_cast<unsigned long long>(serial_served_inline),
              kRequests,
              static_cast<unsigned long long>(pipelined_served_inline),
              kRequests);
  gates.check(deadline_error_line && deadline_timeouts_added == 1.0 &&
                  deadline_tables_computed_added == 0.0 &&
                  deadline_lattice_cells <
                      static_cast<double>(deadline_cold_lattice_cells),
              "the %d ms deadline did not stop the doomed %zu-cell sweep: "
              "%s, deadline_timeouts +%.0f (need +1), tables_computed +%.0f "
              "(need +0), %.0f lattice cells searched (need fewer than a "
              "cold sweep's %llu)",
              kDeadlineMs, deadline_cells,
              deadline_error_line ? "error line located"
                                  : "no located deadline_ms error line",
              deadline_timeouts_added, deadline_tables_computed_added,
              deadline_lattice_cells,
              static_cast<unsigned long long>(deadline_cold_lattice_cells));
  gates.check(post_timeout_identical && post_timeout_quiescent,
              "after the deadline error line %s",
              post_timeout_quiescent
                  ? "the warm responses DIVERGE"
                  : "the engine kept computing (lattice_cells, w_probes or "
                    "tables_computed moved); the timed-out sweep was left "
                    "running");
  return JsonValue::Object{
      {"workload", kWorkload},
      {"transport_supported", true},
      {"requests", kRequests},
      {"serial_requests_per_sec", serial},
      {"pipelined_requests_per_sec", pipelined},
      {"pipelining_speedup", ratio(pipelined, serial)},
      {"serial_served_inline", serial_served_inline},
      {"pipelined_served_inline", pipelined_served_inline},
      {"responses_identical", responses_identical},
      {"deadline_ms", kDeadlineMs},
      {"deadline_cells", deadline_cells},
      {"deadline_elapsed_ms", deadline_elapsed_ms},
      {"deadline_within_bound",
       deadline_error_line && deadline_elapsed_ms < 2.0 * kDeadlineMs},
      {"post_timeout_requests_per_sec",
       ratio(kPostRequests, post_timeout_seconds)},
      {"post_timeout_identical", post_timeout_identical},
      {"post_timeout_quiescent", post_timeout_quiescent},
      {"deadline_error_line", deadline_error_line},
      {"deadline_timeouts_added", deadline_timeouts_added},
      {"deadline_tables_computed_added", deadline_tables_computed_added},
      {"deadline_lattice_cells", deadline_lattice_cells},
      {"deadline_cold_lattice_cells", deadline_cold_lattice_cells}};
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
JsonValue fleet_section(Gates& gates) {
  const char* const kWorkload =
      "6 distinct multi-chain grids merged by sweep_router over in-process "
      "NetServer shards";
  if (!rn::transport_supported()) {
    return JsonValue::Object{{"workload", kWorkload},
                             {"transport_supported", false}};
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

  // Stable ring ids (ports are ephemeral): the chain assignment — and
  // therefore which shard the kill below orphans — is deterministic
  // across runs.
  const auto fleet_options = [](const std::deque<ServerThread>& shards) {
    rn::RouterOptions options;
    for (std::size_t i = 0; i < shards.size(); ++i) {
      rn::ShardConfig config;
      config.port = shards[i].port();
      config.id = "shard-" + std::to_string(i);
      options.shards.push_back(config);
    }
    options.connect_timeout_ms = 2000;
    options.receive_timeout_ms = 30000;
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

  double requests_per_sec[3] = {};  // warm passes at 1, 2 and 3 shards
  // Connections the shards of each fleet accepted over all its passes:
  // kept connections make it one per shard, not one per request.
  std::uint64_t shard_connections[3] = {};
  bool merged_identical = false;    // cold sorted + warm exact, every N
  double kill_recovery_ms = 0.0;
  std::uint64_t failovers = 0;
  bool post_kill_identical = false;
  try {
    bool identical = true;
    constexpr std::size_t kWarmPasses = 20;
    for (std::size_t shard_count = 1; shard_count <= 3; ++shard_count) {
      std::deque<ServerThread> shards(shard_count);
      rn::ShardFleet fleet(fleet_options(shards));

      identical = identical &&
                  sorted(run_pass(fleet)) == sorted(cold_reference) &&
                  run_pass(fleet) == warm_reference;

      const Stopwatch watch;
      for (std::size_t pass = 0; pass < kWarmPasses; ++pass) {
        identical = identical && run_pass(fleet) == warm_reference;
      }
      requests_per_sec[shard_count - 1] =
          ratio(kWarmPasses * workload.size(), watch.seconds());
      for (ServerThread& shard : shards) {
        shard_connections[shard_count - 1] += shard.server().stats().accepted;
      }
    }
    merged_identical = identical;

    // Kill recovery: a warm 3-shard fleet loses one shard, and the next
    // pass pays the detection + failover + recompute bill. Every
    // response must still match the reference bytes — warm where the
    // dead shard owned nothing, cold-flagged where a failed-over unit
    // recomputed — with no line dropped or duplicated.
    {
      std::deque<ServerThread> shards(3);
      rn::ShardFleet fleet(fleet_options(shards));
      run_pass(fleet);  // warm every shard (identity gated above)

      shards[2].stop();  // fail-stop under a warm fleet
      const Stopwatch watch;
      const Responses after = sorted(run_pass(fleet));
      kill_recovery_ms = watch.milliseconds();
      post_kill_identical = after.size() == warm_reference.size();
      const Responses warm_sorted = sorted(warm_reference);
      const Responses cold_sorted = sorted(cold_reference);
      for (std::size_t i = 0; i < after.size() && post_kill_identical; ++i) {
        post_kill_identical =
            after[i] == warm_sorted[i] || after[i] == cold_sorted[i];
      }
      failovers = fleet.stats().failovers;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_micro: fleet bench failed: %s\n",
                 error.what());
    merged_identical = false;
    post_kill_identical = false;
  }

  gates.check(merged_identical,
              "fleet-merged responses are not byte-identical to the "
              "single-process path; the fleet throughput is not "
              "trustworthy");
  gates.check(requests_per_sec[0] > 0.0 && requests_per_sec[1] > 0.0 &&
                  requests_per_sec[2] > 0.0,
              "fleet section produced no timing");
  for (std::size_t n = 1; n <= 3; ++n) {
    gates.check(shard_connections[n - 1] <= n,
                "the %zu-shard fleet's shards accepted %llu connections over "
                "its passes; kept connections allow at most %zu",
                n, static_cast<unsigned long long>(shard_connections[n - 1]),
                n);
  }
  gates.check(post_kill_identical && failovers != 0,
              "the kill-recovery pass %s (failovers: %llu)",
              post_kill_identical
                  ? "recorded no failover despite the shard kill"
                  : "dropped, duplicated or rewrote a response line",
              static_cast<unsigned long long>(failovers));
  return JsonValue::Object{
      {"workload", kWorkload},
      {"transport_supported", true},
      {"requests_per_pass", workload.size()},
      {"one_shard_requests_per_sec", requests_per_sec[0]},
      {"two_shard_requests_per_sec", requests_per_sec[1]},
      {"three_shard_requests_per_sec", requests_per_sec[2]},
      {"shard_connections",
       JsonValue::Array{shard_connections[0], shard_connections[1],
                        shard_connections[2]}},
      {"merged_identical", merged_identical},
      {"kill_recovery_ms", kill_recovery_ms},
      {"failovers", failovers},
      {"post_kill_identical", post_kill_identical}};
}

// -------------------------------------------------------------- overload --

/// Admission-control costs under saturation. Two gates: (1) a shed
/// answer never costs a worker — with the queue at its budget, every
/// sampled scenario request is answered "overloaded" at admission: the
/// server's `shed_overload` counter grows by exactly the number of shed
/// answers, and `requests_started` by no more than the requests the
/// phase actually served (the shed round-trip latency is recorded, not
/// gated); (2) warm traffic keeps flowing — with a second connection
/// continuously streaming heavy cold grids, warm single-cell requests
/// are still served (the fair queue dispatches them past the heavy lane
/// instead of behind it), byte-identical to the unloaded answers. Their
/// throughput relative to the unloaded phase is recorded as
/// warm_loaded_ratio, not gated.
JsonValue overload_section(Gates& gates) {
  const char* const kWorkload =
      "warm single-cell traffic vs heavy cold grids on a 2-worker daemon "
      "with a 16-unit admission budget";
  if (!rn::transport_supported()) {
    return JsonValue::Object{{"workload", kWorkload},
                             {"transport_supported", false}};
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

  double unloaded_seconds = 0.0;  // 0 unless every answer was identical
  std::size_t shed_samples = 0;
  double shed_ms_total = 0.0;
  double shed_latency_ms_max = 0.0;
  bool shed_answers_wellformed = false;  ///< code + retry_after on each
  std::uint64_t sheds_recorded = 0;      ///< server-side counter
  std::uint64_t shed_overload_added = 0;
  std::uint64_t requests_started_added = 0;
  std::size_t requests_served = 0;
  double loaded_seconds = 0.0;
  bool warm_loaded_identical = false;
  std::uint64_t loaded_served_inline = 0;  ///< the loaded phase's answers
                                           ///< from memory
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
    ServerThread daemon(options);
    rn::NetServer& server = daemon.server();

    rn::Client warm_client;
    warm_client.connect("127.0.0.1", daemon.port());
    warm_client.set_receive_timeout(30000);
    std::vector<std::string> warm_lines;
    {  // warm-up compute + capture the warm reference bytes
      (void)warm_client.transact(warm_request);
      warm_lines = warm_client.transact(warm_request).lines;
    }
    {  // unloaded warm throughput
      bool identical = true;
      const Stopwatch watch;
      for (std::size_t i = 0; i < kWarmRequests; ++i) {
        const auto response = warm_client.transact(warm_request);
        identical =
            identical && response.complete && response.lines == warm_lines;
      }
      unloaded_seconds = identical ? watch.seconds() : 0.0;
    }

    {  // shed path: saturate the queue, then sample sheds.
      // The heavies go out one by one, each after the previous reached a
      // worker: a single burst is admitted before any dispatch, where
      // the queue-empty exception covers only its first request and the
      // rest shed instead of staying queued.
      rn::Client flood;
      flood.connect("127.0.0.1", daemon.port());
      flood.set_receive_timeout(30000);
      const std::uint64_t started_before = server.stats().requests_started;
      const auto await = [&](auto pred) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!pred() && std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      };
      flood.send_raw(heavy(0) + "\n");
      await([&] {
        return server.stats().requests_started >= started_before + 1;
      });
      flood.send_raw(heavy(1) + "\n");
      await([&] {
        return server.stats().requests_started >= started_before + 2;
      });
      flood.send_raw(heavy(2) + "\n");  // both workers busy: this queues
      await([&] { return server.overload_stats().queued_depth >= 1; });
      const std::uint64_t sheds_before = server.overload_stats().shed_overload;
      requests_served = 3;  // the heavies
      bool wellformed = true;
      for (std::size_t i = 0; i < kShedSamples; ++i) {
        if (server.overload_stats().queued_depth < 1) {
          break;  // the flood drained; stop sampling, keep the samples
        }
        const Stopwatch watch;
        const auto response = warm_client.transact(warm_request);
        const double ms = watch.milliseconds();
        if (!response.complete) {
          wellformed = false;
          break;
        }
        std::int64_t retry_after = 0;
        if (!rn::is_overloaded_response(response, &retry_after)) {
          ++requests_served;  // the flood drained mid-flight and this
          break;              // answer was served, not shed; stop sampling
        }
        wellformed = wellformed && retry_after >= 1;
        shed_ms_total += ms;
        shed_latency_ms_max = std::max(shed_latency_ms_max, ms);
        ++shed_samples;
      }
      shed_answers_wellformed = wellformed && shed_samples > 0;
      for (int i = 0; i < 3; ++i) {  // drain the flood before phase 3
        (void)flood.read_response();
      }
      sheds_recorded = server.overload_stats().shed_overload;
      shed_overload_added = sheds_recorded - sheds_before;
      requests_started_added =
          server.stats().requests_started - started_before;
    }

    {  // warm throughput under a continuous heavy stream
      // std::jthread: leaving the block, on an exception too, requests
      // the stop and joins, so the loader never outlives what it uses.
      const std::jthread heavy_thread([&](const std::stop_token& stop) {
        try {
          rn::Client loader;
          loader.connect("127.0.0.1", daemon.port());
          loader.set_receive_timeout(30000);
          int salt = 3;
          while (!stop.stop_requested()) {
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
      const std::uint64_t inline_before = server.stats().served_inline;
      const Stopwatch watch;
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
      loaded_seconds = watch.seconds();
      loaded_served_inline = server.stats().served_inline - inline_before;
      warm_loaded_identical = identical;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_micro: overload bench failed: %s\n",
                 error.what());
    shed_answers_wellformed = false;
    warm_loaded_identical = false;
  }

  gates.check(shed_samples >= 20 && shed_answers_wellformed,
              "the shed path measured %zu samples (need >= 20)%s; admission "
              "control was not exercised",
              shed_samples,
              shed_answers_wellformed ? ""
                                      : ", with malformed overloaded answers");
  gates.check(shed_overload_added == shed_samples &&
                  requests_started_added <= requests_served,
              "shedding cost more than an answer at admission: shed_overload "
              "+%llu for %zu shed answers, requests_started +%llu for %zu "
              "requests served — saying no must never cost a worker",
              static_cast<unsigned long long>(shed_overload_added),
              shed_samples,
              static_cast<unsigned long long>(requests_started_added),
              requests_served);
  gates.check(warm_loaded_identical,
              "warm responses under heavy load are not byte-identical to "
              "the unloaded answers");
  // Shed retries are answered at admission; every served warm request
  // is a memory-tier hit the loop answers past the busy workers.
  gates.check(loaded_served_inline == kWarmRequests,
              "the loop answered %llu of the %zu warm requests under load "
              "from memory; every one is a memory-tier hit",
              static_cast<unsigned long long>(loaded_served_inline),
              kWarmRequests);
  // warm_loaded_ratio stays in the JSON but out of the exit code: a
  // wall-clock ratio between two phases has no 2x margin on every core
  // count (0.32x has been seen against a 0.5x bar).
  const double unloaded = ratio(kWarmRequests, unloaded_seconds);
  const double loaded = ratio(kWarmRequests, loaded_seconds);
  return JsonValue::Object{
      {"workload", kWorkload},
      {"transport_supported", true},
      {"shed_samples", shed_samples},
      {"shed_latency_ms_mean", ratio(shed_ms_total, shed_samples)},
      {"shed_latency_ms_max", shed_latency_ms_max},
      {"shed_answers_wellformed", shed_answers_wellformed},
      {"sheds_recorded", sheds_recorded},
      {"warm_unloaded_requests_per_sec", unloaded},
      {"warm_loaded_requests_per_sec", loaded},
      {"warm_loaded_ratio", ratio(loaded, unloaded)},
      {"warm_loaded_identical", warm_loaded_identical},
      {"loaded_served_inline", loaded_served_inline},
      {"shed_overload_added", shed_overload_added},
      {"requests_started_added", requests_started_added},
      {"requests_served", requests_served}};
}

// -------------------------------------------------------------- simulate --

/// Monte Carlo serving: one fixed-seed "mode": "simulate" request (hera x
/// 4096 nodes x all 6 families x 2 Weibull shapes x 2 faulty-ops factors,
/// CI-bounded at 5%) answered through the full JsonlSession pipeline at
/// pool sizes 1, 2 and 8. The determinism contract says the response
/// stream is byte-identical at ANY pool size — parallelism lives inside a
/// cell's campaign, never across the emission order — so the gate diffs
/// the emitted lines across the three pools; throughput is the service's
/// sim.runs_per_second counter at the largest pool. A warm replay of
/// the same request must hit the sim cache tier and serve a table
/// bit-identical to a cold recompute.
JsonValue simulate_section(Gates& gates) {
  const std::string request_line =
      R"({"id": "sim-bench", "platforms": ["hera"], "node_counts": [4096],)"
      R"( "mode": "simulate", "sim": {"seed": 42, "target_ci": 0.05,)"
      R"( "max_runs": 256, "weibull_shape": [1.0, 0.7],)"
      R"( "faulty_ops": [1.0, 0.0]}})";

  const std::size_t pool_sizes[] = {1, 2, 8};
  std::vector<std::string> streams;
  std::size_t cells = 0;
  std::uint64_t runs = 0;
  double runs_per_sec = 0.0;
  bool replay_identical = false;
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
      const rv::ServiceStats stats = service.stats();
      runs = stats.sim_runs;
      runs_per_sec = stats.sim_runs_per_second;

      // Warm replay vs a genuinely cold recompute, bit for bit.
      const rv::ScenarioRequest request =
          rv::ScenarioRequest::parse(request_line);
      const rv::SimSubmitResult warm = service.simulate(request);
      rv::SweepService cold_service(options);
      const rv::SimSubmitResult cold = cold_service.simulate(request);
      cells = warm.table->cell_count();
      replay_identical = warm.cache_hit && !cold.cache_hit &&
                         rc::tables_bit_identical(*warm.table, *cold.table);
    }
  }
  const bool pool_identical = streams.size() == std::size(pool_sizes) &&
                              streams[0] == streams[1] &&
                              streams[1] == streams[2];
  for (std::size_t i = 1; i < streams.size(); ++i) {
    if (streams[i] != streams[0]) {
      std::fprintf(stderr,
                   "bench_micro: simulate stream at pool %zu differs from "
                   "pool %zu\n",
                   pool_sizes[i], pool_sizes[0]);
    }
  }
  gates.check(pool_identical,
              "simulate responses are not byte-identical across pool sizes "
              "1/2/8; the determinism contract is broken");
  gates.check(replay_identical,
              "a warm simulate replay is not bit-identical to a cold "
              "recompute; the sim cache tier is not trustworthy");
  gates.check(runs_per_sec > 0.0 && runs != 0,
              "simulate section produced no timing");
  return JsonValue::Object{
      {"workload",
       "hera x 4096 nodes x 6 families x 2 Weibull shapes x 2 faulty-ops "
       "factors, target_ci 0.05, max_runs 256, pools 1/2/8"},
      {"cells", cells},
      {"runs", runs},
      {"runs_per_sec", runs_per_sec},
      {"pool_identical", pool_identical},
      {"replay_identical", replay_identical}};
}

// ---------------------------------------------------------------- report --

/// Runs the sections in document order, prints one summary line per
/// section, and writes the document to `out_path`. Returns 1 when any
/// gate failed or the file could not be written, 0 otherwise.
int run_json_mode(std::uint64_t patterns, const std::string& out_path) {
  Gates gates;
  JsonValue simulator = families_section(patterns, gates);
  std::printf("%-8s %s\n", "families", simulator.dump().c_str());
  JsonValue document = JsonValue::Object{
      {"bench", "bench_micro"},
      {"seed", kJsonSeed},
      {"patterns", patterns},
      {"geomean_speedup", *simulator.find("geomean_speedup")}};
  const std::pair<const char*, JsonValue (*)(Gates&)> sections[] = {
      {"sweep", sweep_section}, {"service", service_section},
      {"reuse", reuse_section}, {"net", net_section},
      {"fleet", fleet_section}, {"overload", overload_section},
      {"simulate", simulate_section}};
  for (const auto& [name, section] : sections) {
    JsonValue block = section(gates);
    std::printf("%-8s %s\n", name, block.dump().c_str());
    document.set(name, std::move(block));
  }
  document.set("families", std::move(*simulator.find("families")));

  std::ofstream out(out_path);
  out << document.dump(2) << '\n';
  if (!out) {
    std::fprintf(stderr, "bench_micro: cannot write %s\n", out_path.c_str());
    return 1;
  }
  return gates.failed() ? 1 : 0;
}

}  // namespace

// ------------------------------------------------- Google Benchmark mode --

#if RESILIENCE_HAVE_GBENCH

namespace {

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
      // CliParser::checked_uint64's rule: the whole value parses as an
      // unsigned integer (no sign: strtoull would wrap "-5" to 2^64 - 5
      // patterns) and it is at least 1.
      const std::string_view text = std::string_view(arg).substr(11);
      const char* const end = text.data() + text.size();
      const auto parsed = std::from_chars(text.data(), end, patterns);
      if (parsed.ec != std::errc() || parsed.ptr != end || patterns == 0) {
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
