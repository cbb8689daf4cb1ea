// Tests for the simulate mode: sim request parsing/validation, the sim
// signature and content-addressed per-cell seeds, the determinism
// contract (bit-identical tables at pool sizes 1/2/8, sub-grid splits
// matching whole-grid computes cell for cell), the adaptive stopper's
// cap property (raising max_runs never changes an early-stopped cell),
// simulate tables in the shared cache (memory hits, disk spill/reload,
// one capacity for both modes, cross-mode misses and spill rejection, a
// spill from an earlier build served byte for byte), cost-model
// pricing, SweepService's one reuse ladder in simulate mode (identical
// concurrent requests compute once, collision recomputes are not
// published, deadlines count and fire while joined, each entry point
// rejects the other mode), and the JsonlSession wire behavior (streamed
// cell lines, a "mode":"simulate" done line, the server-side
// sim_max_runs cap).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "resilience/service/cost_model.hpp"
#include "resilience/service/jsonl_session.hpp"
#include "resilience/service/scenario_request.hpp"
#include "resilience/service/serialize.hpp"
#include "resilience/service/sim_table.hpp"
#include "resilience/service/sweep_service.hpp"
#include "resilience/util/thread_pool.hpp"

namespace rc = resilience::core;
namespace rs = resilience::service;
namespace ru = resilience::util;

namespace {

/// A cell's members as one compact object, through the writer.
std::string cell_text(const rs::SimCell& cell) {
  std::string text;
  ru::JsonWriter out(text);
  out.begin_object();
  rs::write_members(out, cell);
  out.end_object();
  return text;
}

/// Small simulate request: 2 points x 2 families x 2 shapes x 2 ops
/// factors = 16 cells, budgets sized so the whole suite runs in seconds.
rs::ScenarioRequest small_sim_request() {
  rs::ScenarioRequest request;
  request.id = "sim-test";
  request.grid.platforms = {rc::hera()};
  request.grid.node_counts = {512, 2048};
  request.grid.kinds = {rc::PatternKind::kD, rc::PatternKind::kDMV};
  request.simulate = true;
  request.sim.seed = 42;
  request.sim.target_ci = 0.08;
  request.sim.min_runs = 32;
  request.sim.max_runs = 96;
  request.sim.patterns_per_run = 40;
  request.sim.weibull_shape = {1.0, 0.7};
  request.sim.faulty_ops = {1.0, 0.0};
  return request;
}

/// One cell in an error storm (operations at 10000x the fail-stop
/// rate): a run retries a window about e^{lambda R} times, so it only
/// ends when its token fires.
rs::ScenarioRequest storm_request() {
  rs::ScenarioRequest request;
  request.id = "storm";
  request.grid.platforms = {rc::hera()};
  request.grid.node_counts = {4096};
  request.grid.kinds = {rc::PatternKind::kD};
  request.simulate = true;
  request.sim.seed = 1;
  request.sim.min_runs = 1;
  request.sim.max_runs = 1;
  request.sim.patterns_per_run = 1;
  request.sim.faulty_ops = {10000.0};
  return request;
}

/// Same request as JSON text (the wire form of small_sim_request).
std::string small_sim_request_line() {
  return small_sim_request().to_json().dump();
}

rs::SimSubmitResult submit_at_pool(const rs::ScenarioRequest& request,
                                   std::size_t threads,
                                   std::vector<rs::SimCell>* streamed = nullptr) {
  ru::ThreadPool pool(threads);
  rs::ServiceOptions options;
  options.sweep.pool = &pool;
  rs::SweepService service(options);
  rs::SimCellFn sink;
  if (streamed != nullptr) {
    sink = [streamed](const rs::SimCell& cell) { streamed->push_back(cell); };
  }
  return service.simulate(request, sink);
}

/// RAII scratch directory under the test working directory (never /tmp:
/// the persistence tests must stay inside the build tree).
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(std::filesystem::path("sim_cache_test") / name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

// ------------------------------------------------------------- parsing --

TEST(SimRequestParsing, SimulateModeParsesWithDefaults) {
  const auto request = rs::ScenarioRequest::parse(
      "{\"id\": \"s\", \"platforms\": [\"hera\"], \"node_counts\": [512], "
      "\"mode\": \"simulate\"}");
  EXPECT_TRUE(request.simulate);
  EXPECT_EQ(request.sim.seed, 0x5eedULL);
  EXPECT_EQ(request.sim.target_ci, 0.0);
  EXPECT_EQ(request.sim.max_runs, 1000u);
  EXPECT_EQ(request.sim.min_runs, 64u);
  EXPECT_EQ(request.sim.patterns_per_run, 100u);
  EXPECT_EQ(request.sim.weibull_shape, std::vector<double>{1.0});
  EXPECT_EQ(request.sim.faulty_ops, std::vector<double>{1.0});
}

TEST(SimRequestParsing, SimBlockWithoutSimulateModeIsRejected) {
  try {
    rs::ScenarioRequest::parse(
        "{\"platforms\": [\"hera\"], \"node_counts\": [512], "
        "\"sim\": {\"seed\": 1}}");
    FAIL() << "expected RequestError";
  } catch (const rs::RequestError& error) {
    EXPECT_EQ(error.field, "sim");
  }
}

TEST(SimRequestParsing, SimFieldErrorsNameTheJsonPath) {
  const auto expect_field = [](const std::string& sim_block,
                               const std::string& field) {
    try {
      rs::ScenarioRequest::parse(
          "{\"platforms\": [\"hera\"], \"node_counts\": [512], "
          "\"mode\": \"simulate\", \"sim\": " +
          sim_block + "}");
      FAIL() << "expected RequestError for " << sim_block;
    } catch (const rs::RequestError& error) {
      EXPECT_EQ(error.field, field) << sim_block;
    }
  };
  expect_field("{\"seed\": -1}", "sim.seed");
  expect_field("{\"target_ci\": -0.5}", "sim.target_ci");
  expect_field("{\"max_runs\": 0}", "sim.max_runs");
  expect_field("{\"min_runs\": 200, \"max_runs\": 100}", "sim.min_runs");
  expect_field("{\"patterns_per_run\": 0}", "sim.patterns_per_run");
  expect_field("{\"weibull_shape\": []}", "sim.weibull_shape");
  expect_field("{\"faulty_ops\": []}", "sim.faulty_ops");
  // An axis value listed twice; 0 and -0 are one value.
  expect_field("{\"weibull_shape\": [1.0, 0.7, 1.0]}", "sim.weibull_shape[2]");
  expect_field("{\"faulty_ops\": [0, -0]}", "sim.faulty_ops[1]");
}

TEST(SimRequestParsing, RoundTripPreservesEverySimField) {
  const auto request = small_sim_request();
  const auto reparsed = rs::ScenarioRequest::parse(request.to_json().dump());
  EXPECT_TRUE(reparsed.simulate);
  EXPECT_EQ(reparsed.sim, request.sim);
  // Re-serialization is byte-stable (canonical JSON).
  EXPECT_EQ(reparsed.to_json().dump(), request.to_json().dump());
}

// ---------------------------------------------------------- signatures --

TEST(SimSignature, SensitiveToEverySimParamField) {
  const auto request = small_sim_request();
  const auto points = rc::resolve_points(request.grid);
  const auto kinds = request.grid.resolved_kinds();
  const auto base = rs::sim_signature(points, kinds, request.sim);
  EXPECT_EQ(rs::sim_signature(points, kinds, request.sim), base);

  const auto differs = [&](auto mutate) {
    rs::SimParams params = request.sim;
    mutate(params);
    return rs::sim_signature(points, kinds, params) != base;
  };
  EXPECT_TRUE(differs([](rs::SimParams& p) { p.seed += 1; }));
  EXPECT_TRUE(differs([](rs::SimParams& p) { p.target_ci = 0.01; }));
  EXPECT_TRUE(differs([](rs::SimParams& p) { p.max_runs += 1; }));
  EXPECT_TRUE(differs([](rs::SimParams& p) { p.min_runs += 1; }));
  EXPECT_TRUE(differs([](rs::SimParams& p) { p.patterns_per_run += 1; }));
  EXPECT_TRUE(differs([](rs::SimParams& p) { p.weibull_shape.push_back(0.5); }));
  EXPECT_TRUE(differs([](rs::SimParams& p) { p.faulty_ops = {1.0}; }));

  // Never colliding with the analytic signature of the same grid.
  EXPECT_NE(base.hex(),
            rc::grid_signature(request.grid, rc::SweepOptions{}).hex());
}

TEST(SimCellSeed, ContentAddressedNotPositional) {
  const auto request = small_sim_request();
  const auto points = rc::resolve_points(request.grid);
  const auto seed = rs::sim_cell_seed(request.sim, rc::PatternKind::kD,
                                      points[0].params, 1.0, 1.0);
  // Pure function of content: same inputs, same stream key.
  EXPECT_EQ(rs::sim_cell_seed(request.sim, rc::PatternKind::kD,
                              points[0].params, 1.0, 1.0),
            seed);
  // Any resolved parameter moves it.
  EXPECT_NE(rs::sim_cell_seed(request.sim, rc::PatternKind::kDMV,
                              points[0].params, 1.0, 1.0),
            seed);
  EXPECT_NE(rs::sim_cell_seed(request.sim, rc::PatternKind::kD,
                              points[1].params, 1.0, 1.0),
            seed);
  EXPECT_NE(rs::sim_cell_seed(request.sim, rc::PatternKind::kD,
                              points[0].params, 0.7, 1.0),
            seed);
  EXPECT_NE(rs::sim_cell_seed(request.sim, rc::PatternKind::kD,
                              points[0].params, 1.0, 0.0),
            seed);
  rs::SimParams reseeded = request.sim;
  reseeded.seed += 1;
  EXPECT_NE(rs::sim_cell_seed(reseeded, rc::PatternKind::kD, points[0].params,
                              1.0, 1.0),
            seed);
}

// --------------------------------------------------------- determinism --

TEST(Simulate, BitIdenticalAcrossPoolSizes) {
  const auto request = small_sim_request();
  std::vector<rs::SimCell> streamed1;
  const auto at1 = submit_at_pool(request, 1, &streamed1);
  std::vector<rs::SimCell> streamed2;
  const auto at2 = submit_at_pool(request, 2, &streamed2);
  std::vector<rs::SimCell> streamed8;
  const auto at8 = submit_at_pool(request, 8, &streamed8);

  EXPECT_TRUE(rc::tables_bit_identical(*at1.table, *at2.table));
  EXPECT_TRUE(rc::tables_bit_identical(*at1.table, *at8.table));
  EXPECT_EQ(at1.signature.hex(), at8.signature.hex());

  // Streaming order is the canonical storage order at every pool size.
  ASSERT_EQ(streamed1.size(), at1.table->cell_count());
  EXPECT_EQ(streamed1.size(), streamed2.size());
  EXPECT_EQ(streamed1.size(), streamed8.size());
  for (std::size_t i = 0; i < streamed1.size(); ++i) {
    EXPECT_EQ(cell_text(streamed1[i]),
              cell_text(at1.table->cells[i]))
        << "cell " << i;
    EXPECT_EQ(cell_text(streamed1[i]),
              cell_text(streamed8[i]))
        << "cell " << i;
  }

  // Sanity of the cell values themselves.
  for (const rs::SimCell& cell : at1.table->cells) {
    EXPECT_TRUE(std::isfinite(cell.mean));
    EXPECT_LE(cell.ci_low, cell.mean);
    EXPECT_GE(cell.ci_high, cell.mean);
    EXPECT_GE(cell.runs, request.sim.min_runs);
    EXPECT_LE(cell.runs, request.sim.max_runs);
  }
}

TEST(Simulate, SubGridSplitMatchesWholeGridCellForCell) {
  // The router property: a shard computing one slice of the grid derives
  // the same per-cell seeds (content-addressed), so its cells are
  // bit-identical to the whole-grid compute's.
  const auto whole = small_sim_request();
  const auto full = submit_at_pool(whole, 2);

  for (std::size_t point = 0; point < 2; ++point) {
    auto part = whole;
    part.grid.node_counts = {whole.grid.node_counts[point]};
    const auto sub = submit_at_pool(part, 2);
    ASSERT_EQ(sub.table->points.size(), 1u);
    const std::size_t kinds_n = full.table->kinds.size();
    for (std::size_t k = 0; k < kinds_n; ++k) {
      for (std::size_t s = 0; s < 2; ++s) {
        for (std::size_t f = 0; f < 2; ++f) {
          const rs::SimCell& got =
              sub.table->cells[sub.table->cell_index(0, k, s * 2 + f)];
          const rs::SimCell& want =
              full.table->cells[full.table->cell_index(point, k, s * 2 + f)];
          EXPECT_TRUE(bits_equal(got.mean, want.mean));
          EXPECT_TRUE(bits_equal(got.ci_low, want.ci_low));
          EXPECT_TRUE(bits_equal(got.ci_high, want.ci_high));
          EXPECT_EQ(got.runs, want.runs);
          EXPECT_EQ(got.early_stopped, want.early_stopped);
        }
      }
    }
  }
}

TEST(Simulate, RaisingMaxRunsNeverChangesAnEarlyStoppedCell) {
  // The adaptive stopper's batch schedule is a pure function of
  // min_runs, so a cell that met target_ci under a low cap stops at the
  // same run count — with bit-identical statistics — under a higher cap.
  auto capped = small_sim_request();
  capped.sim.target_ci = 0.1;
  capped.sim.max_runs = 64;
  auto roomy = capped;
  roomy.sim.max_runs = 512;

  const auto low = submit_at_pool(capped, 2);
  const auto high = submit_at_pool(roomy, 2);
  ASSERT_EQ(low.table->cell_count(), high.table->cell_count());

  std::size_t early = 0;
  for (std::size_t i = 0; i < low.table->cells.size(); ++i) {
    const rs::SimCell& a = low.table->cells[i];
    const rs::SimCell& b = high.table->cells[i];
    EXPECT_LE(a.runs, capped.sim.max_runs);
    if (!a.early_stopped) {
      // Capped: the roomier budget may (and usually does) run further.
      EXPECT_EQ(a.runs, capped.sim.max_runs);
      EXPECT_GE(b.runs, a.runs);
      continue;
    }
    ++early;
    EXPECT_TRUE(b.early_stopped) << "cell " << i;
    EXPECT_EQ(a.runs, b.runs) << "cell " << i;
    EXPECT_TRUE(bits_equal(a.mean, b.mean)) << "cell " << i;
    EXPECT_TRUE(bits_equal(a.ci_low, b.ci_low)) << "cell " << i;
    EXPECT_TRUE(bits_equal(a.ci_high, b.ci_high)) << "cell " << i;
  }
  // The property proved nothing if no cell ever stopped early.
  EXPECT_GT(early, 0u);
}

// --------------------------------------------------------------- cache --

TEST(Simulate, SecondSubmitReplaysFromTheMemoryTier) {
  ru::ThreadPool pool(2);
  rs::ServiceOptions options;
  options.sweep.pool = &pool;
  rs::SweepService service(options);
  const auto request = small_sim_request();

  const auto cold = service.simulate(request);
  EXPECT_FALSE(cold.cache_hit);

  std::vector<rs::SimCell> replayed;
  const auto warm = service.simulate(
      request, [&](const rs::SimCell& cell) { replayed.push_back(cell); });
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_FALSE(warm.disk_hit);
  EXPECT_TRUE(rc::tables_bit_identical(*cold.table, *warm.table));
  ASSERT_EQ(replayed.size(), cold.table->cell_count());
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(cell_text(replayed[i]),
              cell_text(cold.table->cells[i]));
  }
  EXPECT_EQ(service.stats().sim_submits, 2u);
  EXPECT_EQ(service.stats().sim_cache_hits, 1u);
}

TEST(Simulate, DiskTierServesAcrossARestartBitIdentically) {
  ScratchDir dir("sim_disk_tier");
  const auto request = small_sim_request();
  std::string before;
  {
    rs::ServiceOptions options;
    options.cache_dir = dir.str();
    rs::SweepService service(options);
    before = rs::to_json_text(*service.simulate(request).table);
  }  // destructor spills the sim tier to cache_dir
  {
    rs::ServiceOptions options;
    options.cache_dir = dir.str();
    rs::SweepService service(options);
    const auto reloaded = service.simulate(request);
    EXPECT_TRUE(reloaded.cache_hit);
    EXPECT_TRUE(reloaded.disk_hit);
    EXPECT_EQ(rs::to_json_text(*reloaded.table), before);
    EXPECT_EQ(service.stats().sim_cells, 0u);
  }
}

TEST(Simulate, CacheCapacityCountsTablesOfBothModes) {
  // One LRU for both modes: at capacity 1 a simulate table evicts the
  // analytic one, and size() counts it.
  rs::SweepCache cache(1);
  cache.insert(rc::GridSignature{1}, std::make_shared<const rc::SweepTable>());
  cache.insert(rc::GridSignature{2}, std::make_shared<const rs::SimTable>());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.find(rc::GridSignature{1}), nullptr);
  EXPECT_NE(cache.find<rs::SimTable>(rc::GridSignature{2}), nullptr);

  // The same through the service and its stats block.
  rs::ServiceOptions options;
  options.cache_capacity = 1;
  rs::SweepService service(options);
  const auto request = small_sim_request();
  rs::ScenarioRequest analytic = request;
  analytic.simulate = false;
  EXPECT_FALSE(service.submit(analytic).cache_hit);
  EXPECT_EQ(service.stats().cache_size, 1u);
  EXPECT_FALSE(service.simulate(request).cache_hit);
  EXPECT_EQ(service.stats().cache_size, 1u);
  EXPECT_TRUE(service.simulate(request).cache_hit);
  EXPECT_FALSE(service.submit(analytic).cache_hit);  // evicted
  EXPECT_EQ(service.stats().tables_computed, 2u);
}

TEST(Simulate, ALookupThatFindsTheOtherModesTableIsAMiss) {
  // Both table types under one forced signature value: the entry holds
  // the last insert, and a lookup asking for the other type misses.
  rs::SweepCache cache(4);
  const rc::GridSignature forced{0x5eed};
  const auto analytic = std::make_shared<const rc::SweepTable>();
  const auto simulate = std::make_shared<const rs::SimTable>();
  cache.insert(forced, analytic);
  EXPECT_EQ(cache.find<rs::SimTable>(forced), nullptr);
  EXPECT_EQ(cache.find(forced), analytic);
  cache.insert(forced, simulate);
  EXPECT_EQ(cache.find(forced), nullptr);
  EXPECT_EQ(cache.find<rs::SimTable>(forced), simulate);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);

  // Through the service: another mode's table, or another request's sim
  // table, parked under the request's signature is recomputed, not served.
  rs::SweepService service;
  const auto request = small_sim_request();
  const rc::GridSignature signature = service.signature_for(request);
  rs::ScenarioRequest analytic_request = request;
  analytic_request.simulate = false;
  service.cache().insert(signature, service.submit(analytic_request).table);
  EXPECT_FALSE(service.simulate(request).cache_hit);
  rs::ScenarioRequest other = request;
  other.sim.seed = 7;
  service.cache().insert(signature, service.simulate(other).table);
  const auto result = service.simulate(request);
  EXPECT_FALSE(result.cache_hit);
  EXPECT_EQ(result.table->header.seed, 42u);
  // The collision recompute was not published over the parked table.
  const auto parked = service.cache().find<rs::SimTable>(signature);
  ASSERT_NE(parked, nullptr);
  EXPECT_EQ(parked->header.seed, 7u);
}

TEST(Simulate, SpillsCopiedAcrossModesAreRejectedNotServed) {
  // A simulate spill copied over an analytic signature's '.json' name,
  // and the reverse: each is rejected and recomputed, never served.
  const auto request = small_sim_request();
  rs::ScenarioRequest analytic = request;
  analytic.simulate = false;
  const auto spill_both = [&](const ScratchDir& dir, rc::GridSignature* a,
                              rc::GridSignature* s) {
    rs::ServiceOptions options;
    options.cache_dir = dir.str();
    rs::SweepService service(options);
    *a = service.submit(analytic).signature;
    *s = service.simulate(request).signature;
  };
  rc::GridSignature analytic_signature;
  rc::GridSignature sim_signature;
  {
    const ScratchDir dir("sim_over_analytic");
    spill_both(dir, &analytic_signature, &sim_signature);
    std::filesystem::copy_file(
        dir.path() / (sim_signature.hex() + ".sim.json"),
        dir.path() / (analytic_signature.hex() + ".json"),
        std::filesystem::copy_options::overwrite_existing);
    rs::ServiceOptions options;
    options.cache_dir = dir.str();
    rs::SweepService service(options);
    const auto result = service.submit(analytic);
    EXPECT_FALSE(result.cache_hit);
    EXPECT_EQ(service.stats().tables_computed, 1u);
    EXPECT_EQ(service.cache().disk_rejects(), 1u);
    EXPECT_TRUE(rc::tables_bit_identical(*result.table,
                                         rc::SweepRunner().run(analytic.grid)));
    EXPECT_TRUE(service.simulate(request).disk_hit);  // its own file
  }
  {
    const ScratchDir dir("analytic_over_sim");
    spill_both(dir, &analytic_signature, &sim_signature);
    std::filesystem::copy_file(
        dir.path() / (analytic_signature.hex() + ".json"),
        dir.path() / (sim_signature.hex() + ".sim.json"),
        std::filesystem::copy_options::overwrite_existing);
    rs::ServiceOptions options;
    options.cache_dir = dir.str();
    rs::SweepService service(options);
    const auto result = service.simulate(request);
    EXPECT_FALSE(result.cache_hit);
    EXPECT_EQ(service.stats().sim_cells, result.table->cells.size());
    EXPECT_EQ(service.cache().disk_rejects(), 1u);
    EXPECT_TRUE(rc::tables_bit_identical(
        *result.table, *submit_at_pool(request, 1).table));
    EXPECT_TRUE(service.submit(analytic).disk_hit);  // its own file
  }
}

TEST(Simulate, SpillFromAnEarlierBuildIsServedAndRewrittenByteForByte) {
  // A simulate spill exactly as an earlier build wrote it, when each mode
  // had its own cache tier (one point, PD, two Weibull shapes). It must be
  // served with zero recomputes, and a fresh compute must spill the very
  // same bytes.
  const std::string name = "8a7e849b16ebad42.sim.json";
  const std::string spill =
      R"({"format":"sim-table-spill-v1","payload_fnv":"ece56320929f195b",)"
      R"("table":{"type":"sim_table","kinds":["PD"],"points":[{)"
      R"("platform_index":0,"node_index":0,"rate_index":0,"cost_index":0,)"
      R"("platform":{"name":"Hera@512","nodes":512,"fail_stop":1.892e-06,)"
      R"("silent":6.76e-06,"disk_checkpoint":300,"memory_checkpoint":15.4},)"
      R"("params":{"costs":{"disk_checkpoint":300,"memory_checkpoint":15.4,)"
      R"("disk_recovery":300,"memory_recovery":15.4,)"
      R"("guaranteed_verification":15.4,"partial_verification":0.154,)"
      R"("recall":0.8},"rates":{"fail_stop":1.892e-06,"silent":6.76e-06}}}],)"
      R"("sim":{"seed":42,"target_ci":0.05,"max_runs":32,"min_runs":16,)"
      R"("patterns_per_run":20,"weibull_shape":[1,0.7],"faulty_ops":[1]},)"
      R"("cells":[{"point":0,"kind":"PD","weibull_shape":1,"faulty_ops":1,)"
      R"("mean":0.11379381604936306,"ci_low":0.08849128200219245,)"
      R"("ci_high":0.13909635009653368,"runs":32,"early_stopped":false},)"
      R"({"point":0,"kind":"PD","weibull_shape":0.7,"faulty_ops":1,)"
      R"("mean":0.13800812931745127,"ci_low":0.10617558871990154,)"
      R"("ci_high":0.169840669915001,"runs":32,"early_stopped":false}]}})";
  rs::ScenarioRequest request;
  request.grid.platforms = {rc::hera()};
  request.grid.node_counts = {512};
  request.grid.kinds = {rc::PatternKind::kD};
  request.simulate = true;
  request.sim.seed = 42;
  request.sim.target_ci = 0.05;
  request.sim.min_runs = 16;
  request.sim.max_runs = 32;
  request.sim.patterns_per_run = 20;
  request.sim.weibull_shape = {1.0, 0.7};
  request.sim.faulty_ops = {1.0};

  {
    const ScratchDir dir("sim_spill_served");
    std::ofstream(dir.path() / name) << spill;
    rs::ServiceOptions options;
    options.cache_dir = dir.str();
    rs::SweepService service(options);
    const auto result = service.simulate(request);
    EXPECT_TRUE(result.cache_hit);
    EXPECT_TRUE(result.disk_hit);
    EXPECT_EQ(result.signature.hex() + ".sim.json", name);
    EXPECT_EQ(service.stats().sim_cells, 0u);
    EXPECT_EQ(service.cache().disk_rejects(), 0u);
    ASSERT_EQ(result.table->cells.size(), 2u);
    EXPECT_EQ(cell_text(result.table->cells[1]),
              R"({"point":0,"kind":"PD","weibull_shape":0.7,"faulty_ops":1,)"
              R"("mean":0.13800812931745127,"ci_low":0.10617558871990154,)"
              R"("ci_high":0.169840669915001,"runs":32,"early_stopped":false})");
  }
  {
    const ScratchDir dir("sim_spill_written");
    {
      rs::ServiceOptions options;
      options.cache_dir = dir.str();
      rs::SweepService service(options);
      EXPECT_FALSE(service.simulate(request).cache_hit);
    }  // shutdown spills
    std::ifstream in(dir.path() / name, std::ios::binary);
    std::stringstream written;
    written << in.rdbuf();
    EXPECT_EQ(written.str(), spill);
  }
}

TEST(Simulate, EachEntryPointRejectsTheOtherMode) {
  rs::SweepService service;
  const auto request = small_sim_request();
  EXPECT_THROW(service.submit(request), std::invalid_argument);
  auto analytic = request;
  analytic.simulate = false;
  EXPECT_THROW(service.simulate(analytic), std::invalid_argument);
  const rs::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submits + stats.sim_submits, 0u);
  EXPECT_EQ(stats.cache_size, 0u);
}

// -------------------------------------------------- the one reuse ladder --

TEST(Simulate, ConcurrentIdenticalSubmissionsComputeOnce) {
  ru::ThreadPool pool(2);
  rs::ServiceOptions options;
  options.sweep.pool = &pool;
  rs::SweepService service(options);
  const auto request = small_sim_request();

  constexpr std::size_t kThreads = 6;
  std::vector<rs::SimSubmitResult> results(kThreads);
  std::vector<std::vector<std::string>> streamed(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        results[i] = service.simulate(request, [&, i](const rs::SimCell& cell) {
          streamed[i].push_back(cell_text(cell));
        });
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
  }

  // However the submissions interleaved, exactly one campaign ran, every
  // caller got the same table, and every stream is the table in order.
  const rs::ServiceStats stats = service.stats();
  ASSERT_NE(results[0].table, nullptr);
  EXPECT_EQ(stats.sim_cells, results[0].table->cell_count());
  EXPECT_EQ(stats.sim_submits, kThreads);
  EXPECT_EQ(stats.sim_cache_hits + stats.joined_in_flight, kThreads - 1);
  std::vector<std::string> table_order;
  for (const rs::SimCell& cell : results[0].table->cells) {
    table_order.push_back(cell_text(cell));
  }
  for (std::size_t i = 0; i < kThreads; ++i) {
    ASSERT_NE(results[i].table, nullptr);
    EXPECT_TRUE(rc::tables_bit_identical(*results[0].table,
                                         *results[i].table));
    EXPECT_EQ(streamed[i], table_order) << "caller " << i;
  }
}

TEST(Simulate, DeadlineExpiryCountsInDeadlineTimeouts) {
  // An error storm (operations at 10000x the fail-stop rate) never
  // finishes; its deadline must fire inside the run and be counted.
  rs::SweepService service;
  const auto request = storm_request();
  rc::CancelToken cancel;
  cancel.set_deadline(std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(50));
  EXPECT_THROW(service.simulate(request, nullptr, cancel), rc::SweepCancelled);
  EXPECT_EQ(service.stats().deadline_timeouts, 1u);
  EXPECT_EQ(service.stats().cache_size, 0u);  // nothing published
}

TEST(Simulate, AJoinersDeadlineFiresWhileItsLeaderRuns) {
  // The leader has no deadline (only a flag this test sets at the end);
  // an identical request with a deadline must not wait for it.
  rs::SweepService service;
  const auto request = storm_request();
  auto stop = std::make_shared<std::atomic<bool>>(false);
  std::thread leader([&] {
    EXPECT_THROW(service.simulate(request, nullptr, rc::CancelToken(stop)),
                 rc::SweepCancelled);
  });
  while (service.stats().sim_submits == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  rc::CancelToken deadline;
  deadline.set_deadline(std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(50));
  EXPECT_THROW(service.simulate(request, nullptr, deadline),
               rc::SweepCancelled);
  stop->store(true);
  leader.join();
  // The joiner's expiry counts; the leader's flag cancellation does not.
  EXPECT_EQ(service.stats().deadline_timeouts, 1u);
}

// ----------------------------------------------------------- cost model --

TEST(CostModel, SimulateRequestsPriceByRunBudgetThenReplay) {
  ru::ThreadPool pool(2);
  rs::ServiceOptions options;
  options.sweep.pool = &pool;
  rs::SweepService service(options);
  const auto request = small_sim_request();

  const rs::CostEstimate cold =
      rs::estimate_cost(rs::resolve_request(request), &service);
  const std::size_t sim_cells = 2 * 2 * 2 * 2;
  EXPECT_EQ(cold.cells, sim_cells);
  EXPECT_FALSE(cold.identity_hit);
  const double per_cell = std::max(
      rs::kCostFirstOrderCell,
      static_cast<double>(request.sim.max_runs * request.sim.patterns_per_run) /
          rs::kCostSimDrawsPerUnit);
  EXPECT_DOUBLE_EQ(cold.units, static_cast<double>(sim_cells) * per_cell);

  service.simulate(request);
  const rs::CostEstimate warm =
      rs::estimate_cost(rs::resolve_request(request), &service);
  EXPECT_TRUE(warm.identity_hit);
  EXPECT_DOUBLE_EQ(warm.units,
                   static_cast<double>(sim_cells) * rs::kCostReplayCell);
  EXPECT_LT(warm.units, cold.units);
}

// ------------------------------------------------------------- session --

namespace {

struct SessionCapture {
  std::vector<std::string> lines;
  std::vector<bool> terminal;

  rs::JsonlSession::LineFn fn() {
    return [this](std::string&& line, bool end_of_response) {
      lines.push_back(std::move(line));
      terminal.push_back(end_of_response);
    };
  }
};

}  // namespace

TEST(JsonlSessionSim, StreamsCellsThenASimulateDoneLine) {
  rs::SweepService service;
  SessionCapture capture;
  rs::JsonlSession session(service, capture.fn());
  session.handle_line(small_sim_request_line());

  const std::size_t cells = 2 * 2 * 2 * 2;
  ASSERT_EQ(capture.lines.size(), cells + 1);
  for (std::size_t i = 0; i < cells; ++i) {
    EXPECT_NE(capture.lines[i].find("\"type\":\"cell\""), std::string::npos);
    EXPECT_NE(capture.lines[i].find("\"mean\":"), std::string::npos);
    EXPECT_NE(capture.lines[i].find("\"ci_low\":"), std::string::npos);
    EXPECT_FALSE(capture.terminal[i]);
  }
  const std::string& done = capture.lines.back();
  EXPECT_NE(done.find("\"type\":\"done\""), std::string::npos);
  EXPECT_NE(done.find("\"mode\":\"simulate\""), std::string::npos);
  EXPECT_NE(done.find("\"runs\":"), std::string::npos);
  EXPECT_TRUE(capture.terminal.back());
  EXPECT_FALSE(session.any_request_errors());
}

TEST(JsonlSessionSim, StatsOptInAppendsASimBlock) {
  rs::SweepService service;
  SessionCapture capture;
  rs::JsonlSession session(service, capture.fn());
  auto request = small_sim_request();
  request.include_stats = true;
  session.handle_line(request.to_json().dump());

  const std::string& done = capture.lines.back();
  EXPECT_NE(done.find("\"stats\":"), std::string::npos) << done;
  EXPECT_NE(done.find("\"sim\":"), std::string::npos) << done;
  EXPECT_NE(done.find("\"runs_per_second\":"), std::string::npos) << done;
}

TEST(JsonlSessionSim, ServerCapAnswersALocatedErrorBeforeAnyCompute) {
  rs::SweepService service;
  SessionCapture capture;
  rs::JsonlSession::Options options;
  options.sim_max_runs = 50;
  rs::JsonlSession session(service, capture.fn(), options);
  session.handle_line(small_sim_request_line());  // max_runs 96 > cap 50

  ASSERT_EQ(capture.lines.size(), 1u);
  const std::string& line = capture.lines[0];
  EXPECT_NE(line.find("\"type\":\"error\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"field\":\"sim.max_runs\""), std::string::npos) << line;
  EXPECT_TRUE(session.any_request_errors());
  EXPECT_EQ(service.stats().sim_submits, 0u);

  // A request within the cap still serves.
  auto request = small_sim_request();
  request.sim.min_runs = 16;
  request.sim.max_runs = 32;
  session.handle_line(request.to_json().dump());
  EXPECT_NE(capture.lines.back().find("\"type\":\"done\""), std::string::npos);
}

// ------------------------------------------------------- serialization --

TEST(SimSerialization, TableRoundTripIsBitAndByteIdentical) {
  const auto result = submit_at_pool(small_sim_request(), 2);
  const std::string dumped = rs::to_json_text(*result.table);
  const rs::SimTable reparsed =
      rs::table_from_json<rs::SimTable>(ru::JsonValue::parse(dumped));
  EXPECT_TRUE(rc::tables_bit_identical(*result.table, reparsed));
  EXPECT_EQ(rs::to_json_text(reparsed), dumped);

  // And one cell on its own.
  const rs::SimCell& cell = result.table->cells.front();
  const std::string cell_dump = cell_text(cell);
  const rs::SimCell cell_back =
      rs::cell_from_json<rs::SimCell>(ru::JsonValue::parse(cell_dump));
  EXPECT_EQ(cell_text(cell_back), cell_dump);
}
