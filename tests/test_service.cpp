// Tests for the service layer: request parsing/validation with
// field-naming errors, grid signatures, the LRU table cache (hits
// bit-identical to recomputes at several pool sizes), streaming delivery
// (exact cell set, no dupes/drops), in-flight dedupe, and the
// byte-identical JSON round trips of tables and of every result line.

#include "resilience/service/sweep_service.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "resilience/service/cost_model.hpp"
#include "resilience/service/jsonl_session.hpp"
#include "resilience/service/scenario_request.hpp"
#include "resilience/service/serialize.hpp"
#include "resilience/service/sim_service.hpp"
#include "resilience/service/sim_table.hpp"
#include "resilience/util/thread_pool.hpp"

namespace rc = resilience::core;
namespace rs = resilience::service;
namespace ru = resilience::util;

namespace {

/// Small but non-trivial grid: 2 platforms x 2 node counts x 2 families.
rc::ScenarioGrid small_grid() {
  rc::ScenarioGrid grid;
  grid.platforms = {rc::hera(), rc::atlas()};
  grid.node_counts = {512, 2048};
  grid.kinds = {rc::PatternKind::kD, rc::PatternKind::kDMV};
  return grid;
}

/// A grid whose exact optima sit far below the first-order W*: at a
/// thousandfold error rate and a 3000 s disk checkpoint, some lattice
/// cells' W searches land on the lower edge of the tight [W*/50, 50 W*]
/// bracket and re-run on the full bracket.
rc::ScenarioGrid pinned_edge_grid() {
  rc::ScenarioGrid grid;
  grid.platforms = {rc::hera()};
  grid.node_counts = {65536};
  grid.rate_factors = {{1000.0, 1000.0}};
  grid.cost_overrides = {{3000.0, -1.0, -1.0}};
  return grid;  // all six families
}

/// A small simulate request (one point, one family, two shapes) for the
/// persistence tests that cover both spill formats.
rs::ScenarioRequest small_sim_request() {
  rs::ScenarioRequest request;
  request.grid.platforms = {rc::hera()};
  request.grid.node_counts = {512};
  request.grid.kinds = {rc::PatternKind::kD};
  request.simulate = true;
  request.sim.seed = 42;
  request.sim.min_runs = 16;
  request.sim.max_runs = 32;
  request.sim.patterns_per_run = 20;
  request.sim.weibull_shape = {1.0, 0.7};
  return request;
}

/// The simulate table a fresh, cache-less service computes for `request`.
std::shared_ptr<const rs::SimTable> cold_sim_table(
    const rs::ScenarioRequest& request) {
  rs::ServiceOptions options;
  options.cache_capacity = 0;
  return rs::SweepService(options).sim().submit(request).table;
}

/// Collects streamed cells for set comparisons.
class CollectSink final : public rc::CellSink {
 public:
  void on_cell(const rc::SweepCell& cell) override { cells_.push_back(cell); }
  [[nodiscard]] const std::vector<rc::SweepCell>& cells() const noexcept {
    return cells_;
  }

 private:
  std::vector<rc::SweepCell> cells_;
};

/// RAII scratch directory under the test working directory (never /tmp:
/// the persistence tests must stay inside the build tree).
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(std::filesystem::path("sweep_cache_test") / name) {
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

/// Exact cell-set equality: every table cell streamed exactly once,
/// bit-identical; nothing extra.
void expect_exact_cell_set(const rc::SweepTable& table,
                           const std::vector<rc::SweepCell>& streamed) {
  ASSERT_EQ(streamed.size(), table.cells.size());
  std::vector<int> seen(table.cells.size(), 0);
  for (const rc::SweepCell& cell : streamed) {
    const rc::SweepCell& expected = table.cell(cell.point_index, cell.kind);
    EXPECT_TRUE(rc::cells_bit_identical(cell, expected))
        << "cell (" << cell.point_index << ", "
        << rc::pattern_name(cell.kind) << ")";
    const std::size_t flat = &expected - table.cells.data();
    ++seen[flat];
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "cell " << i << " delivered " << seen[i]
                          << " times";
  }
}

}  // namespace

// ---------------------------------------------------------- signatures --

TEST(GridSignature, StableAcrossCallsAndHexFormatted) {
  const auto grid = small_grid();
  const rc::SweepOptions options;
  const auto a = rc::grid_signature(grid, options);
  const auto b = rc::grid_signature(grid, options);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hex().size(), 16u);
  EXPECT_EQ(a.hex(), b.hex());
}

TEST(GridSignature, SensitiveToContentNotSchedule) {
  const auto grid = small_grid();
  rc::SweepOptions options;
  const auto base = rc::grid_signature(grid, options);

  // Execution policy must NOT change the signature (results are pinned
  // identical across pools and warm/cold starts).
  rc::SweepOptions policy = options;
  policy.warm_start = false;
  policy.warm_scan_radius = 3;
  ru::ThreadPool pool(2);
  policy.pool = &pool;
  EXPECT_EQ(rc::grid_signature(grid, policy), base);

  // Anything observable must.
  auto changed = grid;
  changed.node_counts[1] = 4096;
  EXPECT_NE(rc::grid_signature(changed, options), base);

  changed = grid;
  changed.kinds = {rc::PatternKind::kD};
  EXPECT_NE(rc::grid_signature(changed, options), base);

  changed = grid;
  rc::CostOverride cd;
  cd.disk_checkpoint = 90.0;
  changed.cost_overrides = {cd};
  EXPECT_NE(rc::grid_signature(changed, options), base);

  rc::SweepOptions no_numeric = options;
  no_numeric.numeric_optimum = false;
  EXPECT_NE(rc::grid_signature(grid, no_numeric), base);

  rc::SweepOptions tighter = options;
  tighter.optimizer.max_chunks = 16;
  EXPECT_NE(rc::grid_signature(grid, tighter), base);
}

// ------------------------------------------------------------ requests --

TEST(ScenarioRequest, ParsesCatalogAndCustomPlatforms) {
  const auto request = rs::ScenarioRequest::parse(R"({
    "id": "r1",
    "platforms": ["hera",
                  {"name": "lab", "nodes": 4096, "fail_stop": 2.3e-7,
                   "silent": 1.8e-7, "disk_checkpoint": 120.0,
                   "memory_checkpoint": 5.0}],
    "node_counts": [1024, 4096],
    "rate_factors": [{"fail_stop": 2.0}],
    "cost_overrides": [{"disk_checkpoint": 90.0}],
    "kinds": ["PD", "PDMV*"],
    "numeric_optimum": false})");
  EXPECT_EQ(request.id, "r1");
  ASSERT_EQ(request.grid.platforms.size(), 2u);
  EXPECT_EQ(request.grid.platforms[0].name, "Hera");
  EXPECT_EQ(request.grid.platforms[1].name, "lab");
  EXPECT_EQ(request.grid.platforms[1].nodes, 4096u);
  EXPECT_EQ(request.grid.node_counts, (std::vector<std::size_t>{1024, 4096}));
  ASSERT_EQ(request.grid.rate_factors.size(), 1u);
  EXPECT_DOUBLE_EQ(request.grid.rate_factors[0].fail_stop, 2.0);
  EXPECT_DOUBLE_EQ(request.grid.rate_factors[0].silent, 1.0);  // default
  ASSERT_EQ(request.grid.cost_overrides.size(), 1u);
  EXPECT_DOUBLE_EQ(request.grid.cost_overrides[0].disk_checkpoint, 90.0);
  EXPECT_DOUBLE_EQ(request.grid.cost_overrides[0].recall, -1.0);  // sentinel
  EXPECT_EQ(request.grid.kinds,
            (std::vector<rc::PatternKind>{rc::PatternKind::kD,
                                          rc::PatternKind::kDMVg}));
  EXPECT_FALSE(request.numeric_optimum);
}

TEST(ScenarioRequest, ErrorsNameTheOffendingField) {
  const auto field_of = [](const std::string& text) {
    try {
      (void)rs::ScenarioRequest::parse(text);
    } catch (const rs::RequestError& error) {
      return error.field;
    }
    return std::string("<no error>");
  };

  // Unknown field (typo).
  EXPECT_EQ(field_of(R"({"platfroms": ["hera"]})"), "platfroms");
  // Wrong type.
  EXPECT_EQ(field_of(R"({"platforms": "hera"})"), "platforms");
  EXPECT_EQ(field_of(R"({"platforms": ["hera"], "numeric_optimum": 1})"),
            "numeric_optimum");
  EXPECT_EQ(field_of(R"({"platforms": ["hera"], "node_counts": [0]})"),
            "node_counts[0]");
  EXPECT_EQ(field_of(R"({"platforms": ["hera"], "node_counts": [512, "x"]})"),
            "node_counts[1]");
  // Empty platform axis.
  EXPECT_EQ(field_of(R"({"platforms": []})"), "platforms");
  // Missing platform axis.
  EXPECT_EQ(field_of(R"({"id": "r"})"), "platforms");
  // Unknown catalog name / bad custom platform fields.
  EXPECT_EQ(field_of(R"({"platforms": ["nonesuch"]})"), "platforms[0]");
  EXPECT_EQ(field_of(R"({"platforms": [{"nodes": 16}]})"),
            "platforms[0].fail_stop");
  EXPECT_EQ(
      field_of(
          R"({"platforms": [{"nodes": 16, "fail_stop": 1e-7, "silent": 1e-7,
              "disk_checkpoint": -3, "memory_checkpoint": 5}]})"),
      "platforms[0].disk_checkpoint");
  // Unknown pattern family.
  EXPECT_EQ(field_of(R"({"platforms": ["hera"], "kinds": ["PDX"]})"),
            "kinds[0]");
  // Unknown member inside an override object.
  EXPECT_EQ(field_of(
                R"({"platforms": ["hera"], "cost_overrides": [{"recal": 1}]})"),
            "cost_overrides[0].recal");
  // Invalid JSON altogether.
  EXPECT_EQ(field_of("{"), "");
}

TEST(ScenarioRequest, GridValidationNamesAxisAndIndex) {
  const auto message_of = [](const std::string& text) {
    try {
      (void)rs::ScenarioRequest::parse(text);
    } catch (const rs::RequestError& error) {
      return std::string(error.what());
    }
    return std::string("<no error>");
  };
  EXPECT_NE(message_of(R"({"platforms": ["hera"],
                           "rate_factors": [{"fail_stop": 1.0},
                                            {"fail_stop": -2.0}]})")
                .find("rate_factors[1]"),
            std::string::npos);
  EXPECT_NE(message_of(R"({"platforms": ["hera"],
                           "cost_overrides": [{"recall": -0.5}]})")
                .find("cost_overrides[0]"),
            std::string::npos);
}

TEST(ScenarioGridValidate, RejectsBadAxesDirectly) {
  auto grid = small_grid();
  grid.node_counts[0] = 0;
  EXPECT_THROW(grid.validate(), std::invalid_argument);
  try {
    grid.validate();
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("node_counts[0]"),
              std::string::npos);
  }

  grid = small_grid();
  grid.rate_factors.push_back({1.0, 0.0});
  EXPECT_THROW(grid.validate(), std::invalid_argument);

  grid = small_grid();
  rc::CostOverride bad;
  bad.partial_verification = -2.0;  // negative but not the -1 sentinel
  grid.cost_overrides.push_back(bad);
  EXPECT_THROW(grid.validate(), std::invalid_argument);

  // The exact sentinel stays legal.
  grid = small_grid();
  rc::CostOverride sentinel;  // all fields -1
  grid.cost_overrides.push_back(sentinel);
  EXPECT_NO_THROW(grid.validate());
}

// ----------------------------------------------------- cache + service --

TEST(SweepCache, HitIsBitIdenticalToRecomputeAcrossPoolSizes) {
  const auto grid = small_grid();
  rs::SweepService service;

  const rs::SubmitResult cold = service.submit(grid);
  EXPECT_FALSE(cold.cache_hit);
  const rs::SubmitResult cached = service.submit(grid);
  EXPECT_TRUE(cached.cache_hit);
  EXPECT_EQ(cached.signature, cold.signature);
  EXPECT_TRUE(rc::tables_bit_identical(*cold.table, *cached.table));

  // The cached table must equal a from-scratch recompute at every pool
  // size (cold, cached and pools of 1/2/8 all bit-identical).
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ru::ThreadPool pool(threads);
    rc::SweepOptions options;
    options.pool = &pool;
    const rc::SweepTable recomputed = rc::SweepRunner(options).run(grid);
    EXPECT_TRUE(rc::tables_bit_identical(*cached.table, recomputed))
        << "pool size " << threads;
  }
  EXPECT_EQ(service.tables_computed(), 1u);
}

TEST(SweepCache, EvictsLeastRecentlyUsed) {
  rs::SweepCache cache(2);
  const auto table = std::make_shared<const rc::SweepTable>();
  cache.insert(rc::GridSignature{1}, table);
  cache.insert(rc::GridSignature{2}, table);
  EXPECT_NE(cache.find(rc::GridSignature{1}), nullptr);  // 1 now most recent
  cache.insert(rc::GridSignature{3}, table);             // evicts 2
  EXPECT_EQ(cache.find(rc::GridSignature{2}), nullptr);
  EXPECT_NE(cache.find(rc::GridSignature{1}), nullptr);
  EXPECT_NE(cache.find(rc::GridSignature{3}), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(SweepCache, ZeroCapacityDisablesCaching) {
  rs::ServiceOptions options;
  options.cache_capacity = 0;
  rs::SweepService service(options);
  const auto grid = small_grid();
  EXPECT_FALSE(service.submit(grid).cache_hit);
  EXPECT_FALSE(service.submit(grid).cache_hit);
  EXPECT_EQ(service.tables_computed(), 2u);
}

// ---------------------------------------------------- cross-grid reuse --

TEST(SeedReuse, RelatedGridsBitIdenticalToColdAcrossPoolSizes) {
  // ISSUE 4's three cross-grid scenarios through the full service path:
  // extended axis (base points recur bit-equal -> value reuse), perturbed
  // axis and disjoint axis (chains match, points differ -> seed-only).
  // Every reused table must equal its cold sweep bit for bit.
  const auto base = small_grid();
  auto extended = base;
  extended.node_counts.push_back(8192);
  auto perturbed = base;
  perturbed.node_counts[1] = 3000;
  auto disjoint = base;
  disjoint.node_counts = {1024, 16384};

  for (const auto* variant : {&extended, &perturbed, &disjoint}) {
    const rc::SweepTable cold = rc::SweepRunner().run(*variant);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ru::ThreadPool pool(threads);
      rs::ServiceOptions options;
      options.sweep.pool = &pool;
      rs::SweepService service(options);

      const rs::SubmitResult first = service.submit(base);
      EXPECT_FALSE(first.cache_hit);
      EXPECT_FALSE(first.seeded);  // nothing cached yet

      CollectSink sink;
      const rs::SubmitResult reused = service.submit(*variant, &sink);
      EXPECT_FALSE(reused.cache_hit) << "pool " << threads;
      EXPECT_TRUE(reused.seeded) << "pool " << threads;
      EXPECT_TRUE(rc::tables_bit_identical(*reused.table, cold))
          << "pool " << threads;
      expect_exact_cell_set(*reused.table, sink.cells());
      EXPECT_GE(service.cache().seed_hits(), 1u) << "pool " << threads;
    }
  }
}

TEST(SeedReuse, RequestFlagOptsOut) {
  rs::SweepService service;
  const auto base = small_grid();
  (void)service.submit(base);

  auto request = rs::ScenarioRequest::parse(R"({
    "platforms": ["hera", "atlas"], "node_counts": [512, 2048, 8192],
    "kinds": ["PD", "PDMV"], "reuse_seeds": false})");
  EXPECT_FALSE(request.reuse_seeds);
  const rs::SubmitResult cold = service.submit(request);
  EXPECT_FALSE(cold.seeded);

  // The same grid with the flag on (a fresh signature is not needed —
  // the cache hit short-circuits, so use a different extension).
  request = rs::ScenarioRequest::parse(R"({
    "platforms": ["hera", "atlas"], "node_counts": [512, 2048, 16384],
    "kinds": ["PD", "PDMV"]})");
  EXPECT_TRUE(request.reuse_seeds);
  const rs::SubmitResult seeded = service.submit(request);
  EXPECT_TRUE(seeded.seeded);
  // Either way: bit-identical to a cold sweep of the request grid.
  EXPECT_TRUE(rc::tables_bit_identical(
      *seeded.table, rc::SweepRunner().run(request.grid)));
}

// --------------------------------------------------------- persistence --

TEST(Persistence, EvictionSpillsAndReloadsByteIdentical) {
  ScratchDir dir("evict_reload");
  rs::ServiceOptions options;
  options.cache_capacity = 1;
  options.cache_dir = dir.str();
  rs::SweepService service(options);

  const auto grid_a = small_grid();
  auto grid_b = small_grid();
  grid_b.node_counts = {1024};

  const rs::SubmitResult first = service.submit(grid_a);
  const std::string before = rs::to_json_text(*first.table);
  (void)service.submit(grid_b);  // capacity 1: evicts + spills grid_a
  EXPECT_TRUE(std::filesystem::exists(
      dir.path() / (first.signature.hex() + ".json")));

  const rs::SubmitResult reloaded = service.submit(grid_a);
  EXPECT_TRUE(reloaded.cache_hit);
  EXPECT_TRUE(reloaded.disk_hit);
  EXPECT_EQ(service.tables_computed(), 2u);  // reload did not recompute
  EXPECT_TRUE(rc::tables_bit_identical(*first.table, *reloaded.table));
  EXPECT_EQ(rs::to_json_text(*reloaded.table), before);  // byte-identical
}

TEST(Persistence, RestartKeepsIdentityCacheAndSeedIndex) {
  ScratchDir dir("restart");
  const auto base = small_grid();
  auto extended = base;
  extended.node_counts.push_back(8192);

  std::string before;
  {
    rs::ServiceOptions options;
    options.cache_dir = dir.str();
    rs::SweepService service(options);
    before = rs::to_json_text(*service.submit(base).table);
  }  // shutdown spills the LRU + seed sidecar
  EXPECT_TRUE(std::filesystem::exists(dir.path() / "seed_index.json"));

  rs::ServiceOptions options;
  options.cache_dir = dir.str();
  rs::SweepService service(options);

  // Identity tier: the exact grid reloads lazily, zero recomputes.
  const rs::SubmitResult reloaded = service.submit(base);
  EXPECT_TRUE(reloaded.cache_hit);
  EXPECT_TRUE(reloaded.disk_hit);
  EXPECT_EQ(service.tables_computed(), 0u);
  EXPECT_EQ(rs::to_json_text(*reloaded.table), before);

  // Seed tier: a related grid warm-starts from the reloaded entry.
  const rs::SubmitResult seeded = service.submit(extended);
  EXPECT_TRUE(seeded.seeded);
  EXPECT_TRUE(rc::tables_bit_identical(*seeded.table,
                                       rc::SweepRunner().run(extended)));
}

TEST(Persistence, SeedIndexAloneSeedsAcrossRestart) {
  // Even without an identity hit first, the sidecar lets a restarted
  // server seed a *different* grid straight from disk.
  ScratchDir dir("seed_from_disk");
  const auto base = small_grid();
  auto extended = base;
  extended.node_counts.push_back(8192);
  {
    rs::ServiceOptions options;
    options.cache_dir = dir.str();
    rs::SweepService service(options);
    (void)service.submit(base);
  }
  rs::ServiceOptions options;
  options.cache_dir = dir.str();
  rs::SweepService service(options);
  const rs::SubmitResult seeded = service.submit(extended);
  EXPECT_FALSE(seeded.cache_hit);
  EXPECT_TRUE(seeded.seeded);
  EXPECT_GE(service.cache().disk_loads(), 1u);
  EXPECT_TRUE(rc::tables_bit_identical(*seeded.table,
                                       rc::SweepRunner().run(extended)));
}

TEST(Persistence, CorruptSpillIsRejectedNotServed) {
  // Two corruption shapes, both must be rejected: a tampered *input*
  // field (the recomputed content signature no longer matches the
  // filename) and a tampered *result* field (inputs re-hash clean — only
  // the payload checksum can catch it).
  const auto tamper = [](const std::filesystem::path& file,
                         const std::string& needle,
                         const std::string& replacement) {
    std::ifstream in(file);
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string text = buffer.str();
    const auto at = text.find(needle);
    ASSERT_NE(at, std::string::npos) << needle;
    text.replace(at, needle.size(), replacement);
    std::ofstream out(file, std::ios::trunc);
    out << text;
  };

  const auto expect_rejected = [&](const char* name, const std::string& needle,
                                   const std::string& replacement) {
    ScratchDir dir(name);
    const auto grid = small_grid();
    rc::GridSignature signature;
    {
      rs::ServiceOptions options;
      options.cache_dir = dir.str();
      rs::SweepService service(options);
      signature = service.submit(grid).signature;
    }
    const std::filesystem::path file =
        dir.path() / (signature.hex() + ".json");
    ASSERT_TRUE(std::filesystem::exists(file));
    tamper(file, needle, replacement);

    rs::ServiceOptions options;
    options.cache_dir = dir.str();
    rs::SweepService service(options);
    const rs::SubmitResult result = service.submit(grid);
    EXPECT_FALSE(result.cache_hit) << name;  // recomputed, never served
    EXPECT_EQ(service.tables_computed(), 1u) << name;
    EXPECT_GE(service.cache().disk_rejects(), 1u) << name;
    EXPECT_TRUE(
        rc::tables_bit_identical(*result.table, rc::SweepRunner().run(grid)))
        << name;
  };

  expect_rejected("corrupt_input", "\"nodes\":512", "\"nodes\":513");
  expect_rejected("corrupt_result", "\"segments_n\":", "\"segments_n\":9");

  // The same two shapes in a simulate spill.
  const auto expect_sim_rejected = [&](const char* name,
                                       const std::string& needle,
                                       const std::string& replacement) {
    ScratchDir dir(name);
    const rs::ScenarioRequest request = small_sim_request();
    rc::GridSignature signature;
    {
      rs::ServiceOptions options;
      options.cache_dir = dir.str();
      rs::SweepService service(options);
      signature = service.sim().submit(request).signature;
    }
    const std::filesystem::path file =
        dir.path() / (signature.hex() + ".sim.json");
    ASSERT_TRUE(std::filesystem::exists(file));
    tamper(file, needle, replacement);

    rs::ServiceOptions options;
    options.cache_dir = dir.str();
    rs::SweepService service(options);
    const rs::SimSubmitResult result = service.sim().submit(request);
    EXPECT_FALSE(result.cache_hit) << name;  // recomputed, never served
    EXPECT_EQ(service.sim().cells_computed(), result.table->cells.size())
        << name;
    EXPECT_GE(service.cache().disk_rejects(), 1u) << name;
    EXPECT_TRUE(rs::sim_tables_bit_identical(*result.table,
                                             *cold_sim_table(request)))
        << name;
  };

  expect_sim_rejected("sim_corrupt_input", "\"nodes\":512", "\"nodes\":513");
  expect_sim_rejected("sim_corrupt_result", "\"mean\":", "\"mean\":9");
}

TEST(Persistence, ForeignSpillUnderWrongNameIsRejected) {
  // A valid table file parked under another grid's signature (e.g. a
  // mis-copied cache directory) must be recomputed, not served.
  ScratchDir dir("foreign");
  const auto grid_a = small_grid();
  auto grid_b = small_grid();
  grid_b.node_counts = {1024};
  rc::GridSignature signature_a;
  rc::GridSignature signature_b;
  {
    rs::ServiceOptions options;
    options.cache_dir = dir.str();
    rs::SweepService service(options);
    signature_a = service.submit(grid_a).signature;
    signature_b = service.submit(grid_b).signature;
  }
  // Overwrite A's file with B's content.
  std::filesystem::copy_file(dir.path() / (signature_b.hex() + ".json"),
                             dir.path() / (signature_a.hex() + ".json"),
                             std::filesystem::copy_options::overwrite_existing);

  rs::ServiceOptions options;
  options.cache_dir = dir.str();
  rs::SweepService service(options);
  const rs::SubmitResult result = service.submit(grid_a);
  EXPECT_FALSE(result.cache_hit);
  EXPECT_GE(service.cache().disk_rejects(), 1u);
  EXPECT_TRUE(
      rc::tables_bit_identical(*result.table, rc::SweepRunner().run(grid_a)));

  // The same for simulate spills: B's table under A's '.sim.json' name.
  ScratchDir sim_dir("foreign_sim");
  const rs::ScenarioRequest sim_a = small_sim_request();
  rs::ScenarioRequest sim_b = small_sim_request();
  sim_b.sim.seed = 43;
  rc::GridSignature sim_signature_a;
  rc::GridSignature sim_signature_b;
  {
    rs::ServiceOptions sim_options;
    sim_options.cache_dir = sim_dir.str();
    rs::SweepService sim_service(sim_options);
    sim_signature_a = sim_service.sim().submit(sim_a).signature;
    sim_signature_b = sim_service.sim().submit(sim_b).signature;
  }
  std::filesystem::copy_file(
      sim_dir.path() / (sim_signature_b.hex() + ".sim.json"),
      sim_dir.path() / (sim_signature_a.hex() + ".sim.json"),
      std::filesystem::copy_options::overwrite_existing);

  rs::ServiceOptions sim_options;
  sim_options.cache_dir = sim_dir.str();
  rs::SweepService sim_service(sim_options);
  const rs::SimSubmitResult sim_result = sim_service.sim().submit(sim_a);
  EXPECT_FALSE(sim_result.cache_hit);
  EXPECT_GE(sim_service.cache().disk_rejects(), 1u);
  EXPECT_TRUE(
      rs::sim_tables_bit_identical(*sim_result.table, *cold_sim_table(sim_a)));
}

TEST(Persistence, SpillFromTheGoldenSectionFormatIsRejectedNotServed) {
  // A cache directory written by the previous format version (signature
  // and chain-key tag 1, golden-section W search): the one-cell table
  // below and its seed sidecar, byte for byte as that build spilled them.
  // Its cells differ from this build's in the last bits, so neither the
  // table nor its chain optima may ever be served or reused.
  const std::string v1_signature = "8f1c0b48e6a3fd79";
  const std::string v1_table =
      R"({"format":"sweep-table-spill-v1","payload_fnv":"4e3c98f723af349b",)"
      R"("table":{"type":"sweep_table","kinds":["PD"],"points":[{)"
      R"("platform_index":0,"node_index":0,"rate_index":0,"cost_index":0,)"
      R"("platform":{"name":"Hera@512","nodes":512,"fail_stop":1.892e-06,)"
      R"("silent":6.76e-06,"disk_checkpoint":300,"memory_checkpoint":15.4},)"
      R"("params":{"costs":{"disk_checkpoint":300,"memory_checkpoint":15.4,)"
      R"("disk_recovery":300,"memory_recovery":15.4,)"
      R"("guaranteed_verification":15.4,"partial_verification":0.154,)"
      R"("recall":0.8},"rates":{"fail_stop":1.892e-06,"silent":6.76e-06}}}],)"
      R"("cells":[{"point":0,"kind":"PD","first_order":{"segments_n":1,)"
      R"("chunks_m":1,"rational_n":1,"rational_m":1,)"
      R"("work":6551.914902665681,"overhead":0.10097811247988349,)"
      R"("error_free":330.8,"reexecuted_work":7.706e-06},)"
      R"("exact_at_first_order":0.103121674134659,"segments_n":1,)"
      R"("chunks_m":1,"work":6389.580418426433,)"
      R"("overhead":0.10308825759962703,"warm_started":false}]}})";
  const std::string v1_sidecar =
      R"({"version":1,"entries":[{"signature":"8f1c0b48e6a3fd79",)"
      R"("chains":[{"key":"a2abad0a05b32ab2","platform_index":0,)"
      R"("cost_index":0,"kind":"PD"}]}]})";
  const auto write_v1_cache = [&](const ScratchDir& dir) {
    std::ofstream(dir.path() / (v1_signature + ".json")) << v1_table;
    std::ofstream(dir.path() / "seed_index.json") << v1_sidecar;
  };
  rc::ScenarioGrid grid;
  grid.platforms = {rc::hera()};
  grid.node_counts = {512};
  grid.kinds = {rc::PatternKind::kD};

  {  // The identity tier: the same grid recomputes; the stale file,
     // looked up under its own name, fails verification on load.
    const ScratchDir dir("v1_identity");
    write_v1_cache(dir);
    rs::ServiceOptions options;
    options.cache_dir = dir.str();
    rs::SweepService service(options);
    const rs::SubmitResult result = service.submit(grid);
    EXPECT_FALSE(result.cache_hit);
    EXPECT_NE(result.signature.hex(), v1_signature);
    EXPECT_EQ(service.tables_computed(), 1u);
    EXPECT_TRUE(
        rc::tables_bit_identical(*result.table, rc::SweepRunner().run(grid)));
    const auto stale = rc::GridSignature::from_hex(v1_signature);
    ASSERT_TRUE(stale.has_value());
    EXPECT_EQ(service.cache().find(*stale, service.options().sweep), nullptr);
    EXPECT_EQ(service.stats().disk_rejects, 1u);
  }
  {  // The seed tier: a grid extending the stale one finds no seeds.
    const ScratchDir dir("v1_seeds");
    write_v1_cache(dir);
    rs::ServiceOptions options;
    options.cache_dir = dir.str();
    rs::SweepService service(options);
    auto extended = grid;
    extended.node_counts.push_back(1024);
    const rs::SubmitResult result = service.submit(extended);
    EXPECT_FALSE(result.seeded);
    EXPECT_EQ(service.stats().seed_hits, 0u);
    EXPECT_TRUE(rc::tables_bit_identical(*result.table,
                                         rc::SweepRunner().run(extended)));
  }
}

TEST(SeedReuse, ConcurrentRelatedSubmissionsStayBitIdentical) {
  // The TSan target: concurrent submits of *different* but chain-sharing
  // grids exercise the seed index (reads) against cache inserts (writes).
  const auto base = small_grid();
  std::vector<rc::ScenarioGrid> variants;
  for (const std::size_t extra : {4096u, 8192u, 16384u, 32768u}) {
    auto grid = base;
    grid.node_counts.push_back(extra);
    variants.push_back(std::move(grid));
  }
  rs::SweepService service;
  (void)service.submit(base);

  std::vector<rs::SubmitResult> results(variants.size());
  {
    std::vector<std::thread> threads;
    threads.reserve(variants.size());
    for (std::size_t i = 0; i < variants.size(); ++i) {
      threads.emplace_back(
          [&, i] { results[i] = service.submit(variants[i]); });
    }
    for (auto& thread : threads) {
      thread.join();
    }
  }
  for (std::size_t i = 0; i < variants.size(); ++i) {
    ASSERT_NE(results[i].table, nullptr);
    EXPECT_TRUE(rc::tables_bit_identical(
        *results[i].table, rc::SweepRunner().run(variants[i])))
        << "variant " << i;
  }
}

// ----------------------------------------------------------- streaming --

TEST(SweepStreaming, DeliversExactCellSetAcrossPoolSizes) {
  const auto grid = small_grid();
  const rc::SweepTable reference = rc::SweepRunner().run(grid);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    ru::ThreadPool pool(threads);
    rc::SweepOptions options;
    options.pool = &pool;
    CollectSink sink;
    const rc::SweepTable table = rc::SweepRunner(options).run(grid, sink);
    EXPECT_TRUE(rc::tables_bit_identical(table, reference))
        << "pool size " << threads;
    expect_exact_cell_set(reference, sink.cells());
  }
}

TEST(SweepStreaming, StreamsWithoutNumericOptimumToo) {
  auto grid = small_grid();
  rc::SweepOptions options;
  options.numeric_optimum = false;
  CollectSink sink;
  const rc::SweepTable table = rc::SweepRunner(options).run(grid, sink);
  expect_exact_cell_set(table, sink.cells());
}

TEST(SweepService, StreamsOnMissAndReplaysOnHit) {
  const auto grid = small_grid();
  rs::SweepService service;

  CollectSink live;
  const rs::SubmitResult cold = service.submit(grid, &live);
  expect_exact_cell_set(*cold.table, live.cells());

  CollectSink replay;
  const rs::SubmitResult hit = service.submit(grid, &replay);
  EXPECT_TRUE(hit.cache_hit);
  expect_exact_cell_set(*hit.table, replay.cells());
}

TEST(SweepService, ConcurrentIdenticalSubmissionsDedupe) {
  const auto grid = small_grid();
  rs::SweepService service;

  constexpr std::size_t kThreads = 6;
  std::vector<rs::SubmitResult> results(kThreads);
  std::vector<CollectSink> sinks(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t i = 0; i < kThreads; ++i) {
      threads.emplace_back(
          [&, i] { results[i] = service.submit(grid, &sinks[i]); });
    }
    for (auto& thread : threads) {
      thread.join();
    }
  }

  // However the submissions interleaved, exactly one compute happened and
  // every caller got the full, identical cell set.
  EXPECT_EQ(service.tables_computed(), 1u);
  for (std::size_t i = 0; i < kThreads; ++i) {
    ASSERT_NE(results[i].table, nullptr);
    EXPECT_TRUE(rc::tables_bit_identical(*results[0].table, *results[i].table));
    expect_exact_cell_set(*results[i].table, sinks[i].cells());
  }
}

// ------------------------------------------------------- serialization --

TEST(Serialize, SweepTableJsonRoundTripIsByteIdentical) {
  auto grid = small_grid();
  rc::CostOverride cd;
  cd.disk_checkpoint = 90.0;
  grid.cost_overrides = {cd};  // exercise override fields in the points
  const rc::SweepTable table = rc::SweepRunner().run(grid);

  const std::string once = rs::to_json_text(table);
  const rc::SweepTable parsed = rs::table_from_json(ru::JsonValue::parse(once));
  const std::string twice = rs::to_json_text(parsed);
  EXPECT_EQ(once, twice);
  EXPECT_TRUE(rc::tables_bit_identical(table, parsed));
  // The deserialized table is indexed: O(1) cell() works.
  EXPECT_EQ(parsed.cell(0, rc::PatternKind::kDMV).kind, rc::PatternKind::kDMV);
}

TEST(Serialize, TableFromJsonRejectsPermutedCells) {
  rc::SweepOptions options;
  options.numeric_optimum = false;
  const rc::SweepTable table = rc::SweepRunner(options).run(small_grid());
  // Swap two cells: the count still matches, but cell() index arithmetic
  // would silently return wrong data — the parser must reject it.
  rc::SweepTable tampered = table;
  std::swap(tampered.cells[0], tampered.cells[1]);
  EXPECT_THROW((void)rs::table_from_json(ru::JsonValue::parse(
                   rs::to_json_text(tampered))),
               std::runtime_error);
}

TEST(Serialize, InfinityCellSurvivesRoundTrip) {
  // Degenerate cells carry +inf in exact_at_first_order; the wire format
  // must not corrupt them.
  rc::SweepCell cell;
  cell.kind = rc::PatternKind::kDV;
  cell.exact_at_first_order = std::numeric_limits<double>::infinity();
  const rc::SweepCell parsed = rs::cell_from_json(
      ru::JsonValue::parse(rs::cell_line("inf", rc::GridSignature{}, cell)));
  EXPECT_TRUE(rc::cells_bit_identical(cell, parsed));
}

/// ROADMAP item 2's round-trip gate: every line the service writes
/// parses back to a tree that dumps to the same bytes.
void expect_line_round_trips(const std::string& line) {
  EXPECT_EQ(ru::JsonValue::parse(line).dump(), line);
}

TEST(Serialize, CatalogCellAndDoneLinesRoundTrip) {
  // The 96-cell catalog grid: every platform x 256..16384 nodes x every
  // family.
  rs::ScenarioRequest request;
  request.id = "catalog";
  request.grid.platforms = rc::all_platforms();
  request.grid.node_counts = {256, 1024, 4096, 16384};
  rs::SweepService service;
  const rs::SubmitResult result = service.submit(request);
  ASSERT_EQ(result.table->cells.size(), 96u);
  for (const rc::SweepCell& cell : result.table->cells) {
    expect_line_round_trips(rs::cell_line(request.id, result.signature, cell));
  }
  for (const bool cache_hit : {false, true}) {
    expect_line_round_trips(rs::done_line(request.id, result.signature,
                                          *result.table, cache_hit, false));
  }
  ru::JsonValue stats = rs::to_json(service.stats());
  stats.set("cost", rs::to_json(rs::estimate_cost(request, &service)));
  expect_line_round_trips(rs::done_line(request.id, result.signature,
                                        *result.table, true, true, &stats));
}

TEST(Serialize, SimSmokeLinesRoundTrip) {
  // Every line the stdin front answers to sim_smoke's requests: simulate
  // cell and done lines, and its error lines.
  std::ifstream in(std::filesystem::path(__FILE__).parent_path() / "data" /
                   "sim_smoke.jsonl");
  ASSERT_TRUE(in.good());
  rs::SweepService service;
  std::vector<std::string> lines;
  rs::JsonlSession session(service, [&](std::string&& line, bool) {
    lines.push_back(std::move(line));
  });
  for (std::string request; std::getline(in, request);) {
    session.handle_line(request);
  }
  ASSERT_EQ(lines.size(), 72u);  // as in tests/golden/wire/sim_smoke.jsonl
  for (const std::string& line : lines) {
    expect_line_round_trips(line);
  }
}

TEST(Serialize, RequestRoundTrip) {
  const auto request = rs::ScenarioRequest::parse(R"({
    "id": "rt", "platforms": ["atlas"], "node_counts": [256],
    "kinds": ["PDMV"], "numeric_optimum": false})");
  const auto reparsed =
      rs::ScenarioRequest::from_json(request.to_json());
  EXPECT_EQ(reparsed.id, "rt");
  EXPECT_EQ(reparsed.grid.platforms[0].name, "Atlas");
  EXPECT_EQ(reparsed.grid.node_counts, request.grid.node_counts);
  EXPECT_EQ(reparsed.grid.kinds, request.grid.kinds);
  EXPECT_FALSE(reparsed.numeric_optimum);
}

TEST(ServiceStats, CountersTrackSubmissionOutcomes) {
  rs::SweepService service;
  const rs::ServiceStats fresh = service.stats();
  EXPECT_EQ(fresh.submits, 0u);
  EXPECT_EQ(fresh.tables_computed, 0u);
  EXPECT_EQ(fresh.cache_capacity, 64u);

  const auto grid = small_grid();
  (void)service.submit(grid);  // miss -> compute
  (void)service.submit(grid);  // identity hit
  const rs::ServiceStats after = service.stats();
  EXPECT_EQ(after.submits, 2u);
  EXPECT_EQ(after.tables_computed, 1u);
  EXPECT_EQ(after.cache_hits, 1u);
  EXPECT_EQ(after.disk_hits, 0u);
  EXPECT_EQ(after.cache_lookup_hits, 1u);
  EXPECT_GE(after.cache_lookup_misses, 1u);
  EXPECT_EQ(after.cache_size, 1u);
}

TEST(ServiceStats, EngineCountersCountComputesNotReplays) {
  rs::SweepService service;
  const rs::ServiceStats fresh = service.stats();
  EXPECT_EQ(fresh.engine_lattice_cells, 0u);
  EXPECT_EQ(fresh.engine_w_probes, 0u);
  EXPECT_EQ(fresh.engine_full_bracket_fallbacks, 0u);

  const auto grid = pinned_edge_grid();
  EXPECT_FALSE(service.submit(grid).cache_hit);  // cold: searches run
  const rs::ServiceStats cold = service.stats();
  EXPECT_GT(cold.engine_lattice_cells, 0u);
  EXPECT_GT(cold.engine_w_probes, cold.engine_lattice_cells);
  EXPECT_GT(cold.engine_full_bracket_fallbacks, 0u);

  EXPECT_TRUE(service.submit(grid).cache_hit);  // identity hit: no search
  const rs::ServiceStats hit = service.stats();
  EXPECT_EQ(hit.engine_lattice_cells, cold.engine_lattice_cells);
  EXPECT_EQ(hit.engine_w_probes, cold.engine_w_probes);
  EXPECT_EQ(hit.engine_full_bracket_fallbacks,
            cold.engine_full_bracket_fallbacks);

  // The counters ride the stats surface as the "engine" block.
  const std::string json = rs::to_json(hit).dump();
  EXPECT_NE(json.find("\"engine\":{\"lattice_cells\":" +
                      std::to_string(hit.engine_lattice_cells) +
                      ",\"w_probes\":" + std::to_string(hit.engine_w_probes) +
                      ",\"full_bracket_fallbacks\":" +
                      std::to_string(hit.engine_full_bracket_fallbacks) + "}"),
            std::string::npos)
      << json;
}

TEST(ServiceStats, EngineCountersAreTheSameAtAnyPoolSize) {
  auto grid = pinned_edge_grid();
  grid.node_counts.push_back(512);  // plus an ordinary point per chain
  std::vector<rs::ServiceStats> deltas;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ru::ThreadPool pool(threads);
    rs::ServiceOptions options;
    options.sweep.pool = &pool;
    rs::SweepService service(options);
    (void)service.submit(grid);
    deltas.push_back(service.stats());
  }
  for (std::size_t i = 1; i < deltas.size(); ++i) {
    EXPECT_EQ(deltas[i].engine_lattice_cells, deltas[0].engine_lattice_cells);
    EXPECT_EQ(deltas[i].engine_w_probes, deltas[0].engine_w_probes);
    EXPECT_EQ(deltas[i].engine_full_bracket_fallbacks,
              deltas[0].engine_full_bracket_fallbacks);
  }
  EXPECT_GT(deltas[0].engine_full_bracket_fallbacks, 0u);
}

TEST(ServiceStats, DiskReloadAndSeedCountersSurface) {
  const ScratchDir dir("stats_disk");
  {
    rs::ServiceOptions options;
    options.cache_dir = dir.str();
    rs::SweepService service(options);
    (void)service.submit(small_grid());
  }  // destructor spills to dir
  rs::ServiceOptions options;
  options.cache_dir = dir.str();
  rs::SweepService service(options);
  (void)service.submit(small_grid());  // lazy disk reload
  rs::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.disk_hits, 1u);
  EXPECT_EQ(stats.disk_loads, 1u);
  EXPECT_EQ(stats.tables_computed, 0u);

  // An extended grid seeds from the reloaded table: the seed counters
  // must say so (behavior itself is pinned by the SeedReuse tests).
  auto extended = small_grid();
  extended.node_counts.push_back(4096);
  (void)service.submit(extended);
  stats = service.stats();
  EXPECT_EQ(stats.seeded_computes, 1u);
  EXPECT_GE(stats.seed_hits, 1u);
}

TEST(JsonlSession, StatsRequestAndOptInDoneLineStats) {
  rs::SweepService service;
  std::vector<std::string> lines;
  std::vector<bool> terminal;
  rs::JsonlSession session(service, [&](std::string&& line, bool end) {
    lines.push_back(std::move(line));
    terminal.push_back(end);
  });

  session.handle_line("{\"type\": \"stats\", \"id\": \"s\"}");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(terminal[0]);
  const auto stats0 = ru::JsonValue::parse(lines[0]);
  EXPECT_EQ(stats0.find("type")->as_string(), "stats");
  EXPECT_EQ(stats0.find("request")->as_string(), "s");
  EXPECT_EQ(stats0.find("service")->find("submits")->as_double(), 0.0);
  EXPECT_EQ(stats0.find("cache")->find("capacity")->as_double(), 64.0);

  lines.clear();
  session.handle_line(
      "{\"id\": \"with\", \"platforms\": [\"hera\"], \"node_counts\": [512], "
      "\"kinds\": [\"PD\"], \"stats\": true}");
  ASSERT_FALSE(lines.empty());
  const auto done = ru::JsonValue::parse(lines.back());
  EXPECT_EQ(done.find("type")->as_string(), "done");
  ASSERT_NE(done.find("stats"), nullptr);
  EXPECT_EQ(done.find("stats")->find("service")->find("submits")->as_double(),
            1.0);
  EXPECT_EQ(
      done.find("stats")->find("cache")->find("misses")->as_double() >= 1.0,
      true);

  lines.clear();
  session.handle_line(
      "{\"id\": \"without\", \"platforms\": [\"hera\"], "
      "\"node_counts\": [512], \"kinds\": [\"PD\"]}");
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(ru::JsonValue::parse(lines.back()).find("stats"), nullptr);
  EXPECT_FALSE(session.any_request_errors());

  // Stats requests are validated as strictly as scenario requests: a
  // typo'd member gets a located error, not silence.
  lines.clear();
  session.handle_line("{\"type\": \"stats\", \"request\": \"typo\"}");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"type\":\"error\""), std::string::npos);
  EXPECT_NE(lines[0].find("unknown field 'request'"), std::string::npos);
  lines.clear();
  session.handle_line("{\"type\": \"stats\", \"id\": 7}");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"field\":\"id\""), std::string::npos);
  EXPECT_TRUE(session.any_request_errors());
}

TEST(JsonlSession, LineNumberingAndErrorTracking) {
  rs::SweepService service;
  std::vector<std::string> lines;
  rs::JsonlSession session(service, [&](std::string&& line, bool) {
    lines.push_back(std::move(line));
  });
  session.handle_line("# a comment");
  session.handle_line("");
  EXPECT_TRUE(lines.empty());  // skipped, but counted
  EXPECT_EQ(session.lines_seen(), 2u);
  EXPECT_FALSE(session.any_request_errors());

  session.handle_line("not json");
  ASSERT_EQ(lines.size(), 1u);
  // Default ids number over ALL input lines, like the stdin server.
  EXPECT_NE(lines[0].find("\"request\":\"line-3\""), std::string::npos);
  EXPECT_NE(lines[0].find("invalid JSON"), std::string::npos);
  EXPECT_TRUE(session.any_request_errors());

  session.handle_line("{\"platforms\": [\"hera\"], \"node_counts\": [0]}");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("\"type\":\"error\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"request\":\"line-4\""), std::string::npos);

  // A served request after errors still works; the error flag persists.
  session.handle_line(
      "{\"id\": \"ok\", \"platforms\": [\"hera\"], \"node_counts\": [512], "
      "\"kinds\": [\"PD\"]}");
  EXPECT_NE(lines.back().find("\"type\":\"done\""), std::string::npos);
  EXPECT_TRUE(session.any_request_errors());
}

TEST(JsonlSession, GridTooLargeToResolveAnswersAnErrorLine) {
  // Four 20000-entry axes: every entry is valid, but the point count
  // (1.6e17) exceeds what a vector can hold, so resolving the grid throws
  // a non-validation exception. The daemon classifies lines on its event
  // loop, so this must come back as an answer, never as an exception.
  const auto axis = [](const char* key, const char* entry) {
    std::string out = std::string("\"") + key + "\": [";
    for (int i = 0; i < 20000; ++i) {
      out += (i == 0 ? "" : ",");
      out += entry;
    }
    return out + "]";
  };
  const std::string huge =
      "{\"id\": \"huge\", " + axis("platforms", "\"hera\"") + ", " +
      axis("node_counts", "1024") + ", " + axis("rate_factors", "{}") +
      ", " + axis("cost_overrides", "{}") + "}";
  rs::SweepService service;
  std::vector<std::string> lines;
  rs::JsonlSession session(service, [&](std::string&& line, bool) {
    lines.push_back(std::move(line));
  });
  session.handle_line(huge);
  session.handle_line("{\"type\": \"ping\", \"id\": \"after\"}");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"request\":\"line-1\",\"field\":\"\","
                          "\"message\":\"internal error: "),
            std::string::npos)
      << lines[0];
  EXPECT_EQ(lines[1], "{\"type\":\"pong\",\"request\":\"after\"}");
  EXPECT_TRUE(session.any_request_errors());
}

TEST(JsonlSession, CancellationStopsOutputNotTheCompute) {
  rs::SweepService service;
  auto cancelled = std::make_shared<std::atomic<bool>>(false);
  std::vector<std::string> lines;
  rs::JsonlSession session(
      service,
      [&](std::string&& line, bool) { lines.push_back(std::move(line)); },
      rs::JsonlSession::Options(), cancelled);

  cancelled->store(true);
  session.handle_line(
      "{\"id\": \"gone\", \"platforms\": [\"hera\"], \"node_counts\": [512], "
      "\"kinds\": [\"PD\"]}");
  EXPECT_TRUE(lines.empty());          // nothing emitted for a gone client
  EXPECT_EQ(service.stats().submits, 0u);  // nor work started after cancel
}
