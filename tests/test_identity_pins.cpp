// Pinned content identities. The server persists these hashes (spill file
// names, payload checksums, the seed sidecar's chain keys) and compares
// them across processes (router sub-signatures, per-cell RNG streams,
// hash-ring placement), so a change to any of them is a format change.
// Every other identity suite compares two runs of the same build; the
// values below were produced by an earlier build, so a refactor that
// moves a hash by one bit fails here.
//
// The result pins go one step further: they pin the bits of computed
// answers (analytic W, H and exact H; simulate mean and CI bounds) as
// hex doubles. A spill written by one build is served by another, so
// every build must compute the same bits; a compiler that contracts
// a*b+c into an FMA moves several of the analytic pins below.
//
// The line pins hold the exact bytes of response lines the wire goldens
// (tests/golden/wire) never produce: a stats line with a transport
// block, done lines carrying an opt-in stats block, shed and pong
// answers, an error line that needs escaping, and cell lines carrying
// non-finite, negative-zero, subnormal and beyond-2^53 values.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "resilience/core/platform.hpp"
#include "resilience/core/sweep.hpp"
#include "resilience/net/hash_ring.hpp"
#include "resilience/service/cost_model.hpp"
#include "resilience/service/serialize.hpp"
#include "resilience/service/sim_table.hpp"
#include "resilience/service/sweep_service.hpp"
#include "resilience/util/json.hpp"

namespace rc = resilience::core;
namespace rn = resilience::net;
namespace rs = resilience::service;
namespace ru = resilience::util;

namespace {

/// One Hera point at 512 nodes, the PD family, default options.
rs::ScenarioRequest analytic_request() {
  rs::ScenarioRequest request;
  request.id = "pin-analytic";
  request.grid.platforms = {rc::hera()};
  request.grid.node_counts = {512};
  request.grid.kinds = {rc::PatternKind::kD};
  return request;
}

/// The same grid in simulate mode over two Weibull shapes.
rs::ScenarioRequest simulate_request() {
  rs::ScenarioRequest request = analytic_request();
  request.id = "pin-sim";
  request.simulate = true;
  request.sim.seed = 42;
  request.sim.target_ci = 0.05;
  request.sim.min_runs = 16;
  request.sim.max_runs = 32;
  request.sim.patterns_per_run = 20;
  request.sim.weibull_shape = {1.0, 0.7};
  request.sim.faulty_ops = {1.0};
  return request;
}

/// The bit pattern of a double, so a pin compares every bit, not a
/// decimal rendering of it.
std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// A ServiceStats whose every counter is distinct.
rs::ServiceStats numbered_stats() {
  rs::ServiceStats stats;
  stats.submits = 1;
  stats.cache_hits = 2;
  stats.disk_hits = 3;
  stats.joined_in_flight = 4;
  stats.tables_computed = 5;
  stats.seeded_computes = 6;
  stats.deadline_timeouts = 7;
  stats.cache_lookup_hits = 8;
  stats.cache_lookup_misses = 9;
  stats.seed_hits = 10;
  stats.disk_loads = 11;
  stats.disk_rejects = 12;
  stats.cache_size = 13;
  stats.cache_capacity = 64;
  stats.sim_submits = 14;
  stats.sim_cache_hits = 15;
  stats.sim_disk_hits = 16;
  stats.sim_cells = 17;
  stats.sim_runs = 18;
  stats.sim_early_stops = 19;
  stats.sim_runs_per_second = 1234.5;
  stats.engine_lattice_cells = 20;
  stats.engine_w_probes = 21;
  stats.engine_full_bracket_fallbacks = 22;
  return stats;
}

/// numbered_stats()'s blocks, the members of its to_json() object.
constexpr const char* kStatsMembers =
    R"("service":{"submits":1,"cache_hits":2,"disk_hits":3,)"
    R"("joined_in_flight":4,"tables_computed":5,"seeded_computes":6,)"
    R"("deadline_timeouts":7},"cache":{"size":13,"capacity":64,"hits":8,)"
    R"("misses":9,"seed_hits":10,"disk_loads":11,"disk_rejects":12},)"
    R"("sim":{"submits":14,"cache_hits":15,"disk_hits":16,"cells":17,)"
    R"("runs":18,"early_stops":19,"runs_per_second":1234.5},)"
    R"("engine":{"lattice_cells":20,"w_probes":21,)"
    R"("full_bracket_fallbacks":22})";

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

TEST(IdentityPins, AnalyticSignatureAndChainKey) {
  const rs::ScenarioRequest request = analytic_request();
  const rc::SweepOptions options;
  EXPECT_EQ(rc::grid_signature(request.grid, options).hex(),
            "6cb66bdce53df6e2");
  EXPECT_EQ(rs::SweepService().signature_for(request).hex(),
            "6cb66bdce53df6e2");
  EXPECT_EQ(rc::chain_key(rc::hera(), rc::CostOverride{},
                          rc::PatternKind::kD, options)
                .hex(),
            "57222ee9185d011d");
}

TEST(IdentityPins, SimulateSignatureAndCellSeed) {
  const rs::ScenarioRequest request = simulate_request();
  const std::vector<rc::ScenarioPoint> points =
      rc::resolve_points(request.grid);
  EXPECT_EQ(rs::sim_signature(points, request.grid.resolved_kinds(),
                              request.sim)
                .hex(),
            "8a7e849b16ebad42");
  EXPECT_EQ(rs::sim_cell_seed(request.sim, rc::PatternKind::kD,
                              points.front().params, 0.7, 1.0),
            0xf770e7080034f94aull);
}

TEST(IdentityPins, SpillNamesAndPayloadChecksum) {
  const std::filesystem::path dir = "identity_pins_cache";
  std::filesystem::remove_all(dir);
  {
    rs::ServiceOptions options;
    options.cache_dir = dir.string();
    rs::SweepService service(options);
    (void)service.submit(analytic_request());
    (void)service.simulate(simulate_request());
  }  // shutdown spills both tables
  const std::string analytic = read_file(dir / "6cb66bdce53df6e2.json");
  ASSERT_FALSE(analytic.empty());
  EXPECT_EQ(ru::JsonValue::parse(analytic).find("payload_fnv")->as_string(),
            "e13f183d0122849a");
  EXPECT_TRUE(std::filesystem::exists(dir / "8a7e849b16ebad42.sim.json"));
  std::filesystem::remove_all(dir);
}

TEST(IdentityPins, HashRingPlacement) {
  // Owner initials of 64 spread keys over a three-shard ring: pins the
  // shard-id hash every ring position derives from.
  rn::HashRing ring;
  ring.add("alpha");
  ring.add("beta");
  ring.add("gamma");
  std::string owners;
  for (std::uint64_t key = 0; key < 64; ++key) {
    owners += ring.owner(key * 0x9e3779b97f4a7c15ULL)->front();
  }
  EXPECT_EQ(owners,
            "aggggbbaaggabgggbababaabgaababbgbaabgbgbgagaggabgbgbaaggababgbba");
}

TEST(IdentityPins, AnalyticResultBits) {
  // Four cells of the catalog grid (every platform x 256..16384 nodes x
  // every family). Each one's W moves in a -march=native build on an FMA
  // host unless floating-point contraction is off; Hera@16384 PDM moves
  // H and the exact H of the first-order pattern too.
  rs::ScenarioRequest request;
  request.grid.platforms = rc::all_platforms();
  request.grid.node_counts = {256, 1024, 4096, 16384};
  const rs::SubmitResult result = rs::SweepService().submit(request);
  const rc::SweepTable& table = *result.table;

  struct Pin {
    std::size_t platform;
    std::size_t node;
    rc::PatternKind kind;
    std::uint64_t work;
    std::uint64_t overhead;
    std::uint64_t exact_at_first_order;
  };
  const Pin pins[] = {
      {0, 0, rc::PatternKind::kD, 0x40c1c72e6124c5d6ull, 0x3fb28c553ff8f730ull,
       0x3fb28d19d6e6d410ull},
      {0, 3, rc::PatternKind::kDM, 0x40a50acccea1a4caull, 0x3fda8ca8eae76d94ull,
       0x3fdad3fa5cc82124ull},
      {1, 2, rc::PatternKind::kDMV, 0x40cb06f0a427f0a0ull,
       0x3fbe2ee39fe9d620ull, 0x3fbe375fb8437930ull},
      {3, 3, rc::PatternKind::kD, 0x40be4763543cc5d0ull, 0x3fe70db7b113fe64ull,
       0x3fe75b2fb979544eull},
  };
  for (const Pin& pin : pins) {
    const rc::SweepCell& cell = table.cell(pin.platform * 4 + pin.node, pin.kind);
    const std::string where = table.points[cell.point_index].platform.name +
                              " " + rc::pattern_name(pin.kind);
    EXPECT_EQ(bits(cell.work), pin.work) << where;
    EXPECT_EQ(bits(cell.overhead), pin.overhead) << where;
    EXPECT_EQ(bits(cell.exact_at_first_order), pin.exact_at_first_order)
        << where;
  }
}

TEST(IdentityPins, SimulateResultBits) {
  // One request over every error-model route the simulate service has:
  // Poisson arrivals (shape 1, ops 1), exponential renewal with scaled
  // operations (ops 0.5), Weibull (shape 0.7), Weibull with scaled
  // operations, and error-free operations (ops 0). target_ci 0 runs
  // every cell to max_runs.
  rs::ScenarioRequest request = analytic_request();
  request.id = "pin-sim-bits";
  request.grid.kinds = {rc::PatternKind::kD, rc::PatternKind::kDMV};
  request.simulate = true;
  request.sim.seed = 42;
  request.sim.target_ci = 0.0;
  request.sim.min_runs = 16;
  request.sim.max_runs = 32;
  request.sim.patterns_per_run = 20;
  request.sim.weibull_shape = {1.0, 0.7};
  request.sim.faulty_ops = {1.0, 0.5, 0.0};
  rs::ServiceOptions uncached;
  uncached.cache_capacity = 0;
  const rs::SimSubmitResult result =
      rs::SweepService(uncached).simulate(request);

  struct Pin {
    std::uint64_t mean;
    std::uint64_t ci_low;
    std::uint64_t ci_high;
  };
  // Table order: kind, then shape, then ops.
  const Pin pins[] = {
      {0x3fbd21976e6b4724ull, 0x3fb6a75d5a2e3736ull, 0x3fc1cde8c1542b89ull},
      {0x3fb98b37402c6218ull, 0x3fb5fa9276bbc95cull, 0x3fbd1bdc099cfad4ull},
      {0x3fbdf5a8378314eaull, 0x3fb83de2b1a49b68ull, 0x3fc1d6b6deb0c736ull},
      {0x3fc1aa4019001366ull, 0x3fbb2e52c92f7e7aull, 0x3fc5bd56cd68678full},
      {0x3fbf4c7d000f1ddeull, 0x3fb989b5d82f3022ull, 0x3fc287a213f785cdull},
      {0x3fbdd0cb5f8496deull, 0x3fba57392d82ce99ull, 0x3fc0a52ec8c32f91ull},
      {0x3fa85b48744fff28ull, 0x3fa49fed9d348752ull, 0x3fac16a34b6b76feull},
      {0x3fad011f8ed023aeull, 0x3fa7ef16741d2ed6ull, 0x3fb1099454c18c43ull},
      {0x3fadbba71d3fca46ull, 0x3fa94f0813caeddbull, 0x3fb11423135a5358ull},
      {0x3faf005d2828be9aull, 0x3fa82e085a22ed8aull, 0x3fb2e958fb1747d5ull},
      {0x3fb20d360003e740ull, 0x3fadc459a74bcedaull, 0x3fb5383f2c61e713ull},
      {0x3fabe60343acd358ull, 0x3fa7763a969ecf37ull, 0x3fb02ae5f85d6bbcull},
  };
  const std::vector<rs::SimCell>& cells = result.table->cells;
  ASSERT_EQ(cells.size(), std::size(pins));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const rs::SimCell& cell = cells[i];
    const std::string where = rc::pattern_name(cell.kind) + " shape " +
                              std::to_string(cell.weibull_shape) + " ops " +
                              std::to_string(cell.faulty_ops);
    EXPECT_EQ(bits(cell.mean), pins[i].mean) << where;
    EXPECT_EQ(bits(cell.ci_low), pins[i].ci_low) << where;
    EXPECT_EQ(bits(cell.ci_high), pins[i].ci_high) << where;
    EXPECT_EQ(cell.runs, 32u) << where;
  }
}

TEST(IdentityPins, StatsLineWithTransportBlock) {
  const ru::JsonValue transport = ru::JsonValue::parse(
      R"({"scheduler":{"admitted":3,"shed_overload":1,"drain_rate":0.25},)"
      R"("latency_us":{"compute":{"count":2,"p50_us":16,"max_us":17.5}}})");
  EXPECT_EQ(rs::stats_line("st-1", numbered_stats(), &transport),
            std::string(R"({"type":"stats","request":"st-1",)") +
                kStatsMembers +
                R"(,"transport":{"scheduler":{"admitted":3,)"
                R"("shed_overload":1,"drain_rate":0.25},"latency_us":)"
                R"({"compute":{"count":2,"p50_us":16,"max_us":17.5}}}})");
}

TEST(IdentityPins, DoneLinesWithStatsBlocks) {
  // A daemon's opt-in block: ServiceStats plus the admission "cost".
  rs::CostEstimate cost;
  cost.units = 2.375;
  cost.cells = 4;
  cost.chains = 2;
  cost.seeded_chains = 1;
  cost.identity_hit = true;
  ru::JsonValue stats = rs::to_json(numbered_stats());
  stats.set("cost", rs::to_json(cost));
  rc::SweepTable table;
  table.points.resize(2);
  table.kinds = {rc::PatternKind::kD, rc::PatternKind::kDMV};
  table.cells.resize(4);
  EXPECT_EQ(rs::done_line("done-1", rc::GridSignature{0x0123456789abcdefULL},
                          table, true, false, &stats),
            std::string(R"({"type":"done","request":"done-1",)"
                        R"("signature":"0123456789abcdef","points":2,)"
                        R"("kinds":["PD","PDMV"],"cells":4,"cache_hit":true,)"
                        R"("joined_in_flight":false,"stats":{)") +
                kStatsMembers +
                R"(,"cost":{"units":2.375,"cells":4,"chains":2,)"
                R"("seeded_chains":1,"identity_hit":true}}})");

  // A router's merged block rides on a simulate done line.
  rs::SimTable sim;
  sim.points.resize(1);
  sim.kinds = {rc::PatternKind::kDV};
  sim.header.weibull_shape = {0.7};
  sim.header.faulty_ops = {0.0};
  sim.cells.resize(2);
  sim.cells[0].runs = 40;
  sim.cells[1].runs = 24;
  const ru::JsonValue shards = ru::JsonValue::parse(
      R"({"shards":[{"id":"127.0.0.1:1","stats":{"cost":{"units":0.5}}},)"
      R"({"id":"b","stats":{}}]})");
  EXPECT_EQ(rs::done_line("sim-done", rc::GridSignature{0x2ULL}, sim, false,
                          false, &shards),
            R"({"type":"done","request":"sim-done",)"
            R"("signature":"0000000000000002","mode":"simulate","points":1,)"
            R"("kinds":["PDV"],"cells":2,"runs":64,"cache_hit":false,)"
            R"("stats":{"shards":[{"id":"127.0.0.1:1","stats":{"cost":)"
            R"({"units":0.5}}},{"id":"b","stats":{}}]}})");
}

TEST(IdentityPins, ShedPongAndErrorLines) {
  EXPECT_EQ(rs::overloaded_line("shed-1", 250),
            R"({"type":"error","request":"shed-1","field":"",)"
            R"("message":"server overloaded: request shed at admission; )"
            R"(retry after 250 ms","code":"overloaded","retry_after_ms":250})");
  EXPECT_EQ(rs::pong_line("ping-1"), R"({"type":"pong","request":"ping-1"})");
  // A quote, a backslash, U+0001 and multi-byte UTF-8 (U+00E9, U+20AC),
  // which passes through unescaped.
  EXPECT_EQ(rs::error_line("err\"1", "grid.\\kinds",
                           "bad \"quote\", back\\slash, ctl \x01, "
                           "utf8 \xc3\xa9\xe2\x82\xac"),
            R"({"type":"error","request":"err\"1","field":"grid.\\kinds",)"
            R"("message":"bad \"quote\", back\\slash, ctl \u0001, utf8 )"
            "\xc3\xa9\xe2\x82\xac\"}");
}

TEST(IdentityPins, CellLinesWithEdgeValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  rc::SweepCell cell;
  cell.point_index = 3;
  cell.kind = rc::PatternKind::kDMV;
  cell.first_order.segments_n = 2;
  cell.first_order.chunks_m = 5;
  cell.first_order.rational_n = 5e-324;
  cell.first_order.rational_m = 4.75;
  cell.first_order.work = 1e21;
  cell.first_order.overhead = 0.1;
  cell.first_order.coefficients.error_free = 9007199254740993.0;
  cell.first_order.coefficients.reexecuted_work = -1.5e-7;
  cell.exact_at_first_order = kInf;
  cell.chunks_m = 7;
  cell.work = -0.0;
  cell.overhead = -kInf;
  cell.warm_started = true;
  EXPECT_EQ(
      rs::cell_line("cell-1", rc::GridSignature{0xfedcba9876543210ULL}, cell),
      R"({"type":"cell","request":"cell-1","signature":"fedcba9876543210",)"
      R"("point":3,"kind":"PDMV","first_order":{"segments_n":2,"chunks_m":5,)"
      R"("rational_n":5e-324,"rational_m":4.75,"work":1e+21,"overhead":0.1,)"
      R"("error_free":9007199254740992,"reexecuted_work":-1.5e-07},)"
      R"("exact_at_first_order":Infinity,"segments_n":1,"chunks_m":7,)"
      R"("work":-0,"overhead":-Infinity,"warm_started":true})");

  // Integers travel as doubles: 2^53 + 1 runs print as 2^53.
  rs::SimCell sim;
  sim.point_index = 1;
  sim.kind = rc::PatternKind::kDV;
  sim.weibull_shape = 0.7;
  sim.faulty_ops = 0.0;
  sim.mean = std::numeric_limits<double>::quiet_NaN();
  sim.ci_low = -0.0;
  sim.ci_high = 5e-324;
  sim.runs = 9007199254740993ULL;
  sim.early_stopped = true;
  EXPECT_EQ(rs::cell_line("sim-1", rc::GridSignature{0x1ULL}, sim),
            R"({"type":"cell","request":"sim-1","signature":"0000000000000001",)"
            R"("point":1,"kind":"PDV","weibull_shape":0.7,"faulty_ops":0,)"
            R"("mean":NaN,"ci_low":-0,"ci_high":5e-324,)"
            R"("runs":9007199254740992,"early_stopped":true})");
}
