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

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "resilience/core/platform.hpp"
#include "resilience/core/sweep.hpp"
#include "resilience/net/hash_ring.hpp"
#include "resilience/service/sim_service.hpp"
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
    (void)service.sim().submit(simulate_request());
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
  const rs::SimSubmitResult result =
      rs::SimService(nullptr, nullptr).submit(request);

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
