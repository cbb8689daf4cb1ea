// Pinned content identities. The server persists these hashes (spill file
// names, payload checksums, the seed sidecar's chain keys) and compares
// them across processes (router sub-signatures, per-cell RNG streams,
// hash-ring placement), so a change to any of them is a format change.
// Every other identity suite compares two runs of the same build; the
// values below were produced by an earlier build, so a refactor that
// moves a hash by one bit fails here.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

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
