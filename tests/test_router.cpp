// Router suite: the consistent-hash ring properties the fleet's failover
// correctness rests on, and the sweep_router front end driven fully
// in-process — a ShardFleet over real NetServer shards, with
// RouterSession merging their streams. The gate throughout is
// byte-identity against a single-process daemon: cold runs compare per
// response after a per-line sort (a cold daemon streams cells in pool
// order; the router always merges into table order), warm runs compare
// exactly. Failover and rejoin are exercised by really destroying and
// re-binding shard daemons, not by mocking health.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "resilience/net/client.hpp"
#include "resilience/net/hash_ring.hpp"
#include "resilience/net/router.hpp"
#include "resilience/net/server.hpp"
#include "resilience/net/socket.hpp"
#include "resilience/service/jsonl_session.hpp"
#include "resilience/util/json.hpp"

namespace rn = resilience::net;
namespace rs = resilience::service;

namespace {

using Lines = std::vector<std::string>;

// ---------------------------------------------------------------- ring --

TEST(HashRing, EmptyRingOwnsNothing) {
  rn::HashRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_FALSE(ring.owner(0).has_value());
  EXPECT_FALSE(ring.owner(0xdeadbeefULL).has_value());
}

TEST(HashRing, AddAndRemoveAreIdempotent) {
  rn::HashRing ring;
  ring.add("a");
  ring.add("a");
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_TRUE(ring.contains("a"));
  ring.remove("a");
  ring.remove("a");
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.contains("a"));
}

TEST(HashRing, EveryShardOwnsASliceAndRoutingIsDeterministic) {
  rn::HashRing ring;
  ring.add("alpha");
  ring.add("beta");
  ring.add("gamma");
  std::map<std::string, std::size_t> owned;
  for (std::uint64_t key = 0; key < 2000; ++key) {
    const auto owner = ring.owner(key * 0x9e3779b97f4a7c15ULL);
    ASSERT_TRUE(owner.has_value());
    ++owned[*owner];
    // Same membership, same key, same owner.
    EXPECT_EQ(ring.owner(key * 0x9e3779b97f4a7c15ULL), owner);
  }
  EXPECT_EQ(owned.size(), 3u);
  for (const auto& [shard, count] : owned) {
    EXPECT_GT(count, 0u) << shard;
  }
}

TEST(HashRing, RemovalMovesOnlyTheDeadShardsKeys) {
  rn::HashRing ring;
  const std::vector<std::string> shards = {"s0", "s1", "s2", "s3"};
  for (const std::string& shard : shards) {
    ring.add(shard);
  }
  std::vector<std::uint64_t> keys;
  std::vector<std::string> before;
  for (std::uint64_t i = 0; i < 4000; ++i) {
    keys.push_back(i * 0x9e3779b97f4a7c15ULL + 12345);
    before.push_back(*ring.owner(keys.back()));
  }

  ring.remove("s1");
  std::size_t moved = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::string after = *ring.owner(keys[i]);
    EXPECT_NE(after, "s1");
    if (before[i] == "s1") {
      ++moved;  // had to move — its owner died
    } else {
      // The stability property: a healthy shard's keys never reshuffle.
      EXPECT_EQ(after, before[i]) << "key " << i << " moved without cause";
    }
  }
  // The dead shard really owned something, or this proved nothing.
  EXPECT_GT(moved, 0u);
}

TEST(HashRing, RejoinRestoresTheExactOriginalAssignment) {
  rn::HashRing ring;
  ring.add("s0");
  ring.add("s1");
  ring.add("s2");
  std::vector<std::uint64_t> keys;
  std::vector<std::string> before;
  for (std::uint64_t i = 0; i < 4000; ++i) {
    keys.push_back(i * 0x2545f4914f6cdd1dULL + 7);
    before.push_back(*ring.owner(keys.back()));
  }
  ring.remove("s2");
  ring.add("s2");  // vnode positions depend only on (id, index)
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(*ring.owner(keys[i]), before[i]) << "key " << i;
  }
}

// -------------------------------------------------------- test helpers --

/// NetServer on a background thread; the destructor drains and joins.
class TestDaemon {
 public:
  explicit TestDaemon(rn::NetServerOptions options = {})
      : server_(std::move(options)), thread_([this] { server_.run(); }) {}

  ~TestDaemon() {
    server_.stop();
    thread_.join();
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return server_.port(); }

 private:
  rn::NetServer server_;
  std::thread thread_;
};

/// Groups RouterSession output into responses on the end_of_response
/// marker — the in-process stand-in for a client reading the socket.
struct Collector {
  std::vector<Lines> responses;
  Lines current;

  rs::LineSession::LineFn fn() {
    return [this](std::string&& line, bool end_of_response) {
      current.push_back(std::move(line));
      if (end_of_response) {
        responses.push_back(std::move(current));
        current.clear();
      }
    };
  }
};

/// The byte-identity workload: multi-chain grids (so chains spread over
/// shards), a single-chain grid, a cost-override axis, a ping, an
/// invalid request and an unknown type (error bytes must match too).
Lines fleet_workload() {
  return {
      "{\"id\": \"f1\", \"platforms\": [\"hera\", \"atlas\"], "
      "\"node_counts\": [256, 1024], \"kinds\": [\"PD\", \"PDMV\"]}",
      "{\"id\": \"f2\", \"platforms\": [\"coastal\"], "
      "\"node_counts\": [4096], \"kinds\": [\"PD\"]}",
      "{\"id\": \"f3\", \"platforms\": [\"hera\", \"coastal\"], "
      "\"node_counts\": [512], \"cost_overrides\": "
      "[{\"disk_checkpoint\": 311.0}, {}], \"kinds\": [\"PDMV\"]}",
      "{\"type\": \"ping\", \"id\": \"f4\"}",
      "{\"id\": \"f5\", \"platforms\": [\"hera\"], \"node_counts\": [0]}",
      "{\"type\": \"nope\", \"id\": \"f6\"}",
  };
}

/// Runs the workload through one fresh RouterSession.
std::vector<Lines> run_router(rn::ShardFleet& fleet, const Lines& workload) {
  Collector collector;
  rn::RouterSession session(fleet, collector.fn());
  for (const std::string& line : workload) {
    session.handle_line(line);
  }
  return collector.responses;
}

/// Runs the workload against a single daemon over one connection.
std::vector<Lines> run_reference(std::uint16_t port, const Lines& workload) {
  rn::Client client;
  client.connect("127.0.0.1", port);
  std::vector<Lines> responses;
  for (const std::string& request : workload) {
    rn::Client::Response response = client.transact(request);
    EXPECT_TRUE(response.complete);
    responses.push_back(std::move(response.lines));
  }
  return responses;
}

Lines sorted(Lines lines) {
  std::sort(lines.begin(), lines.end());
  return lines;
}

rn::RouterOptions fleet_options(const std::vector<std::uint16_t>& ports) {
  rn::RouterOptions options;
  for (const std::uint16_t port : ports) {
    rn::ShardConfig shard;
    shard.port = port;
    options.shards.push_back(shard);
  }
  options.connect_timeout_ms = 500;
  options.receive_timeout_ms = 10000;
  options.attempts_per_shard = 2;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 10;
  return options;
}

Lines flatten(const std::vector<Lines>& responses) {
  Lines out;
  for (const Lines& response : responses) {
    out.insert(out.end(), response.begin(), response.end());
  }
  return out;
}

// --------------------------------------------------------- cross-front --

/// One line of every class the request front tells apart. The last one
/// is a valid request without an id: its default "line-N" id must count
/// every line above it, blank and comment lines included.
Lines front_table() {
  return {
      "# comment",
      "",
      "   \t",
      "not json",
      "[1,2]",
      "\"str\"",
      "42",
      "{}",
      "{\"id\": \"a\", \"id\": \"b\"}",
      "{\"type\": \"ping\"}",
      "{\"type\": \"ping\", \"id\": 7}",
      "{\"type\": \"ping\", \"id\": \"p\", \"extra\": 1}",
      "{\"type\": \"nope\"}",
      "{\"type\": 5}",
      "{\"id\": \"u\", \"platforms\": [\"hera\"], \"bogus\": 1}",
      "{\"platforms\": [\"hera\"], \"node_counts\": [0]}",
      "{\"id\": 9, \"platforms\": [\"hera\"]}",
      "{\"mode\": \"simulate\", \"platforms\": [\"hera\"], "
      "\"sim\": {\"max_runs\": 0}}",
      "{\"platforms\": [\"hera\"], \"node_counts\": [1024], "
      "\"kinds\": [\"PDMV\"]}",
  };
}

TEST(CrossFront, StdinRouterAndDaemonAnswerEveryLineAlike) {
  if (!rn::transport_supported()) {
    GTEST_SKIP() << "transport requires Linux";
  }
  const Lines table = front_table();

  // The stdin front: a JsonlSession over a fresh service.
  rs::SweepService service;
  Collector stdin_out;
  rs::JsonlSession session(service, stdin_out.fn());
  for (const std::string& line : table) {
    session.handle_line(line);
  }

  // The router front: a RouterSession over a one-shard fleet.
  TestDaemon shard;
  rn::ShardFleet fleet{fleet_options({shard.port()})};
  const Lines routed = flatten(run_router(fleet, table));

  // The daemon front: the whole table in one burst over TCP, then EOF.
  TestDaemon daemon;
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());
  client.set_receive_timeout(30000);
  for (const std::string& line : table) {
    client.send_line(line);
  }
  client.shutdown_send();
  Lines served;
  while (std::optional<std::string> line = client.read_line()) {
    served.push_back(std::move(*line));
  }

  const Lines expected = flatten(stdin_out.responses);
  // Every line but the three skips answers one terminal line; the valid
  // request adds its one cell.
  ASSERT_EQ(expected.size(), table.size() - 3 + 1);
  EXPECT_NE(expected.back().find("\"type\":\"done\",\"request\":\"line-" +
                                 std::to_string(table.size()) + "\""),
            std::string::npos)
      << expected.back();
  EXPECT_EQ(routed, expected);
  EXPECT_EQ(served, expected);
}

// -------------------------------------------------------------- router --

TEST(Router, EmptyFleetAnswersALocatedErrorNotAHang) {
  rn::ShardFleet fleet{rn::RouterOptions{}};
  Collector collector;
  rn::RouterSession session(fleet, collector.fn());
  session.handle_line(
      "{\"id\": \"e\", \"platforms\": [\"hera\"], \"node_counts\": [512]}");
  ASSERT_EQ(collector.responses.size(), 1u);
  ASSERT_EQ(collector.responses[0].size(), 1u);
  const std::string& line = collector.responses[0][0];
  EXPECT_NE(line.find("\"type\":\"error\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"field\":\"shards\""), std::string::npos) << line;
  EXPECT_NE(line.find("no shard available"), std::string::npos) << line;
  EXPECT_TRUE(session.any_request_errors());

  // Control traffic needs no shards: ping answers, stats reports up=0.
  session.handle_line("{\"type\": \"ping\", \"id\": \"p\"}");
  session.handle_line("{\"type\": \"stats\", \"id\": \"s\"}");
  ASSERT_EQ(collector.responses.size(), 3u);
  EXPECT_NE(collector.responses[1][0].find("\"type\":\"pong\""),
            std::string::npos);
  EXPECT_NE(collector.responses[2][0].find("\"up\":0"), std::string::npos);
}

TEST(Router, AllShardsDownAnswersALocatedError) {
  if (!rn::transport_supported()) {
    GTEST_SKIP() << "transport requires Linux";
  }
  auto daemon = std::make_unique<TestDaemon>();
  rn::ShardFleet fleet{fleet_options({daemon->port()})};
  daemon.reset();  // the only shard is gone
  fleet.probe_round();
  EXPECT_EQ(fleet.up_count(), 0u);
  EXPECT_GE(fleet.stats().rebalances, 1u);

  Collector collector;
  rn::RouterSession session(fleet, collector.fn());
  session.handle_line(
      "{\"id\": \"d\", \"platforms\": [\"hera\"], \"node_counts\": [512]}");
  ASSERT_EQ(collector.responses.size(), 1u);
  EXPECT_NE(collector.responses[0][0].find("no shard available: 1 configured "
                                           "shard(s), 0 up"),
            std::string::npos)
      << collector.responses[0][0];
}

TEST(Router, ThreeShardMergeIsByteIdenticalToASingleDaemon) {
  if (!rn::transport_supported()) {
    GTEST_SKIP() << "transport requires Linux";
  }
  TestDaemon reference_daemon;
  TestDaemon s1, s2, s3;
  const Lines workload = fleet_workload();
  const std::vector<Lines> cold_reference =
      run_reference(reference_daemon.port(), workload);
  const std::vector<Lines> warm_reference =
      run_reference(reference_daemon.port(), workload);

  rn::ShardFleet fleet{fleet_options({s1.port(), s2.port(), s3.port()})};
  const std::vector<Lines> cold = run_router(fleet, workload);
  const std::vector<Lines> warm = run_router(fleet, workload);

  ASSERT_EQ(cold.size(), cold_reference.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    // Cold single-daemon cells stream in pool order; the router merges
    // into table order — same multiset of bytes, different order.
    EXPECT_EQ(sorted(cold[i]), sorted(cold_reference[i])) << "response " << i;
  }
  // Warm runs are cache-hit replays on both sides: exact bytes, exact
  // order, including the done line's cache_hit flag.
  EXPECT_EQ(warm, warm_reference);

  // The workload's chains actually spread: every shard served requests.
  const auto stats = fleet.stats_json().dump();
  EXPECT_EQ(fleet.up_count(), 3u);
  EXPECT_EQ(fleet.stats().failovers, 0u);
  for (const std::string& id : fleet.shard_ids()) {
    SCOPED_TRACE(id);
    EXPECT_NE(stats.find("\"id\":\"" + id + "\""), std::string::npos);
  }
}

TEST(Router, FailoverReroutesADeadShardsChainsWithoutChangingBytes) {
  if (!rn::transport_supported()) {
    GTEST_SKIP() << "transport requires Linux";
  }
  TestDaemon reference_daemon;
  const Lines workload = fleet_workload();
  const std::vector<Lines> cold_reference =
      run_reference(reference_daemon.port(), workload);
  const std::vector<Lines> warm_reference =
      run_reference(reference_daemon.port(), workload);

  auto s1 = std::make_unique<TestDaemon>();
  auto s2 = std::make_unique<TestDaemon>();
  auto s3 = std::make_unique<TestDaemon>();
  rn::ShardFleet fleet{fleet_options({s1->port(), s2->port(), s3->port()})};
  run_router(fleet, workload);  // warm every shard's cache

  s2.reset();  // fail-stop: the shard is gone, its port closed

  // First post-kill run: chains owned by the dead shard fail over and
  // recompute cold on survivors, so a response's done flag is the warm
  // one when untouched and the cold one when any chain moved — the cell
  // bytes themselves never change.
  const std::vector<Lines> after = run_router(fleet, workload);
  ASSERT_EQ(after.size(), warm_reference.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    const Lines got = sorted(after[i]);
    EXPECT_TRUE(got == sorted(warm_reference[i]) ||
                got == sorted(cold_reference[i]))
        << "response " << i << " matches neither warm nor cold reference";
  }
  EXPECT_GE(fleet.stats().failovers, 1u);
  EXPECT_GE(fleet.stats().replays, 1u);
  EXPECT_EQ(fleet.up_count(), 2u);

  // The failover changed the unit layout: a survivor that inherited
  // chains now receives one merged sub-request covering its old chains
  // plus the inherited ones — a sub-grid it has never cached, so the
  // second post-kill run can still compute (cold done flag, same cell
  // bytes). By the third run the new layout is fully cached: exact warm
  // bytes, down one shard.
  const std::vector<Lines> second = run_router(fleet, workload);
  for (std::size_t i = 0; i < second.size(); ++i) {
    const Lines got = sorted(second[i]);
    EXPECT_TRUE(got == sorted(warm_reference[i]) ||
                got == sorted(cold_reference[i]))
        << "response " << i;
  }
  EXPECT_EQ(run_router(fleet, workload), warm_reference);
}

TEST(Router, RejoinRestoresTheShardAndItsAssignment) {
  if (!rn::transport_supported()) {
    GTEST_SKIP() << "transport requires Linux";
  }
  auto s1 = std::make_unique<TestDaemon>();
  auto s2 = std::make_unique<TestDaemon>();
  const std::uint16_t s2_port = s2->port();
  rn::ShardFleet fleet{fleet_options({s1->port(), s2_port})};

  fleet.probe_round();
  EXPECT_EQ(fleet.up_count(), 2u);
  std::vector<std::string> before;
  for (std::uint64_t key = 0; key < 256; ++key) {
    before.push_back(*fleet.route(key * 0x9e3779b97f4a7c15ULL));
  }

  s2.reset();
  fleet.probe_round();
  EXPECT_EQ(fleet.up_count(), 1u);
  for (std::uint64_t key = 0; key < 256; ++key) {
    EXPECT_NE(*fleet.route(key * 0x9e3779b97f4a7c15ULL),
              "127.0.0.1:" + std::to_string(s2_port));
  }

  // Rebind the shard on its old port (SO_REUSEADDR) and probe: the ring
  // must restore the exact pre-failure assignment.
  rn::NetServerOptions options;
  options.port = s2_port;
  s2 = std::make_unique<TestDaemon>(std::move(options));
  ASSERT_EQ(s2->port(), s2_port);
  fleet.probe_round();
  EXPECT_EQ(fleet.up_count(), 2u);
  EXPECT_GE(fleet.stats().rebalances, 2u);  // down + rejoin
  EXPECT_GE(fleet.stats().probes, 6u);      // 3 rounds x 2 shards
  for (std::uint64_t key = 0; key < 256; ++key) {
    EXPECT_EQ(*fleet.route(key * 0x9e3779b97f4a7c15ULL), before[key]);
  }

  // And the rejoined fleet still serves correct bytes.
  TestDaemon reference_daemon;
  const Lines workload = fleet_workload();
  const std::vector<Lines> reference =
      run_reference(reference_daemon.port(), workload);
  const std::vector<Lines> merged = run_router(fleet, workload);
  ASSERT_EQ(merged.size(), reference.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(sorted(merged[i]), sorted(reference[i])) << "response " << i;
  }
}

TEST(Router, SimulateMergeIsByteIdenticalToASingleDaemonEvenCold) {
  if (!rn::transport_supported()) {
    GTEST_SKIP() << "transport requires Linux";
  }
  // Simulate cells stream sequentially in canonical table order even on
  // a cold compute (parallelism lives inside a cell's campaign), and the
  // router merges into the same order — so unlike the analytic cold
  // comparison above, no per-line sort is needed: exact bytes, cold AND
  // warm, through a 3-shard split.
  const Lines workload = {
      "{\"id\": \"m1\", \"platforms\": [\"hera\", \"atlas\"], "
      "\"node_counts\": [256, 1024], \"kinds\": [\"PD\", \"PDMV\"], "
      "\"mode\": \"simulate\", \"sim\": {\"seed\": 7, \"target_ci\": 0.1, "
      "\"min_runs\": 16, \"max_runs\": 48, \"patterns_per_run\": 20, "
      "\"weibull_shape\": [1.0, 0.7], \"faulty_ops\": [1.0, 0.0]}}",
      "{\"id\": \"m2\", \"platforms\": [\"coastal\"], "
      "\"node_counts\": [512], \"kinds\": [\"PD\"], "
      "\"mode\": \"simulate\", \"sim\": {\"seed\": 7, \"min_runs\": 16, "
      "\"max_runs\": 32, \"patterns_per_run\": 20}}",
  };
  TestDaemon reference_daemon;
  TestDaemon s1, s2, s3;
  const std::vector<Lines> cold_reference =
      run_reference(reference_daemon.port(), workload);
  const std::vector<Lines> warm_reference =
      run_reference(reference_daemon.port(), workload);

  rn::ShardFleet fleet{fleet_options({s1.port(), s2.port(), s3.port()})};
  EXPECT_EQ(run_router(fleet, workload), cold_reference);
  EXPECT_EQ(run_router(fleet, workload), warm_reference);
}

TEST(Router, StatsOptInMergesPerShardBlocksOnTheDoneLine) {
  if (!rn::transport_supported()) {
    GTEST_SKIP() << "transport requires Linux";
  }
  TestDaemon s1, s2, s3;
  rn::ShardFleet fleet{fleet_options({s1.port(), s2.port(), s3.port()})};
  Collector collector;
  rn::RouterSession session(fleet, collector.fn());
  // Multi-chain grid so the fan-out touches more than one shard.
  session.handle_line(
      "{\"id\": \"st\", \"platforms\": [\"hera\", \"atlas\", \"coastal\"], "
      "\"node_counts\": [256, 1024], \"kinds\": [\"PD\"], \"stats\": true}");
  ASSERT_EQ(collector.responses.size(), 1u);
  const std::string& done = collector.responses[0].back();
  ASSERT_NE(done.find("\"type\":\"done\""), std::string::npos) << done;
  // The merged block is {"shards":[{"id":...,"stats":{...}},...]} in
  // fleet configuration order, each entry a shard's service-global
  // snapshot (service/cache/sim blocks).
  const auto shards_at = done.find("\"stats\":{\"shards\":[");
  ASSERT_NE(shards_at, std::string::npos) << done;
  // Entries appear in fleet configuration order; a shard that served no
  // unit of this request is skipped, so check the present ones form a
  // subsequence of the configured order and at least one shard reported.
  std::size_t cursor = shards_at;
  std::size_t present = 0;
  for (const std::string& id : fleet.shard_ids()) {
    const auto at = done.find("\"id\":\"" + id + "\"", cursor);
    if (at != std::string::npos) {
      ++present;
      cursor = at;
    }
  }
  EXPECT_GE(present, 1u) << done;
  EXPECT_NE(done.find("\"tables_computed\":"), std::string::npos) << done;

  // Without the opt-in the done line stays stats-free (byte determinism).
  session.handle_line(
      "{\"id\": \"st2\", \"platforms\": [\"hera\"], \"node_counts\": [256], "
      "\"kinds\": [\"PD\"]}");
  ASSERT_EQ(collector.responses.size(), 2u);
  EXPECT_EQ(collector.responses[1].back().find("\"stats\":"),
            std::string::npos);
}

TEST(Router, AggregateStatsParseStrictlyWithEachCounterSummedOnce) {
  if (!rn::transport_supported()) {
    GTEST_SKIP() << "transport requires Linux";
  }
  namespace ru = resilience::util;
  TestDaemon s1, s2;
  // Different work per shard, sent to each daemon directly.
  const auto serve = [](std::uint16_t port, const Lines& requests) {
    rn::Client client;
    client.connect("127.0.0.1", port);
    for (const std::string& request : requests) {
      EXPECT_TRUE(client.transact(request).complete) << request;
    }
  };
  const auto stats_of = [](std::uint16_t port) {
    rn::Client client;
    client.connect("127.0.0.1", port);
    const rn::Client::Response response =
        client.transact("{\"type\": \"stats\", \"id\": \"s\"}");
    EXPECT_EQ(response.lines.size(), 1u);
    return ru::JsonValue::parse(response.lines.at(0));
  };
  serve(s1.port(), {"{\"id\": \"a\", \"platforms\": [\"hera\"], "
                    "\"node_counts\": [256], \"kinds\": [\"PD\"]}"});
  serve(s2.port(), {"{\"id\": \"b\", \"platforms\": [\"atlas\"], "
                    "\"node_counts\": [512], \"kinds\": [\"PDMV\"]}",
                    "{\"id\": \"c\", \"platforms\": [\"coastal\"], "
                    "\"node_counts\": [1024]}"});
  const ru::JsonValue one = stats_of(s1.port());
  const ru::JsonValue two = stats_of(s2.port());

  rn::ShardFleet fleet{fleet_options({s1.port(), s2.port()})};
  Collector collector;
  rn::RouterSession session(fleet, collector.fn());
  session.handle_line("{\"type\": \"stats\", \"id\": \"agg\"}");
  ASSERT_EQ(collector.responses.size(), 1u);
  ASSERT_EQ(collector.responses[0].size(), 1u);
  // The strict parser rejects a key repeated at any depth.
  ru::JsonValue answer;
  ASSERT_NO_THROW(answer = ru::JsonValue::parse(collector.responses[0][0]))
      << collector.responses[0][0];
  const ru::JsonValue* aggregate = answer.find("aggregate");
  ASSERT_NE(aggregate, nullptr);
  std::set<std::string> keys;
  for (const auto& [key, value] : aggregate->as_object()) {
    EXPECT_TRUE(keys.insert(key).second) << "repeated key " << key;
  }
  ASSERT_NE(aggregate->find("reporting"), nullptr);
  EXPECT_EQ(aggregate->find("reporting")->as_double(), 2.0);
  // Stats requests do not move these blocks (transport counters do), so
  // each aggregate counter is exactly the two shards' sum.
  for (const char* block : {"service", "cache", "sim", "engine"}) {
    SCOPED_TRACE(block);
    const ru::JsonValue* merged = aggregate->find(block);
    ASSERT_NE(merged, nullptr);
    ASSERT_NE(one.find(block), nullptr);
    for (const auto& [key, value] : one.find(block)->as_object()) {
      SCOPED_TRACE(key);
      ASSERT_NE(merged->find(key), nullptr);
      EXPECT_EQ(merged->find(key)->as_double(),
                value.as_double() + two.find(block)->find(key)->as_double());
    }
  }
  EXPECT_EQ(aggregate->find("service")->find("submits")->as_double(), 3.0);
  EXPECT_GT(aggregate->find("engine")->find("lattice_cells")->as_double(), 0.0);
}

TEST(Router, CancelledSessionStopsDispatchingSilently) {
  if (!rn::transport_supported()) {
    GTEST_SKIP() << "transport requires Linux";
  }
  TestDaemon shard;
  rn::ShardFleet fleet{fleet_options({shard.port()})};
  auto cancelled = std::make_shared<std::atomic<bool>>(true);
  Collector collector;
  rn::RouterSession session(fleet, collector.fn(), cancelled);
  session.handle_line(
      "{\"id\": \"c\", \"platforms\": [\"hera\"], \"node_counts\": [512]}");
  // The client is gone: no lines were produced on its behalf.
  EXPECT_TRUE(collector.responses.empty());
  EXPECT_TRUE(collector.current.empty());
}

}  // namespace
