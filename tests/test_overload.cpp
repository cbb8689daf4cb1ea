// Scheduler and admission-control invariants of the overload-hardened
// daemon (PR 8): weighted-fair queueing lets cheap requests from other
// connections overtake a heavy client's backlog (starvation-freedom);
// a request whose deadline expires while queued answers its located
// error without ever reaching a worker; admission sheds answer in
// per-connection request order with the retriable "overloaded" code and
// a retry_after_ms hint; and a ResilientClient that is shed heals by
// waiting the hint out and re-sending — ending with bytes identical to
// an unloaded run. Plus unit coverage of the pieces: the cache-aware
// cost estimator and the power-of-two latency histogram.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "resilience/net/client.hpp"
#include "resilience/net/resilient_client.hpp"
#include "resilience/net/server.hpp"
#include "resilience/net/socket.hpp"
#include "resilience/service/cost_model.hpp"
#include "resilience/service/jsonl_session.hpp"
#include "resilience/service/line_session.hpp"
#include "resilience/service/scenario_request.hpp"
#include "resilience/service/serialize.hpp"
#include "resilience/service/sweep_service.hpp"
#include "resilience/util/json.hpp"

namespace rn = resilience::net;
namespace rs = resilience::service;
namespace util = resilience::util;

namespace {

using Lines = std::vector<std::string>;

class TestDaemon {
 public:
  explicit TestDaemon(rn::NetServerOptions options = {})
      : server_(std::move(options)), thread_([this] { server_.run(); }) {}

  ~TestDaemon() {
    server_.stop();
    thread_.join();
  }

  rn::NetServer& operator*() noexcept { return server_; }
  rn::NetServer* operator->() noexcept { return &server_; }
  [[nodiscard]] std::uint16_t port() const noexcept { return server_.port(); }

 private:
  rn::NetServer server_;
  std::thread thread_;
};

/// A grid heavy enough (3 platforms x 24 nodes x 6 rates x 2 families =
/// 864 cells) that formatting+computing it holds the single worker for
/// a scheduling-visible stretch on any machine.
std::string heavy_request(const std::string& id, int salt) {
  std::string nodes;
  for (int i = 0; i < 24; ++i) {
    nodes += (i == 0 ? "" : ", ") + std::to_string(64 + salt + i * 32);
  }
  return "{\"id\": \"" + id +
         "\", \"platforms\": [\"hera\", \"atlas\", \"coastal\"], "
         "\"node_counts\": [" +
         nodes +
         "], \"rate_factors\": [{\"fail_stop\": 0.25}, {\"fail_stop\": 0.5}, "
         "{\"fail_stop\": 1.0}, {\"fail_stop\": 2.0}, {\"fail_stop\": 4.0}, "
         "{\"fail_stop\": 8.0}], \"kinds\": [\"PD\", \"PDMV\"]}";
}

std::string cheap_request(const std::string& id, std::size_t nodes) {
  return "{\"id\": \"" + id +
         "\", \"platforms\": [\"hera\"], \"node_counts\": [" +
         std::to_string(nodes) + "], \"kinds\": [\"PD\"]}";
}

const util::JsonValue* find_field(const util::JsonValue& json,
                                  const std::string& key) {
  return json.find(key);
}

/// Bounded poll for a server-state predicate; false = timed out.
template <typename Pred>
[[nodiscard]] bool eventually(Pred pred, int timeout_ms = 30000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

}  // namespace

// ======================================================== cost model ==

TEST(CostModel, ColdHeavyCostsMoreThanColdCheap) {
  const rs::ScenarioRequest heavy =
      rs::ScenarioRequest::parse(heavy_request("h", 0));
  const rs::ScenarioRequest cheap =
      rs::ScenarioRequest::parse(cheap_request("c", 512));
  const rs::CostEstimate heavy_cost =
      rs::estimate_cost(rs::resolve_request(heavy), nullptr);
  const rs::CostEstimate cheap_cost =
      rs::estimate_cost(rs::resolve_request(cheap), nullptr);
  EXPECT_GT(heavy_cost.units, 100.0 * cheap_cost.units);
  EXPECT_EQ(heavy_cost.cells, 864u);
  EXPECT_EQ(cheap_cost.cells, 1u);
  EXPECT_FALSE(heavy_cost.identity_hit);
}

TEST(CostModel, WarmIdentityReplayEstimatesNearZero) {
  rs::SweepService service;
  const rs::ScenarioRequest request =
      rs::ScenarioRequest::parse(cheap_request("w", 768));
  const rs::CostEstimate cold =
      rs::estimate_cost(rs::resolve_request(request), &service);
  EXPECT_FALSE(cold.identity_hit);
  service.submit(request, nullptr, {});
  const rs::CostEstimate warm =
      rs::estimate_cost(rs::resolve_request(request), &service);
  EXPECT_TRUE(warm.identity_hit);
  EXPECT_LT(warm.units, cold.units / 100.0);
}

TEST(CostModel, NonScenarioLinesAreNotScenarioPriced) {
  rs::LineCost ping = rs::estimate_line_cost("{\"type\":\"ping\"}", nullptr, 0);
  EXPECT_FALSE(ping.scenario);
  rs::LineCost garbage = rs::estimate_line_cost("not json at all", nullptr, 0);
  EXPECT_FALSE(garbage.scenario);
  rs::LineCost scenario =
      rs::estimate_line_cost(cheap_request("s", 256), nullptr, 0);
  EXPECT_TRUE(scenario.scenario);
  EXPECT_GT(scenario.estimate.units, 0.0);
}

// ================================================== latency histogram ==

TEST(LatencyHistogram, RecordsCountsTotalsAndApproxPercentiles) {
  rn::LatencyHistogram h;
  EXPECT_EQ(h.approx_percentile_us(0.5), 0u);
  for (std::uint64_t us : {1u, 2u, 3u, 100u, 1000u}) {
    h.record(us);
  }
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.total_us, 1106u);
  EXPECT_EQ(h.max_us, 1000u);
  // p50 falls in the bucket holding 2-3 us; the reported value is that
  // bucket's upper bound.
  EXPECT_GE(h.approx_percentile_us(0.5), 3u);
  EXPECT_LE(h.approx_percentile_us(0.5), 3u);
  EXPECT_GE(h.approx_percentile_us(1.0), 1000u);
}

TEST(LatencyHistogram, PercentilesNeverExceedTheMax) {
  // One 178251 us sample sits in the bucket bounded by 2^18 - 1 = 262143;
  // a percentile reporting that bound would claim a latency never seen.
  rn::LatencyHistogram h;
  h.record(178251);
  EXPECT_EQ(h.max_us, 178251u);
  EXPECT_EQ(h.approx_percentile_us(0.5), h.max_us);
  EXPECT_EQ(h.approx_percentile_us(0.99), h.max_us);
}

// ============================================== scheduler invariants ==

TEST(Overload, CheapRequestOvertakesAHeavyBacklog) {
  if (!rn::transport_supported()) {
    GTEST_SKIP() << "transport requires Linux";
  }
  rn::NetServerOptions options;
  options.request_workers = 1;  // one lane: scheduling order is visible
  TestDaemon daemon(std::move(options));

  // Connection A floods its pipeline with heavy work...
  rn::Client heavy_client;
  heavy_client.connect("127.0.0.1", daemon.port());
  std::string barrage;
  constexpr int kHeavy = 4;
  for (int i = 0; i < kHeavy; ++i) {
    barrage += heavy_request("h" + std::to_string(i), i * 1000);
    barrage += '\n';
  }
  heavy_client.send_raw(barrage);

  // ...while connection B asks for one cell. Start-time fair queueing
  // must dispatch B's request past A's queued backlog: when B's answer
  // arrives, A must still have work waiting (with FIFO it would drain
  // A's entire barrage first).
  rn::Client cheap_client;
  cheap_client.connect("127.0.0.1", daemon.port());
  cheap_client.set_receive_timeout(30000);
  const rn::Client::Response response =
      cheap_client.transact(cheap_request("b", 512));
  ASSERT_TRUE(response.complete);
  EXPECT_NE(response.lines.back().find("\"type\":\"done\""),
            std::string::npos);

  const rn::OverloadStats stats = daemon->overload_stats();
  EXPECT_GE(stats.queued_depth, 1u)
      << "the heavy backlog drained before the cheap request answered — "
         "fairness was not exercised (or not honored)";

  // A's own stream still answers completely and in order.
  heavy_client.set_receive_timeout(60000);
  for (int i = 0; i < kHeavy; ++i) {
    const rn::Client::Response heavy_response = heavy_client.read_response();
    ASSERT_TRUE(heavy_response.complete);
    EXPECT_NE(heavy_response.lines.back().find("\"request\":\"h" +
                                               std::to_string(i) + "\""),
              std::string::npos);
  }
}

TEST(Overload, DeadlineExpiredInQueueNeverReachesAWorker) {
  if (!rn::transport_supported()) {
    GTEST_SKIP() << "transport requires Linux";
  }
  rn::NetServerOptions options;
  options.request_workers = 1;
  TestDaemon daemon(std::move(options));

  // The worker is pinned by a heavy request; the 1 ms-deadline request
  // behind it must expire while queued.
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());
  client.set_receive_timeout(60000);
  std::string expiring = cheap_request("expired", 640);
  expiring.back() = ' ';  // strip the closing brace...
  expiring += ", \"deadline_ms\": 1}";
  client.send_raw(heavy_request("pin", 1500) + "\n" + expiring + "\n");

  const rn::Client::Response pinned = client.read_response();
  ASSERT_TRUE(pinned.complete);
  const rn::Client::Response shed = client.read_response();
  ASSERT_TRUE(shed.complete);
  ASSERT_EQ(shed.lines.size(), 1u);
  EXPECT_NE(shed.lines[0].find("\"type\":\"error\""), std::string::npos)
      << shed.lines[0];
  EXPECT_NE(shed.lines[0].find("\"field\":\"deadline_ms\""),
            std::string::npos);
  EXPECT_NE(shed.lines[0].find("expired while the request was queued"),
            std::string::npos)
      << shed.lines[0];

  const rn::OverloadStats stats = daemon->overload_stats();
  EXPECT_EQ(stats.shed_expired, 1u);
  // Exactly the two admitted scenario requests minus the expired one
  // reached a worker.
  EXPECT_EQ(daemon->stats().requests_started, 1u);

  // The expired line still counts toward default ids: the next id-less
  // line is this connection's third.
  const rn::Client::Response pong = client.transact("{\"type\": \"ping\"}");
  ASSERT_TRUE(pong.complete);
  EXPECT_EQ(pong.lines, std::vector<std::string>{
                            "{\"type\":\"pong\",\"request\":\"line-3\"}"});
}

TEST(Overload, AdmissionShedsAnswerInRequestOrderWithRetryAfter) {
  if (!rn::transport_supported()) {
    GTEST_SKIP() << "transport requires Linux";
  }
  rn::NetServerOptions options;
  options.request_workers = 1;
  options.max_queue_depth = 1;  // one waiting request, everything else sheds
  TestDaemon daemon(std::move(options));

  rn::Client client;
  client.connect("127.0.0.1", daemon.port());
  client.set_receive_timeout(60000);
  // Pin the worker first and only then pipeline the rest: a barrage that
  // arrives in one read event is admitted before any dispatch, where the
  // queue-empty exception covers just its FIRST request.
  client.send_raw(heavy_request("r1", 2000) + "\n");
  ASSERT_TRUE(eventually([&] { return daemon->stats().requests_started >= 1; }))
      << "the pinning request never reached the worker";
  client.send_raw(heavy_request("r2", 2500) + "\n" +
                  cheap_request("r3", 544) + "\n" +
                  cheap_request("r4", 576) + "\n");

  // Responses arrive strictly in request order: r1 computes, r2 is
  // admitted (queue empty while r1 executes), r3/r4 find the queue at
  // its depth bound and are shed with the retriable code and a
  // drain-rate hint.
  for (const std::string id : {"r1", "r2"}) {
    const rn::Client::Response response = client.read_response();
    ASSERT_TRUE(response.complete);
    EXPECT_NE(response.lines.back().find("\"request\":\"" + id + "\""),
              std::string::npos)
        << response.lines.back();
    EXPECT_NE(response.lines.back().find("\"type\":\"done\""),
              std::string::npos);
  }
  for (const std::string id : {"r3", "r4"}) {
    const rn::Client::Response response = client.read_response();
    ASSERT_TRUE(response.complete);
    ASSERT_EQ(response.lines.size(), 1u);
    const util::JsonValue json = util::JsonValue::parse(response.lines[0]);
    ASSERT_NE(find_field(json, "request"), nullptr);
    EXPECT_EQ(find_field(json, "request")->as_string(), id);
    ASSERT_NE(find_field(json, "code"), nullptr);
    EXPECT_EQ(find_field(json, "code")->as_string(), "overloaded");
    ASSERT_NE(find_field(json, "retry_after_ms"), nullptr);
    EXPECT_GE(find_field(json, "retry_after_ms")->as_double(), 1.0);
  }
  // Shed lines still count toward default ids: the next id-less line is
  // this connection's fifth.
  const rn::Client::Response pong = client.transact("{\"type\": \"ping\"}");
  ASSERT_TRUE(pong.complete);
  EXPECT_EQ(pong.lines, std::vector<std::string>{
                            "{\"type\":\"pong\",\"request\":\"line-5\"}"});

  const rn::OverloadStats stats = daemon->overload_stats();
  EXPECT_EQ(stats.shed_overload, 2u);
  EXPECT_EQ(stats.admitted, 2u);
}

TEST(Overload, ResilientClientHealsThroughAShedOnceLoadDrains) {
  if (!rn::transport_supported()) {
    GTEST_SKIP() << "transport requires Linux";
  }
  // Reference bytes from an unloaded daemon. Caching and seed reuse are
  // off on both daemons so every round recomputes cold and the done-line
  // flags cannot drift between rounds (cold single-cell request: fully
  // deterministic stream).
  const auto cold_options = [] {
    rn::NetServerOptions options;
    options.service.cache_capacity = 0;
    options.service.reuse_seeds = false;
    return options;
  };
  Lines expected;
  {
    TestDaemon reference(cold_options());
    rn::Client client;
    client.connect("127.0.0.1", reference.port());
    const rn::Client::Response response =
        client.transact(cheap_request("heal", 896));
    ASSERT_TRUE(response.complete);
    expected = response.lines;
  }

  rn::NetServerOptions options = cold_options();
  options.request_workers = 1;
  options.max_queue_depth = 1;
  TestDaemon daemon(std::move(options));

  // The healer connects while the daemon is idle: its connect probe would
  // queue behind the pinned worker and give the queue time to drain under
  // its feet.
  rn::ResilientClientOptions client_options;
  client_options.host = "127.0.0.1";
  client_options.port = daemon.port();
  client_options.max_attempts = 64;
  client_options.receive_timeout_ms = 60000;
  rn::ResilientClient healer(client_options);
  ASSERT_TRUE(healer.transact("{\"type\": \"ping\", \"id\": \"p\"}").complete);

  // Saturate deterministically: pin the worker with one heavy request,
  // then queue a second so the waiting queue sits at its depth bound
  // when the healer's request lands.
  const std::uint64_t started = daemon->stats().requests_started;
  rn::Client flood;
  flood.connect("127.0.0.1", daemon.port());
  flood.send_raw(heavy_request("f0", 0) + "\n");
  ASSERT_TRUE(eventually(
      [&] { return daemon->stats().requests_started >= started + 1; }))
      << "the pinning request never reached the worker";
  flood.send_raw(heavy_request("f1", 50) + "\n");
  ASSERT_TRUE(
      eventually([&] { return daemon->overload_stats().queued_depth >= 1; }))
      << "the second flood request never queued";

  // First attempt is shed (queue at bound); the healer waits the
  // server's retry_after_ms out and re-sends until the flood drains.
  const rn::Client::Response healed =
      healer.transact(cheap_request("heal", 896));
  ASSERT_TRUE(healed.complete);
  EXPECT_GE(healer.stats().overloaded, 1u)
      << "the healer was never shed despite the queue sitting at its bound";
  // The FINAL answer (post-retry) is the real response — byte-identical
  // to the unloaded daemon's, shed detour notwithstanding.
  EXPECT_EQ(healed.lines, expected);
  EXPECT_GE(daemon->overload_stats().shed_overload, 1u);

  flood.set_receive_timeout(60000);
  for (int i = 0; i < 2; ++i) {
    const rn::Client::Response response = flood.read_response();
    ASSERT_TRUE(response.complete);
  }
}

TEST(Overload, StatsAnswerCarriesTransportBlock) {
  if (!rn::transport_supported()) {
    GTEST_SKIP() << "transport requires Linux";
  }
  TestDaemon daemon;
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());
  const rn::Client::Response cheap =
      client.transact(cheap_request("warm", 960));
  ASSERT_TRUE(cheap.complete);
  const rn::Client::Response stats =
      client.transact("{\"type\": \"stats\", \"id\": \"s\"}");
  ASSERT_TRUE(stats.complete);
  ASSERT_EQ(stats.lines.size(), 1u);
  const util::JsonValue json = util::JsonValue::parse(stats.lines[0]);
  const util::JsonValue* transport = json.find("transport");
  ASSERT_NE(transport, nullptr) << stats.lines[0];
  const util::JsonValue* scheduler = transport->find("scheduler");
  ASSERT_NE(scheduler, nullptr);
  EXPECT_GE(scheduler->find("admitted")->as_double(), 1.0);
  const util::JsonValue* latency = transport->find("latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_NE(latency->find("queue_wait"), nullptr);
  EXPECT_NE(latency->find("compute"), nullptr);
  EXPECT_NE(latency->find("write"), nullptr);
}

namespace {

/// Holds every scenario until `release` is ready, then answers it with
/// a pong line: requests behind the held one park in the backlog.
class HeldSession final : public rs::LineSession {
 public:
  HeldSession(std::shared_future<void> release, LineFn emit,
              std::shared_ptr<const std::atomic<bool>> cancelled)
      : LineSession(std::move(emit), std::move(cancelled)),
        release_(std::move(release)) {}

 private:
  std::string stats_answer(const std::string& id) override {
    return rs::pong_line(id);
  }
  void serve_scenario(rs::ResolvedRequest& request) override {
    release_.wait();
    emit(rs::pong_line(request.request.id), true);
  }

  std::shared_future<void> release_;
};

/// A one-worker daemon of HeldSessions. Reading pauses once a
/// connection's backlog holds 128 KiB (write_buffer_limit / 2), counted
/// in bytes only (no pipeline-depth bound).
class HeldDaemon {
 public:
  HeldDaemon() : daemon_(options(released_)) {}
  ~HeldDaemon() { release(); }  // the drain must not wait on a held session

  void release() {
    if (!released_yet_) {
      released_yet_ = true;
      gate_.set_value();
    }
  }
  TestDaemon& operator*() noexcept { return daemon_; }

 private:
  static rn::NetServerOptions options(std::shared_future<void> released) {
    rn::NetServerOptions options;
    options.request_workers = 1;
    options.max_pipeline_depth = 0;
    options.write_buffer_limit = 256 * 1024;
    options.session_factory =
        [released](rs::LineSession::LineFn emit,
                   std::shared_ptr<std::atomic<bool>> cancel) {
          return std::make_unique<HeldSession>(released, std::move(emit),
                                               std::move(cancel));
        };
    return options;
  }

  std::promise<void> gate_;
  std::shared_future<void> released_ = gate_.get_future().share();
  bool released_yet_ = false;
  TestDaemon daemon_;
};

/// A ~700-byte line that resolves 1,024 points (64 node counts x 16 rate
/// factors, ~180 KB): one parked copy crosses HeldDaemon's 128 KiB mark.
std::string kilo_point_line(const std::string& id,
                            const std::string& extra = "") {
  std::string nodes;
  for (int i = 0; i < 64; ++i) {
    nodes += (i == 0 ? "" : ", ") + std::to_string(256 + i);
  }
  std::string rates;
  for (int i = 0; i < 16; ++i) {
    rates += std::string(i == 0 ? "" : ", ") + "{\"fail_stop\": " +
             std::to_string(1 + i) + "}";
  }
  return "{\"id\": \"" + id +
         "\", \"platforms\": [\"hera\"], \"kinds\": [\"PD\"], "
         "\"node_counts\": [" +
         nodes + "], \"rate_factors\": [" + rates + "]" + extra + "}\n";
}

}  // namespace

TEST(Overload, ParkedResolvedPointsCountTowardTheReadPause) {
  // Each request here resolves 1,024 points, so one parked request
  // crosses the read-pause mark while the 100 lines' text (~70 KB) never
  // does: only by counting the resolved points does the pause bound what
  // a pipelining client parks. A one-point request goes first and is
  // held on the one worker; the other 99 follow in one write. A read
  // takes at most 16 KiB, so the daemon admits a few dozen of them at
  // most; without the points counted it reads and resolves all of them.
  if (!rn::transport_supported()) {
    GTEST_SKIP() << "transport requires Linux";
  }
  HeldDaemon held;
  TestDaemon& daemon = *held;
  constexpr std::size_t kLines = 100;
  const std::string first =
      "{\"id\": \"p0\", \"platforms\": [\"hera\"], \"kinds\": [\"PD\"]}\n";
  std::string burst;
  for (std::size_t i = 1; i < kLines; ++i) {
    burst += kilo_point_line("p" + std::to_string(i));
  }
  ASSERT_LT(first.size() + burst.size(), 128u * 1024u);
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());
  client.send_raw(first);
  ASSERT_TRUE(
      eventually([&] { return daemon->stats().requests_started >= 1; }));
  client.send_raw(burst);

  const auto admitted = [&] { return daemon->overload_stats().admitted; };
  ASSERT_TRUE(eventually([&] { return admitted() >= 2; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_LT(admitted(), kLines) << "the backlog's resolved points did not "
                                   "pause reading";

  held.release();
  for (std::size_t i = 0; i < kLines; ++i) {
    const rn::Client::Response response = client.read_response();
    ASSERT_TRUE(response.complete) << "response " << i;
    ASSERT_EQ(response.lines,
              Lines{"{\"type\":\"pong\",\"request\":\"p" +
                    std::to_string(i) + "\"}"});
  }
  EXPECT_EQ(admitted(), kLines);
}

TEST(Overload, AQueueExpiryLiftsTheReadPauseItsGridHeld) {
  // One parked 1,024-point grid holds the read-pause by itself. When it
  // expires in the queue its deadline error is answered inline, without
  // a worker; the pause must lift there as it does when a request runs,
  // or the connection's next line is never read. The ping usually waits
  // in the socket before the expiry, so epoll must report it on the lift.
  if (!rn::transport_supported()) {
    GTEST_SKIP() << "transport requires Linux";
  }
  HeldDaemon held;
  TestDaemon& daemon = *held;
  rn::Client holder;  // keeps the one worker busy
  holder.connect("127.0.0.1", daemon.port());
  holder.set_receive_timeout(30000);
  holder.send_raw(
      "{\"id\": \"h\", \"platforms\": [\"hera\"], \"kinds\": [\"PD\"]}\n");
  ASSERT_TRUE(
      eventually([&] { return daemon->stats().requests_started >= 1; }));

  rn::Client client;
  client.connect("127.0.0.1", daemon.port());
  client.set_receive_timeout(10000);
  client.send_raw(kilo_point_line("g", ", \"deadline_ms\": 300"));
  ASSERT_TRUE(
      eventually([&] { return daemon->overload_stats().admitted >= 2; }));
  client.send_raw("{\"type\": \"ping\"}\n");
  const rn::Client::Response expired = client.read_response();
  ASSERT_TRUE(expired.complete);
  ASSERT_EQ(expired.lines.size(), 1u);
  EXPECT_NE(expired.lines[0].find("expired while the request was queued"),
            std::string::npos)
      << expired.lines[0];
  EXPECT_EQ(daemon->overload_stats().shed_expired, 1u);

  held.release();
  ASSERT_TRUE(holder.read_response().complete);
  rn::Client::Response pong;
  ASSERT_NO_THROW(pong = client.read_response())
      << "the line after the expired grid was never read";
  EXPECT_EQ(pong.lines,
            Lines{"{\"type\":\"pong\",\"request\":\"line-2\"}"});
}

TEST(Overload, AHalfClosedConnectionClosesAfterItsLastLineExpires) {
  // The client sends one request and half-closes. While the one worker
  // is busy elsewhere, the request's deadline passes in the queue and
  // the scheduler's timer answers the expiry, on no event of this
  // connection. Its backlog is then empty and its input closed, so the
  // server must close it right there: the loop writes its own answers
  // without waking itself, so no later wake-up would.
  if (!rn::transport_supported()) {
    GTEST_SKIP() << "transport requires Linux";
  }
  HeldDaemon held;
  TestDaemon& daemon = *held;
  rn::Client holder;
  holder.connect("127.0.0.1", daemon.port());
  holder.send_raw(
      "{\"id\": \"h\", \"platforms\": [\"hera\"], \"kinds\": [\"PD\"]}\n");
  ASSERT_TRUE(
      eventually([&] { return daemon->stats().requests_started >= 1; }));

  rn::Client client;
  client.connect("127.0.0.1", daemon.port());
  client.set_receive_timeout(10000);
  client.send_line(
      "{\"id\": \"late\", \"platforms\": [\"hera\"], \"kinds\": [\"PD\"], "
      "\"deadline_ms\": 50}");
  client.shutdown_send();
  const std::optional<std::string> expired = client.read_line();
  ASSERT_TRUE(expired.has_value());
  EXPECT_NE(expired->find("expired while the request was queued"),
            std::string::npos)
      << *expired;
  std::optional<std::string> after;
  ASSERT_NO_THROW(after = client.read_line())
      << "the server left the finished connection open";
  EXPECT_EQ(after, std::nullopt);
  held.release();
}

// ============================================ answers from memory ==

namespace {

/// The stdin path over `input` with a service of `cache_capacity` tables.
Lines stdin_lines(const Lines& input, std::size_t cache_capacity) {
  rs::ServiceOptions options;
  options.cache_capacity = cache_capacity;
  rs::SweepService service(options);
  Lines out;
  rs::JsonlSession session(service, [&out](std::string&& line, bool) {
    out.push_back(std::move(line));
  });
  for (const std::string& line : input) {
    session.handle_line(line);
  }
  return out;
}

/// A counter of a daemon's {"type":"stats"} answer.
double stat(rn::Client& client, const char* block, const char* key) {
  const rn::Client::Response response =
      client.transact("{\"type\": \"stats\"}");
  EXPECT_TRUE(response.complete);
  return util::JsonValue::parse(response.lines.back())
      .find(block)
      ->find(key)
      ->as_double();
}

}  // namespace

TEST(Overload, ATableEvictedBeforeItsTurnIsRecomputedOnAWorker) {
  // Capacity 1: the repeat of `table` is admitted while its table is
  // resident, queued behind `evictor` on the same connection, and the
  // evictor's publish evicts it before its turn. The loop's replay-only
  // try then misses, so a worker recomputes it: the stdin path's bytes,
  // and no answer from memory.
  if (!rn::transport_supported()) {
    GTEST_SKIP() << "transport requires Linux";
  }
  rn::NetServerOptions options;
  options.request_workers = 2;
  options.service.cache_capacity = 1;
  TestDaemon daemon(std::move(options));
  const std::string table = cheap_request("t", 1088);
  const std::string evictor =
      "{\"id\": \"e\", \"platforms\": [\"hera\", \"atlas\"], "
      "\"node_counts\": [1120, 1152, 1184, 1216], \"kinds\": [\"PD\", "
      "\"PDMV\"]}";
  const Lines expected = stdin_lines({table, evictor, table}, 1);

  rn::Client client;
  client.connect("127.0.0.1", daemon.port());
  client.set_receive_timeout(60000);
  Lines got = client.transact(table).lines;
  client.send_raw(evictor + "\n" + table + "\n");
  for (int i = 0; i < 2; ++i) {
    const rn::Client::Response response = client.read_response();
    ASSERT_TRUE(response.complete);
    got.insert(got.end(), response.lines.begin(), response.lines.end());
  }
  // The evictor's 16 cells stream in pool order; compare its set.
  std::sort(got.begin() + 2, got.end() - 2);
  Lines sorted_expected = expected;
  std::sort(sorted_expected.begin() + 2, sorted_expected.end() - 2);
  EXPECT_EQ(got, sorted_expected);
  EXPECT_NE(got.back().find("\"cache_hit\":false"), std::string::npos);
  EXPECT_EQ(daemon->stats().served_inline, 0u);
  EXPECT_EQ(stat(client, "service", "tables_computed"), 3.0);
}

TEST(Overload, DiskTierAndOversizedHitsAreServedOnAWorker) {
  // The loop replays only memory-resident tables of at most
  // kMaxInlineCells cells. A hit on a spilled table (the loop never
  // loads from disk) and a resident hit over the bound go to a worker,
  // which serves both as cache hits.
  if (!rn::transport_supported()) {
    GTEST_SKIP() << "transport requires Linux";
  }
  const std::filesystem::path dir = "overload_inline_cache";
  std::filesystem::remove_all(dir);
  {
    rn::NetServerOptions options;
    options.service.cache_capacity = 1;
    options.service.cache_dir = dir.string();
    TestDaemon daemon(std::move(options));
    rn::Client client;
    client.connect("127.0.0.1", daemon.port());
    client.set_receive_timeout(60000);

    const std::string spilled = cheap_request("d", 1248);
    ASSERT_TRUE(client.transact(spilled).complete);
    ASSERT_TRUE(client.transact(cheap_request("e", 1280)).complete);
    const rn::Client::Response reloaded = client.transact(spilled);
    ASSERT_TRUE(reloaded.complete);
    EXPECT_NE(reloaded.lines.back().find("\"cache_hit\":true"),
              std::string::npos);
    EXPECT_EQ(stat(client, "service", "disk_hits"), 1.0);
    EXPECT_EQ(daemon->stats().served_inline, 0u);

    // 4 platforms x 12 node counts x 6 families, first-order only.
    std::string nodes;
    for (int i = 0; i < 12; ++i) {
      nodes += (i == 0 ? "" : ", ") + std::to_string(256 * (i + 1));
    }
    const std::string oversized =
        "{\"id\": \"big\", \"platforms\": [\"hera\", \"atlas\", "
        "\"coastal\", \"coastal_ssd\"], \"node_counts\": [" +
        nodes + "], \"numeric_optimum\": false}";
    static_assert(4 * 12 * 6 > rn::kMaxInlineCells);
    ASSERT_TRUE(client.transact(oversized).complete);
    const rn::Client::Response hit = client.transact(oversized);
    ASSERT_TRUE(hit.complete);
    ASSERT_EQ(hit.lines.size(), 4u * 12u * 6u + 1u);
    EXPECT_NE(hit.lines.back().find("\"cache_hit\":true"), std::string::npos);
    EXPECT_EQ(stat(client, "service", "cache_hits"), 2.0);
    EXPECT_EQ(daemon->stats().served_inline, 0u);
  }
  std::filesystem::remove_all(dir);
}
