// Chaos suite: the production daemon behind a seeded fault-injecting
// proxy (net::ChaosProxy), driven by the self-healing client
// (net::ResilientClient). For every fault seed the workload must
// complete, every completed response must be byte-identical to a
// fault-free run, and the daemon must come out of the barrage still
// serving — torn reads, stalls and connection kills are the proxy's
// problem to inject and the client's problem to survive, never an
// excuse for wrong bytes.
//
// Byte-identity strategy: the daemon's cache is warmed first, so every
// run under chaos is a cache-hit replay (cells in table order — fully
// deterministic) compared against a warm fault-free reference. Requests
// carry explicit ids because resilient retries land on fresh
// connections, where default "line-N" ids restart.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "resilience/net/client.hpp"
#include "resilience/net/fault.hpp"
#include "resilience/net/resilient_client.hpp"
#include "resilience/net/server.hpp"
#include "resilience/net/socket.hpp"

namespace rn = resilience::net;

namespace {

using Lines = std::vector<std::string>;

/// NetServer on a background thread; the destructor drains and joins.
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

/// The chaos workload: explicit ids (retries land on fresh connections),
/// a multi-cell grid among them so responses span many lines and torn
/// boundaries land inside cell lines, not only between responses.
Lines chaos_workload() {
  return {
      "{\"id\": \"c1\", \"platforms\": [\"hera\"], \"node_counts\": [512], "
      "\"kinds\": [\"PD\"]}",
      "{\"id\": \"c2\", \"platforms\": [\"hera\", \"atlas\"], "
      "\"node_counts\": [256, 1024]}",
      "{\"id\": \"c3\", \"platforms\": [\"coastal\"], "
      "\"node_counts\": [4096], \"kinds\": [\"PD\", \"PDMV\"]}",
      "{\"type\": \"ping\", \"id\": \"c4\"}",
  };
}

/// An aggressive-but-bounded profile: tiny chunks (boundaries land
/// everywhere), frequent short stalls, kills well inside the retry
/// budget of the client driving it.
rn::FaultProfile chaos_profile() {
  rn::FaultProfile profile;
  profile.max_chunk_bytes = 64;
  profile.stall_every = 32;
  profile.stall_max_ms = 1;
  profile.kill_every = 48;
  profile.kill_budget = 4;
  return profile;
}

TEST(Chaos, SixteenSeedsByteIdenticalAndDaemonSurvives) {
  if (!rn::transport_supported()) {
    GTEST_SKIP() << "transport requires Linux";
  }
  TestDaemon daemon;
  const Lines workload = chaos_workload();

  // Warm the cache, then record the warm fault-free reference: every
  // chaos run is compared against these exact bytes.
  std::vector<Lines> reference;
  {
    rn::Client client;
    client.connect("127.0.0.1", daemon.port());
    for (const std::string& request : workload) {
      ASSERT_TRUE(client.transact(request).complete) << "warm-up";
    }
    for (const std::string& request : workload) {
      rn::Client::Response response = client.transact(request);
      ASSERT_TRUE(response.complete) << "reference";
      reference.push_back(std::move(response.lines));
    }
  }

  std::uint64_t total_kills = 0;
  std::uint64_t total_retries = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    rn::ChaosProxyOptions proxy_options;
    proxy_options.upstream_port = daemon.port();
    proxy_options.seed = seed;
    proxy_options.profile = chaos_profile();
    rn::ChaosProxy proxy(proxy_options);
    ASSERT_NO_THROW(proxy.start()) << "seed " << seed;

    rn::ResilientClientOptions client_options;
    client_options.port = proxy.port();
    client_options.connect_timeout_ms = 2000;
    client_options.receive_timeout_ms = 10000;
    // More attempts than the proxy has kills: completion is guaranteed,
    // so a failure here is a real bug, not bad luck.
    client_options.max_attempts =
        static_cast<int>(proxy_options.profile.kill_budget) + 4;
    client_options.jitter_seed = seed;
    rn::ResilientClient client(client_options);

    for (std::size_t i = 0; i < workload.size(); ++i) {
      rn::Client::Response response;
      ASSERT_NO_THROW(response = client.transact(workload[i]))
          << "seed " << seed << " request " << i;
      EXPECT_TRUE(response.complete) << "seed " << seed << " request " << i;
      EXPECT_EQ(response.lines, reference[i])
          << "seed " << seed << " request " << i;
    }
    client.close();
    proxy.stop();
    total_kills += proxy.stats().kills;
    total_retries += client.stats().retries;
  }
  // The barrage must have actually injected faults somewhere across the
  // 16 schedules, or this test proved nothing.
  EXPECT_GT(total_kills, 0u);
  EXPECT_GT(total_retries, 0u);

  // The daemon took every kill in stride: a direct, proxy-free client
  // still gets the exact warm bytes.
  rn::Client direct;
  direct.connect("127.0.0.1", daemon.port());
  for (std::size_t i = 0; i < workload.size(); ++i) {
    rn::Client::Response response = direct.transact(workload[i]);
    ASSERT_TRUE(response.complete) << "post-chaos request " << i;
    EXPECT_EQ(response.lines, reference[i]) << "post-chaos request " << i;
  }
}

TEST(Chaos, ByteAtATimeProxyStillServesIdenticalBytes) {
  if (!rn::transport_supported()) {
    GTEST_SKIP() << "transport requires Linux";
  }
  // max_chunk_bytes = 1: every single byte is its own read/write, the
  // worst possible framing torture, with no kills — pure reassembly.
  TestDaemon daemon;
  const std::string request =
      "{\"id\": \"b\", \"platforms\": [\"hera\"], \"node_counts\": [512], "
      "\"kinds\": [\"PD\"]}";
  Lines expected;
  {
    rn::Client client;
    client.connect("127.0.0.1", daemon.port());
    ASSERT_TRUE(client.transact(request).complete);  // warm
    expected = client.transact(request).lines;
  }

  rn::ChaosProxyOptions proxy_options;
  proxy_options.upstream_port = daemon.port();
  proxy_options.seed = 99;
  proxy_options.profile.max_chunk_bytes = 1;
  proxy_options.profile.stall_every = 0;
  proxy_options.profile.kill_every = 0;
  rn::ChaosProxy proxy(proxy_options);
  proxy.start();

  rn::Client client;
  client.connect("127.0.0.1", proxy.port());
  client.set_receive_timeout(30000);
  const rn::Client::Response response = client.transact(request);
  EXPECT_TRUE(response.complete);
  EXPECT_EQ(response.lines, expected);
  client.close();
  proxy.stop();
  EXPECT_GT(proxy.stats().forwarded_bytes, 0u);
}

TEST(Chaos, ResilientClientHealsAcrossAGuaranteedKill) {
  if (!rn::transport_supported()) {
    GTEST_SKIP() << "transport requires Linux";
  }
  // kill_every = 1: EVERY chunk kills while budget lasts — the first
  // attempts are guaranteed to die mid-flight, and the client must heal
  // once the budget (the "network repair") is spent.
  TestDaemon daemon;
  const std::string request =
      "{\"id\": \"k\", \"platforms\": [\"hera\"], \"node_counts\": [512], "
      "\"kinds\": [\"PD\"]}";
  Lines expected;
  {
    rn::Client warm;
    warm.connect("127.0.0.1", daemon.port());
    ASSERT_TRUE(warm.transact(request).complete);
    expected = warm.transact(request).lines;
  }

  rn::ChaosProxyOptions proxy_options;
  proxy_options.upstream_port = daemon.port();
  proxy_options.seed = 5;
  proxy_options.profile.kill_every = 1;
  proxy_options.profile.kill_budget = 3;
  proxy_options.profile.stall_every = 0;
  rn::ChaosProxy proxy(proxy_options);
  proxy.start();

  rn::ResilientClientOptions client_options;
  client_options.port = proxy.port();
  client_options.max_attempts = 10;
  client_options.jitter_seed = 5;
  rn::ResilientClient client(client_options);
  rn::Client::Response response;
  ASSERT_NO_THROW(response = client.transact(request));
  EXPECT_TRUE(response.complete);
  EXPECT_EQ(response.lines, expected);
  EXPECT_GT(client.stats().retries + client.stats().reconnects, 0u);
  client.close();
  proxy.stop();
  EXPECT_EQ(proxy.stats().kill_budget_left, 0u);
  EXPECT_GE(proxy.stats().kills, 1u);
}

}  // namespace
