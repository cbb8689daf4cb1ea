// Tests of the benchmark's own pieces: seeded streams, the workload
// invariants the metrics rely on, the span/percentile arithmetic, and the
// liveness guard.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "loadgen.hpp"
#include "metrics.hpp"
#include "procs.hpp"
#include "resilience/core/sweep.hpp"
#include "resilience/net/hash_ring.hpp"
#include "resilience/service/scenario_request.hpp"
#include "resilience/service/sim_service.hpp"
#include "resilience/service/sweep_service.hpp"
#include "workloads.hpp"

namespace pb = perfbench;
namespace rc = resilience::core;
namespace rs = resilience::service;

namespace {

constexpr pb::Workload kAll[] = {pb::Workload::kColdGrid, pb::Workload::kWarmMix,
                                 pb::Workload::kSimCampaign,
                                 pb::Workload::kRouterWarm};

std::string stream_text(pb::Workload workload, std::uint64_t seed) {
  pb::RequestStream stream(workload, seed);
  std::string text;
  for (std::size_t i = 0; i < 200; ++i) {
    text += stream.line(i) + "\n";
  }
  return text;
}

}  // namespace

TEST(Streams, OneSeedGivesByteIdenticalStreams) {
  for (pb::Workload workload : kAll) {
    EXPECT_EQ(stream_text(workload, 7), stream_text(workload, 7))
        << pb::workload_name(workload);
    EXPECT_NE(stream_text(workload, 7), stream_text(workload, 8))
        << pb::workload_name(workload);
  }
}

TEST(Streams, EveryRequestParses) {
  for (pb::Workload workload : kAll) {
    pb::RequestStream stream(workload, 3);
    for (std::size_t i = 0; i < 300; ++i) {
      EXPECT_NO_THROW((void)rs::ScenarioRequest::parse(stream.line(i)))
          << stream.line(i);
    }
  }
}

namespace {

/// The set-up batch followed by the first `n` measured requests.
std::vector<std::string> setup_then_stream(pb::Workload workload,
                                           std::uint64_t seed, std::size_t n) {
  std::vector<std::string> lines = pb::warmup_requests(workload);
  EXPECT_FALSE(lines.empty()) << pb::workload_name(workload);
  pb::RequestStream stream(workload, seed);
  for (std::size_t i = 0; i < n; ++i) {
    lines.push_back(stream.line(i));
  }
  return lines;
}

}  // namespace

TEST(Streams, ColdGridNeverRepeatsAChainKey) {
  std::set<std::uint64_t> keys;
  std::size_t chains = 0;
  for (const std::string& line : setup_then_stream(pb::Workload::kColdGrid, 11, 3000)) {
    const auto request = rs::ScenarioRequest::parse(line);
    for (const rc::GridChain& chain : rc::grid_chains(request.grid, {})) {
      ++chains;
      EXPECT_TRUE(keys.insert(chain.key.value).second) << line;
    }
  }
  EXPECT_EQ(keys.size(), chains);
}

TEST(Streams, SimCampaignNeverRepeatsASimSignature) {
  rs::SweepService service;
  std::set<std::uint64_t> signatures;
  for (const std::string& line : setup_then_stream(pb::Workload::kSimCampaign, 5, 3000)) {
    const auto request = rs::ScenarioRequest::parse(line);
    ASSERT_TRUE(request.simulate);
    EXPECT_TRUE(signatures.insert(service.sim().signature_for(request).value).second)
        << line;
  }
}

TEST(Streams, WarmSetsAreDistinctAndFitTheCache) {
  rs::SweepService service;
  for (pb::Workload workload : {pb::Workload::kWarmMix, pb::Workload::kRouterWarm}) {
    for (std::uint64_t seed : {1ULL, 2ULL, 99ULL}) {
      const auto set = pb::warm_set(workload, seed);
      ASSERT_FALSE(set.empty());
      EXPECT_LE(set.size(),
                static_cast<std::size_t>(pb::server_plan(workload).cache_capacity));
      std::set<std::uint64_t> signatures;
      for (const std::string& line : set) {
        signatures.insert(
            service.signature_for(rs::ScenarioRequest::parse(line)).value);
      }
      EXPECT_EQ(signatures.size(), set.size()) << pb::workload_name(workload);
    }
  }
}

TEST(Streams, RouterWarmGridsReachEveryShard) {
  const pb::ServerPlan plan = pb::server_plan(pb::Workload::kRouterWarm);
  resilience::net::HashRing ring;
  for (const std::string& id : pb::shard_ids(plan)) {
    ring.add(id);
  }
  for (const std::string& line : pb::warm_set(pb::Workload::kRouterWarm, 4)) {
    std::set<std::string> owners;
    for (const auto& chain :
         rc::grid_chains(rs::ScenarioRequest::parse(line).grid, {})) {
      owners.insert(*ring.owner(chain.key.value));
    }
    EXPECT_EQ(owners.size(), 3u) << line;
  }
}

TEST(Arithmetic, PercentileInterpolatesBetweenOrderStatistics) {
  std::vector<double> values = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(pb::percentile(values, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(pb::percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(pb::percentile(values, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(pb::percentile(values, 0.99), 3.97);
  std::vector<double> one = {7.0};
  EXPECT_DOUBLE_EQ(pb::percentile(one, 0.99), 7.0);
  std::vector<double> none;
  EXPECT_DOUBLE_EQ(pb::percentile(none, 0.5), 0.0);
}

TEST(Arithmetic, WindowedRateIsTheMedianWindowAndIgnoresAStall) {
  // Four windows of two completions; a 3 s stall spoils the third only.
  const std::vector<double> done = {0.5, 1.0, 1.5, 2.0, 5.0, 5.5, 6.0, 6.5};
  EXPECT_DOUBLE_EQ(pb::windowed_rate(done, std::vector<double>(8, 1.0), 4), 2.0);
  const std::vector<double> cells = {3, 1, 2, 2, 0, 4, 1, 1};
  // Window rates 4/1, 4/1, 4/3.5, 2/1 -> median of {1.14, 2, 4, 4} = 3.
  EXPECT_DOUBLE_EQ(pb::windowed_rate(done, cells, 4), 3.0);
  EXPECT_DOUBLE_EQ(pb::windowed_rate(done, std::vector<double>(8, 1.0), 9), 0.0);
}

TEST(Arithmetic, WindowedMedianIsTheMedianOfWindowMedians) {
  // Windows {1,2,3} {1,2,9} {50,60,70}: medians 2, 2, 60 -> 2, where the
  // plain median of all nine values would be 3.
  const std::vector<double> values = {1, 2, 3, 1, 2, 9, 50, 60, 70};
  EXPECT_DOUBLE_EQ(pb::windowed_median(values, 3), 2.0);
  EXPECT_DOUBLE_EQ(pb::windowed_median(values, 10), 3.0);
  EXPECT_EQ(values.front(), 1.0);  // input order untouched
}

TEST(Arithmetic, QuieterHalfKeepsTheLeastStolenWindowsInsideThePhase) {
  // Five 10 ns windows; the phase [5, 50] holds the 2nd to 4th wholly.
  const std::vector<pb::Window> windows = {
      {0, 10, 0.0, 1.0},  {10, 20, 0.4, 1.0}, {20, 30, 0.1, 1.0},
      {30, 40, 0.1, 1.0}, {40, 50, 0.0, 1.0},
  };
  const auto quiet = pb::quieter_half(windows, 5, 50);
  // Four windows inside (10..50): the two least stolen, ties to the
  // earlier, returned in time order.
  ASSERT_EQ(quiet.size(), 2u);
  EXPECT_EQ(quiet[0].begin_ns, 20);
  EXPECT_EQ(quiet[1].begin_ns, 40);
  EXPECT_EQ(pb::quieter_half(windows, 0, 30).size(), 2u);  // 3 inside, rounded up
  EXPECT_TRUE(pb::quieter_half(windows, 12, 28).empty());
}

TEST(Arithmetic, QuietFiguresCountOnlyTheSelectedWindows) {
  const std::vector<pb::Window> quiet = {{0, 100, 0.0, 2.0}, {200, 300, 0.0, 2.0}};
  const std::vector<pb::Completion> done = {
      {0, 50'000'000, 4.0},     // 50 ms across both; completes outside
      {90, 99, 1.0},            // 9 ns, inside the first
      {150, 250, 10.0},         // half of its life in the second
      {280, 290, 2.0},          // inside the second
      {295, 310, 3.0},          // completes after the second ends
  };
  // Latencies of the requests completing inside: 9, 100 and 10 ns.
  EXPECT_DOUBLE_EQ(pb::median_latency_ms(quiet, done), 10e-6);
  // Cells credited by overlap, 2 x 100 ns of 50 ms * 4 + 1 + 5 + 2 +
  // 5/15 * 3, over 4 CPU seconds.
  EXPECT_NEAR(pb::cells_per_cpu_s(quiet, done), (16e-6 + 1 + 5 + 2 + 1) / 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(pb::cells_per_cpu_s({}, done), 0.0);
}

TEST(Arithmetic, SelfTimeSubtractsMergedChildCoverage) {
  // root [0, 100): a [10, 30), b [20, 50) overlapping a, c [90, 120)
  // clipped to the root; a has a child d [12, 14).
  std::vector<pb::Span> spans = {
      {1, -1, "request", 0, 100}, {1, 0, "a", 10, 30}, {1, 0, "b", 20, 50},
      {1, 0, "c", 90, 120},       {1, 1, "d", 12, 14}, {2, -1, "request", 200, 210},
  };
  const auto times = pb::self_times(spans);
  // root covered by [10, 50) and [90, 100): 50 of 100 ns; request 2 is bare.
  EXPECT_DOUBLE_EQ(times.at("request").self_ns, 50.0 + 10.0);
  EXPECT_EQ(times.at("request").calls, 2u);
  EXPECT_DOUBLE_EQ(times.at("a").self_ns, 18.0);
  EXPECT_DOUBLE_EQ(times.at("b").self_ns, 30.0);
  EXPECT_DOUBLE_EQ(times.at("c").self_ns, 30.0);
  EXPECT_DOUBLE_EQ(times.at("d").self_ns, 2.0);
}

TEST(Arithmetic, DisabledTracerRecordsNothing) {
  pb::Tracer tracer(false);
  { pb::Scope scope(tracer, 1, -1, "request"); }
  EXPECT_TRUE(tracer.spans().empty());
  pb::Tracer on(true);
  {
    pb::Scope root(on, 3, -1, "request");
    pb::Scope child(on, 3, root.index(), "layer");
  }
  ASSERT_EQ(on.spans().size(), 2u);
  EXPECT_EQ(on.spans()[1].parent, 0);
  EXPECT_LE(on.spans()[0].start_ns, on.spans()[1].start_ns);
  EXPECT_GE(on.spans()[0].end_ns, on.spans()[1].end_ns);
}

TEST(Liveness, SilentListenerFailsRequestsInsteadOfHanging) {
  // Accepted by the kernel's backlog, never read, never answered.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 8), 0);
  socklen_t length = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &length), 0);
  const auto port = ntohs(addr.sin_port);

  pb::RequestStream stream(pb::Workload::kWarmMix, 1);
  const pb::LineFn line = [&stream](std::size_t i) -> const std::string& {
    return stream.line(i);
  };
  const pb::CheckFn accept_all = [](std::size_t, const std::string&) {
    return std::string();
  };
  const auto start = std::chrono::steady_clock::now();
  {
    pb::Generator closed(port, 2, 300);
    std::string error;
    ASSERT_TRUE(closed.connect(&error)) << error;
    std::size_t next = 0;
    const pb::PhaseResult result = closed.closed_loop(line, 3, 0.2, accept_all, next);
    EXPECT_EQ(result.attempted, 6u);
    EXPECT_EQ(result.failed, 6u);
    EXPECT_EQ(result.completed, 0u);
    EXPECT_NE(result.failure.find("stalled"), std::string::npos) << result.failure;
  }
  {
    pb::Generator open(port, 1, 300);
    std::string error;
    ASSERT_TRUE(open.connect(&error)) << error;
    std::size_t next = 0;
    const pb::PhaseResult result =
        open.open_loop(line, {0.0, 0.01, 0.02}, accept_all, next);
    EXPECT_EQ(result.failed, result.attempted);
    EXPECT_GE(result.failed, 1u);
  }
  std::string error;
  EXPECT_TRUE(pb::transact(port, {R"({"type":"ping","id":"x"})"}, 200, &error).empty());
  EXPECT_NE(error.find("no answer"), std::string::npos) << error;
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  ::close(listener);
}

TEST(Liveness, ADaemonConnectionCarriesMoreThanEightMiBOfRequests) {
  // sweep_serverd stops reading a connection once the request text it has
  // executed there reaches half of --write-buf-limit (it adds each line's
  // size and never takes it back out). The benchmark's daemons must carry
  // a whole run on one connection: here 1 s of 200 KiB ping lines, tens
  // of MiB, where the default limit would wedge after 8 MiB.
  const std::string run_dir = "perfbench-test-run";
  ::mkdir(run_dir.c_str(), 0755);
  std::string error;
  const auto fleet =
      pb::start_fleet(pb::server_plan(pb::Workload::kWarmMix), run_dir, &error);
  ASSERT_NE(fleet, nullptr) << error;
  const std::string ping =
      R"({"type":"ping","id":")" + std::string(200 << 10, 'x') + R"("})";
  const pb::LineFn line = [&ping](std::size_t) -> const std::string& { return ping; };
  const pb::CheckFn accept_all = [](std::size_t, const std::string&) {
    return std::string();
  };
  pb::Generator generator(fleet->port, 1, 2000);
  ASSERT_TRUE(generator.connect(&error)) << error;
  std::size_t next = 0;
  const pb::PhaseResult result = generator.closed_loop(line, 1, 1.0, accept_all, next);
  EXPECT_EQ(result.failed, 0u) << result.failure;
  EXPECT_GT(result.completed * ping.size(), std::size_t{12} << 20);
}

TEST(Liveness, BytesThatArrivedWhileTheGeneratorWasBusyAreNoStall) {
  // Two connections; the server answers the second 100 ms late. The first
  // answer's check keeps the generator busy for 300 ms, past the 200 ms
  // stall limit, while the second answer arrives and waits in the socket.
  // It must be read before any silence is judged.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 8), 0);
  socklen_t length = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &length), 0);
  const auto port = ntohs(addr.sin_port);
  auto answer_lines = [](int fd, std::chrono::milliseconds delay) {
    char buffer[4096];
    for (ssize_t n; (n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0;) {
      for (ssize_t i = 0; i < n; ++i) {
        if (buffer[i] == '\n') {
          std::this_thread::sleep_for(delay);
          const std::string done = "{\"type\":\"done\"}\n";
          (void)::send(fd, done.data(), done.size(), MSG_NOSIGNAL);
        }
      }
    }
    ::close(fd);
  };
  std::thread server([&] {
    std::vector<std::thread> connections;
    for (auto delay : {std::chrono::milliseconds(0), std::chrono::milliseconds(100)}) {
      const int fd = ::accept(listener, nullptr, nullptr);
      if (fd < 0) {
        break;
      }
      connections.emplace_back(answer_lines, fd, delay);
    }
    for (std::thread& connection : connections) {
      connection.join();
    }
  });

  pb::RequestStream stream(pb::Workload::kWarmMix, 1);
  const pb::LineFn line = [&stream](std::size_t i) -> const std::string& {
    return stream.line(i);
  };
  bool busy_once = false;
  const pb::CheckFn slow_first = [&busy_once](std::size_t, const std::string&) {
    if (!busy_once) {
      busy_once = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
    return std::string();
  };
  {
    pb::Generator generator(port, 2, 200);
    std::string error;
    ASSERT_TRUE(generator.connect(&error)) << error;
    std::size_t next = 0;
    const pb::PhaseResult result = generator.closed_loop(line, 1, 0.4, slow_first, next);
    EXPECT_TRUE(busy_once);
    EXPECT_EQ(result.failed, 0u) << result.failure;
    EXPECT_EQ(result.completed, result.attempted);
  }
  server.join();
  ::close(listener);
}
