// End-to-end tests of the epoll transport daemon (net::NetServer +
// net::Client): responses byte-identical to the stdin sweep_server path
// (both run service::JsonlSession, and these tests pin that the network
// adds nothing), pipelining order, two concurrent pipelined clients,
// cancellation on disconnect, the connection limit, oversized-line
// rejection, slow-client drop, the stats surface, the graceful drain and
// its deadline, accepting after descriptor exhaustion, and the event
// loop's timers and interrupt.
//
// Determinism note: requests here use single-cell grids, so even a
// cache-miss compute streams its one cell in a deterministic order and
// full response streams compare with EXPECT_EQ — no sort-normalization
// needed (the CI net smoke covers the multi-cell case).

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "resilience/net/client.hpp"
#include "resilience/net/event_loop.hpp"
#include "resilience/net/server.hpp"
#include "resilience/net/socket.hpp"
#include "resilience/service/jsonl_session.hpp"
#include "resilience/util/json.hpp"

namespace rn = resilience::net;
namespace rs = resilience::service;
namespace util = resilience::util;

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

/// One-cell scenario request: deterministic response bytes even on a
/// cache miss (single chain, single cell).
std::string one_cell_request(const std::string& id, const std::string& platform,
                             std::size_t nodes) {
  return "{\"id\": \"" + id + "\", \"platforms\": [\"" + platform +
         "\"], \"node_counts\": [" + std::to_string(nodes) +
         "], \"kinds\": [\"PD\"]}";
}

/// The stdin sweep_server path in-process: a fresh service + JsonlSession
/// over the given input lines — the byte-for-byte reference every
/// transport response is held to.
Lines stdin_path_lines(const Lines& input) {
  rs::SweepService service;  // defaults match NetServerOptions::service
  Lines out;
  rs::JsonlSession session(service, [&out](std::string&& line, bool) {
    out.push_back(std::move(line));
  });
  for (const std::string& line : input) {
    session.handle_line(line);
  }
  return out;
}

Lines flatten(const std::vector<Lines>& responses) {
  Lines out;
  for (const Lines& response : responses) {
    out.insert(out.end(), response.begin(), response.end());
  }
  return out;
}

/// Unwraps a response the test expects the server to have finished; an
/// incomplete one (server closed mid-response) fails the test here
/// instead of as a confusing line-diff downstream.
Lines complete_lines(rn::Client::Response response) {
  EXPECT_TRUE(response.complete);
  return std::move(response.lines);
}

TEST(NetServer, ServesByteIdenticalToStdinPath) {
  const Lines input{
      "# comment lines count toward line numbering",
      one_cell_request("", "hera", 512),  // empty id -> default "line-2"
      "",
      one_cell_request("again", "hera", 512),     // cache hit
      "{\"id\": \"bad\", \"platforms\": [\"hera\"], \"node_counts\": [0]}",
      "not json at all",
  };
  const Lines expected = stdin_path_lines(input);
  ASSERT_FALSE(expected.empty());

  TestDaemon daemon;
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());
  Lines got;
  for (const std::string& line : input) {
    client.send_line(line);
  }
  // 4 request lines (comment + blank excluded) -> 4 responses.
  for (int i = 0; i < 4; ++i) {
    const Lines response = complete_lines(client.read_response());
    ASSERT_FALSE(response.empty()) << "response " << i;
    got.insert(got.end(), response.begin(), response.end());
  }
  EXPECT_EQ(got, expected);

  // The default "line-N" ids must match the stdin numbering (comments
  // and blanks counted), or the two paths are not interchangeable.
  bool saw_line2 = false;
  for (const std::string& line : got) {
    if (line.find("\"request\":\"line-2\"") != std::string::npos) {
      saw_line2 = true;
    }
  }
  EXPECT_TRUE(saw_line2);
}

TEST(NetServer, TwoConcurrentPipelinedClientsMatchTheirSerialReferences) {
  // Disjoint request sets (no cross-client cache interference in the
  // done-line flags); each client's stream must equal ITS OWN stdin-path
  // reference byte for byte, concurrency notwithstanding.
  const Lines input_a{
      one_cell_request("a1", "hera", 256),
      one_cell_request("a2", "hera", 1024),
      one_cell_request("a3", "hera", 256),  // repeat -> cache_hit
  };
  const Lines input_b{
      one_cell_request("b1", "atlas", 256),
      one_cell_request("b2", "atlas", 2048),
      one_cell_request("b3", "atlas", 2048),  // repeat -> cache_hit
  };
  const Lines expected_a = stdin_path_lines(input_a);
  const Lines expected_b = stdin_path_lines(input_b);

  TestDaemon daemon;
  std::atomic<bool> failed{false};
  const auto drive = [&](const Lines& input, const Lines& expected) {
    try {
      rn::Client client;
      client.connect("127.0.0.1", daemon.port());
      std::string all;
      for (const std::string& line : input) {
        all += line;
        all += '\n';
      }
      client.send_raw(all);  // pipelined: every request before any read
      std::vector<Lines> responses;
      for (std::size_t i = 0; i < input.size(); ++i) {
        rn::Client::Response response = client.read_response();
        if (!response.complete) {
          failed.store(true);
        }
        responses.push_back(std::move(response.lines));
      }
      if (flatten(responses) != expected) {
        failed.store(true);
      }
    } catch (...) {
      failed.store(true);
    }
  };
  std::thread thread_a(drive, input_a, expected_a);
  std::thread thread_b(drive, input_b, expected_b);
  thread_a.join();
  thread_b.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(daemon->stats().accepted, 2u);
  EXPECT_EQ(daemon->stats().requests_started, 6u);
}

TEST(NetServer, PipelinedResponsesArriveInRequestOrder) {
  TestDaemon daemon;
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());
  constexpr int kRequests = 12;
  std::string all;
  for (int i = 0; i < kRequests; ++i) {
    // Alternate two grids so hits and misses interleave.
    all += one_cell_request("r" + std::to_string(i), "hera",
                            i % 2 == 0 ? 512 : 4096);
    all += '\n';
  }
  client.send_raw(all);
  for (int i = 0; i < kRequests; ++i) {
    const Lines response = complete_lines(client.read_response());
    ASSERT_FALSE(response.empty());
    const std::string tag = "\"request\":\"r" + std::to_string(i) + "\"";
    for (const std::string& line : response) {
      EXPECT_NE(line.find(tag), std::string::npos)
          << "response " << i << " carried: " << line;
    }
    EXPECT_NE(response.back().find("\"type\":\"done\""), std::string::npos);
  }
}

TEST(NetServer, StatsRequestAndOptInDoneLineStats) {
  TestDaemon daemon;
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());

  // A stats request answers with one stats line.
  const Lines stats0 =
      complete_lines(client.transact("{\"type\": \"stats\", \"id\": \"s0\"}"));
  ASSERT_EQ(stats0.size(), 1u);
  EXPECT_NE(stats0[0].find("\"type\":\"stats\""), std::string::npos);
  EXPECT_NE(stats0[0].find("\"request\":\"s0\""), std::string::npos);
  EXPECT_NE(stats0[0].find("\"submits\":0"), std::string::npos);
  EXPECT_NE(stats0[0].find("\"cache\":{"), std::string::npos);

  // A scenario request with "stats": true gets the snapshot on its done
  // line; without the flag the done line stays stats-free.
  const std::string with_stats =
      "{\"id\": \"w\", \"platforms\": [\"hera\"], \"node_counts\": [512], "
      "\"kinds\": [\"PD\"], \"stats\": true}";
  const Lines first = complete_lines(client.transact(with_stats));
  ASSERT_FALSE(first.empty());
  EXPECT_NE(first.back().find("\"stats\":{\"service\":{\"submits\":1"),
            std::string::npos);
  const Lines plain =
      complete_lines(client.transact(one_cell_request("p", "hera", 512)));
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(plain.back().find("\"stats\":{"), std::string::npos);

  // After a miss + a hit the counters must say so.
  const Lines stats1 = complete_lines(client.transact("{\"type\": \"stats\"}"));
  ASSERT_EQ(stats1.size(), 1u);
  EXPECT_NE(stats1[0].find("\"submits\":2"), std::string::npos);
  EXPECT_NE(stats1[0].find("\"cache_hits\":1"), std::string::npos);
  EXPECT_NE(stats1[0].find("\"tables_computed\":1"), std::string::npos);
}

TEST(NetServer, UnknownTypeAnswersErrorLine) {
  TestDaemon daemon;
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());
  const Lines response = complete_lines(
      client.transact("{\"type\": \"shutdown\", \"id\": \"x\"}"));
  ASSERT_EQ(response.size(), 1u);
  EXPECT_NE(response[0].find("\"type\":\"error\""), std::string::npos);
  EXPECT_NE(response[0].find("unknown request type 'shutdown'"),
            std::string::npos);
}

TEST(NetServer, DisconnectMidRequestLeavesServerServing) {
  TestDaemon daemon;
  {
    rn::Client dropper;
    dropper.connect("127.0.0.1", daemon.port());
    // A 24-cell batch: enough work that the disconnect lands mid-compute
    // on most runs (the cancellation path), and a correctness no-op when
    // it doesn't.
    dropper.send_line(
        "{\"id\": \"doomed\", \"platforms\": [\"hera\", \"atlas\"], "
        "\"node_counts\": [256, 1024]}");
    // Wait until the request actually started executing, then vanish.
    for (int i = 0; i < 1000 && daemon->stats().requests_started == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(daemon->stats().requests_started, 1u);
    dropper.close();
  }
  // The server must keep serving other clients, bit-for-bit correct.
  const Lines input{one_cell_request("after", "hera", 512)};
  const Lines expected = stdin_path_lines(input);
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());
  EXPECT_EQ(complete_lines(client.transact(input[0])), expected);
}

TEST(NetServer, ConnectionLimitAnswersErrorAndCloses) {
  rn::NetServerOptions options;
  options.max_connections = 1;
  TestDaemon daemon(std::move(options));

  rn::Client first;
  first.connect("127.0.0.1", daemon.port());
  // Prove the slot is actually taken (accept is asynchronous).
  const Lines ok =
      complete_lines(first.transact(one_cell_request("one", "hera", 512)));
  ASSERT_FALSE(ok.empty());

  rn::Client second;
  second.connect("127.0.0.1", daemon.port());
  const std::optional<std::string> line = second.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(line->find("\"type\":\"error\""), std::string::npos);
  EXPECT_NE(line->find("connection limit reached (1)"), std::string::npos);
  EXPECT_EQ(second.read_line(), std::nullopt);  // closed after the reply
  EXPECT_GE(daemon->stats().rejected_over_limit, 1u);

  // The admitted client is unaffected.
  EXPECT_FALSE(
      complete_lines(first.transact(one_cell_request("two", "hera", 1024)))
          .empty());
}

TEST(NetServer, OversizedLineGetsLocatedErrorThenClose) {
  rn::NetServerOptions options;
  options.max_line_bytes = 1024;
  TestDaemon daemon(std::move(options));
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());

  // A good request pipelined ahead of the monster line must still get
  // its full response, in order, before the framing error line.
  client.send_line(one_cell_request("good", "hera", 512));
  client.send_line(std::string(4096, 'x'));
  const Lines good = complete_lines(client.read_response());
  ASSERT_FALSE(good.empty());
  EXPECT_NE(good.back().find("\"request\":\"good\""), std::string::npos);
  EXPECT_NE(good.back().find("\"type\":\"done\""), std::string::npos);

  const Lines error = complete_lines(client.read_response());
  ASSERT_EQ(error.size(), 1u);
  EXPECT_NE(error[0].find("\"type\":\"error\""), std::string::npos);
  EXPECT_NE(error[0].find("\"request\":\"line-2\""), std::string::npos);
  EXPECT_NE(error[0].find("1024-byte line limit"), std::string::npos);
  EXPECT_EQ(client.read_line(), std::nullopt);  // no resync: closed
  EXPECT_EQ(daemon->stats().dropped_framing, 1u);
}

TEST(NetServer, SlowClientIsDroppedAtTheWriteBufferLimit) {
  rn::NetServerOptions options;
  options.write_buffer_limit = 32 * 1024;
  options.send_buffer_bytes = 4 * 1024;  // keep kernel buffering small
  TestDaemon daemon(std::move(options));
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());

  // ~200 first-order-only cells per request, several requests, and a
  // client that never reads: the outbound queue must cross the limit and
  // the daemon must drop the connection rather than buffer without
  // bound.
  std::string request =
      "{\"platforms\": [\"hera\"], \"numeric_optimum\": false, "
      "\"rate_factors\": [";
  for (int i = 0; i < 200; ++i) {
    if (i > 0) {
      request += ", ";
    }
    request += "{\"fail_stop\": " + std::to_string(1.0 + i * 0.01) + "}";
  }
  request += "]}";
  for (int i = 0; i < 8; ++i) {
    client.send_line(request);
  }
  for (int i = 0; i < 10000 && daemon->stats().dropped_slow == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(daemon->stats().dropped_slow, 1u);
}

TEST(NetServer, GracefulDrainFinishesReceivedRequestsThenCloses) {
  auto daemon = std::make_unique<TestDaemon>();
  rn::Client client;
  client.connect("127.0.0.1", daemon->port());
  const std::string request = one_cell_request("draining", "hera", 512);
  const Lines expected = stdin_path_lines({request});
  client.send_line(request);
  // Stop only once the request is in execution: "already received" work
  // must complete and flush through the drain.
  for (int i = 0; i < 5000 && (*daemon)->stats().requests_started == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ((*daemon)->stats().requests_started, 1u);
  (*daemon)->stop();

  Lines got;
  for (;;) {
    std::optional<std::string> line = client.read_line();
    if (!line.has_value()) {
      break;  // drained and closed
    }
    got.push_back(std::move(*line));
  }
  EXPECT_EQ(got, expected);
  daemon.reset();  // run() must have returned; join succeeds
}

/// Blocks in every scenario until its connection's cancel flag flips:
/// only a force-close ends such a request.
class StuckSession final : public rs::LineSession {
 public:
  StuckSession(LineFn emit, std::shared_ptr<const std::atomic<bool>> cancel)
      : LineSession(std::move(emit), std::move(cancel)) {}

 private:
  std::string stats_answer(const std::string& id) override {
    return rs::pong_line(id);
  }
  void serve_scenario(rs::ResolvedRequest&) override {
    while (!cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
};

TEST(NetServer, DrainDeadlineForceClosesBusyConnections) {
  using Clock = std::chrono::steady_clock;
  rn::NetServerOptions options;
  options.drain_timeout_ms = 200;
  options.session_factory = [](rs::LineSession::LineFn emit,
                               std::shared_ptr<std::atomic<bool>> cancel) {
    return std::make_unique<StuckSession>(std::move(emit), std::move(cancel));
  };
  rn::NetServer server(std::move(options));
  Clock::time_point returned{};
  std::thread serving([&] {
    server.run();
    returned = Clock::now();
  });
  rn::Client client;
  client.connect("127.0.0.1", server.port());
  client.send_line(one_cell_request("stuck", "hera", 512));
  for (int i = 0; i < 5000 && server.stats().requests_started == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.stats().requests_started, 1u);

  const Clock::time_point stopped = Clock::now();
  server.stop();
  serving.join();
  // The drain waits out its deadline for the stuck request, then closes
  // the connection (which cancels the session) and returns.
  EXPECT_GE(returned - stopped, std::chrono::milliseconds(200));
  EXPECT_LT(returned - stopped, std::chrono::seconds(10));
  client.set_receive_timeout(5000);
  EXPECT_EQ(client.read_line(), std::nullopt);  // EOF, with no answer
}

TEST(NetServer, HalfClosingClientGetsAllResponsesThenEof) {
  // The `printf ... | nc` shape: send everything, half-close, read until
  // the server closes. The server must answer every request and then
  // close on its own — regression for the connection lingering open
  // after its last response drains on a pure writability edge.
  TestDaemon daemon;
  const Lines input{
      one_cell_request("h1", "hera", 512),
      one_cell_request("h2", "hera", 1024),
  };
  const Lines expected = stdin_path_lines(input);
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());
  for (const std::string& line : input) {
    client.send_line(line);
  }
  client.shutdown_send();
  Lines got;
  for (;;) {
    std::optional<std::string> line = client.read_line();
    if (!line.has_value()) {
      break;  // the server closed; no drain was requested
    }
    got.push_back(std::move(*line));
  }
  EXPECT_EQ(got, expected);
}

TEST(NetServer, FramingErrorBehindAFullPipelineStillDrainsTheBacklog) {
  // Regression: a burst that trips the pipeline-depth read hold AND ends
  // in an oversized line (input_closed while read_hold is set) must
  // still answer every queued request and the deferred framing error —
  // the hold-release path used to strand the backlog.
  rn::NetServerOptions options;
  options.max_pipeline_depth = 4;
  options.max_line_bytes = 512;
  TestDaemon daemon(std::move(options));
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());

  constexpr int kRequests = 8;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += one_cell_request("f" + std::to_string(i), "hera", 512);
    burst += '\n';
  }
  burst += std::string(2048, 'x');
  burst += '\n';
  client.send_raw(burst);

  for (int i = 0; i < kRequests; ++i) {
    const Lines response = complete_lines(client.read_response());
    ASSERT_FALSE(response.empty()) << "response " << i;
    EXPECT_NE(response.back().find("\"request\":\"f" + std::to_string(i) +
                                   "\""),
              std::string::npos);
  }
  const Lines error = complete_lines(client.read_response());
  ASSERT_EQ(error.size(), 1u);
  EXPECT_NE(error[0].find("512-byte line limit"), std::string::npos);
  EXPECT_EQ(client.read_line(), std::nullopt);
}

TEST(NetServer, CrlfRequestsAreServed) {
  TestDaemon daemon;
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());
  const std::string request = one_cell_request("crlf", "hera", 512);
  const Lines expected = stdin_path_lines({request});
  client.send_raw(request + "\r\n");
  EXPECT_EQ(complete_lines(client.read_response()), expected);
}

TEST(NetServer, ExecutedRequestsReleaseTheirBacklogBytes) {
  // A connection stops being read while its queued request text exceeds
  // write_buffer_limit / 2, and resumes below a quarter. Executed lines
  // must leave that count: if they stayed in it, one serial client would
  // wedge for good after write_buffer_limit / 2 bytes of requests. 400
  // pings are ~13 KiB, over three times a 4 KiB limit.
  rn::NetServerOptions options;
  options.write_buffer_limit = 4 * 1024;
  TestDaemon daemon(std::move(options));
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());
  client.set_receive_timeout(10000);  // a wedged read fails, never hangs

  std::size_t sent_bytes = 0;
  for (int i = 0; i < 400; ++i) {
    const std::string id = "b" + std::to_string(i);
    const std::string ping = "{\"type\": \"ping\", \"id\": \"" + id + "\"}";
    sent_bytes += ping.size() + 1;
    const Lines response = complete_lines(client.transact(ping));
    ASSERT_EQ(response.size(), 1u) << "ping " << i;
    ASSERT_EQ(response[0], "{\"type\":\"pong\",\"request\":\"" + id + "\"}");
  }
  EXPECT_GT(sent_bytes, 3u * 4u * 1024u);
}

TEST(NetServer, PingAnswersOnePongLine) {
  TestDaemon daemon;
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());

  const std::string ping = "{\"type\": \"ping\", \"id\": \"hp\"}";
  const Lines response = complete_lines(client.transact(ping));
  ASSERT_EQ(response.size(), 1u);
  EXPECT_EQ(response[0], "{\"type\":\"pong\",\"request\":\"hp\"}");
  // Same bytes as the stdin path — the probe is part of the protocol,
  // not a daemon-only extra.
  EXPECT_EQ(response, stdin_path_lines({ping}));

  // A ping is not a compute submit: the counters must stay untouched.
  const Lines stats = complete_lines(client.transact("{\"type\": \"stats\"}"));
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_NE(stats[0].find("\"submits\":0"), std::string::npos);
}

/// Lowers this process's soft descriptor limit to at most `soft` while
/// it lives, then restores it.
class DescriptorLimit {
 public:
  explicit DescriptorLimit(rlim_t soft) {
    lowered_ = ::getrlimit(RLIMIT_NOFILE, &saved_) == 0;
    rlimit lowered = saved_;
    lowered.rlim_cur = std::min(soft, saved_.rlim_cur);
    lowered_ = lowered_ && ::setrlimit(RLIMIT_NOFILE, &lowered) == 0;
  }
  ~DescriptorLimit() {
    if (lowered_) {
      ::setrlimit(RLIMIT_NOFILE, &saved_);
    }
  }
  DescriptorLimit(const DescriptorLimit&) = delete;
  DescriptorLimit& operator=(const DescriptorLimit&) = delete;

  [[nodiscard]] bool lowered() const noexcept { return lowered_; }

 private:
  rlimit saved_{};
  bool lowered_ = false;
};

TEST(NetServer, AConnectionPendingThroughDescriptorExhaustionIsServed) {
  // An accept that fails with EMFILE leaves the connection queued in
  // the kernel, and the edge-triggered listener reports no new edge for
  // it: the server must accept again on its own, not wait for another
  // client to connect.
  TestDaemon daemon;
  rn::Client client;
  {
    const DescriptorLimit limit(512);
    ASSERT_TRUE(limit.lowered());
    std::vector<rn::Fd> filler;
    for (;;) {
      const int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
      if (fd < 0) {
        ASSERT_EQ(errno, EMFILE);
        break;
      }
      filler.emplace_back(fd);
    }
    ASSERT_FALSE(filler.empty());
    filler.pop_back();  // the one free slot: the client's socket
    client.connect("127.0.0.1", daemon.port());
    client.send_line("{\"type\": \"ping\", \"id\": \"exhausted\"}");
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(daemon->stats().accepted, 0u);  // no slot to accept into
  }  // the descriptors close, then the limit is restored
  client.set_receive_timeout(5000);
  const Lines response = complete_lines(client.read_response());
  EXPECT_EQ(response,
            Lines{"{\"type\":\"pong\",\"request\":\"exhausted\"}"});
  EXPECT_EQ(daemon->stats().accepted, 1u);
}

/// A grid that cannot finish inside a short deadline on any core count:
/// one chain (a single platform, node count, cost and family), so its
/// points run strictly one after another, and consecutive points swap
/// the fail-stop and silent rates across four orders of magnitude, so
/// each warm-started (n, m) descent crosses the lattice from the previous
/// optimum — ~2 ms per point, a second of sequential compute for 512
/// points on a current core, from a request of ~20 KB.
std::string doomed_request(const std::string& id, int deadline_ms) {
  std::string request =
      "{\"id\": \"" + id +
      "\", \"platforms\": [\"hera\"], \"node_counts\": [1024], "
      "\"kinds\": [\"PDMV\"], \"rate_factors\": [";
  for (int i = 0; i < 512; ++i) {
    const double drift = 1.0 + 1e-4 * i;  // every point distinct
    const double fail_stop = (i % 2 == 0 ? 0.01 : 100.0) * drift;
    const double silent = (i % 2 == 0 ? 100.0 : 0.01) * drift;
    request += (i == 0 ? "" : ", ");
    request += "{\"fail_stop\": " + std::to_string(fail_stop) +
               ", \"silent\": " + std::to_string(silent) + "}";
  }
  request += "]";
  if (deadline_ms > 0) {
    request += ", \"deadline_ms\": " + std::to_string(deadline_ms);
  }
  request += "}";
  return request;
}

TEST(NetServer, DeadlineExceededAnswersErrorAndServerKeepsServing) {
  TestDaemon daemon;
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());

  const auto start = std::chrono::steady_clock::now();
  const Lines response =
      complete_lines(client.transact(doomed_request("doomed", 100)));
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(response.empty());
  EXPECT_NE(response.back().find("\"type\":\"error\""), std::string::npos);
  EXPECT_NE(response.back().find("\"request\":\"doomed\""), std::string::npos);
  EXPECT_NE(response.back().find("deadline of 100 ms exceeded"),
            std::string::npos);
  // The tight 2x-deadline bound is the bench's gate; here a lenient one
  // catches only "the deadline did nothing" (CI machines can stall).
  EXPECT_LT(elapsed_ms, 5000.0);

  // The timeout is visible in the stats surface...
  const Lines stats = complete_lines(client.transact("{\"type\": \"stats\"}"));
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_NE(stats[0].find("\"deadline_timeouts\":1"), std::string::npos);

  // ...and the worker it released still serves, bit-for-bit correct.
  const std::string after = one_cell_request("after", "hera", 512);
  EXPECT_EQ(complete_lines(client.transact(after)),
            stdin_path_lines({after}));
}

TEST(NetServer, DefaultDeadlineAppliesWhenRequestCarriesNone) {
  rn::NetServerOptions options;
  options.default_deadline_ms = 50;
  TestDaemon daemon(std::move(options));
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());

  // No deadline_ms in the request: the server default must bound it.
  const Lines response =
      complete_lines(client.transact(doomed_request("defaulted", 0)));
  ASSERT_FALSE(response.empty());
  EXPECT_NE(response.back().find("\"type\":\"error\""), std::string::npos);
  EXPECT_NE(response.back().find("deadline of 50 ms exceeded"),
            std::string::npos);

  // An explicit request deadline wins over the default: long enough for
  // a single-cell grid to finish normally.
  const std::string roomy =
      "{\"id\": \"roomy\", \"platforms\": [\"hera\"], \"node_counts\": [512], "
      "\"kinds\": [\"PD\"], \"deadline_ms\": 60000}";
  const Lines served = complete_lines(client.transact(roomy));
  ASSERT_FALSE(served.empty());
  EXPECT_NE(served.back().find("\"type\":\"done\""), std::string::npos);
}

// ------------------------------------------------- answers from memory --

/// `request` (a JSON object) with `"stats": true` added.
std::string with_stats(std::string request) {
  request.pop_back();
  return request + ", \"stats\": true}";
}

/// A counter of the opt-in stats block on a done line.
double done_stat(const std::string& done_line, const char* block,
                 const char* key) {
  const util::JsonValue done = util::JsonValue::parse(done_line);
  return done.find("stats")->find(block)->find(key)->as_double();
}

TEST(NetServer, ACachedRequestIsAnsweredWhileTheOnlyWorkerComputes) {
  // The one worker is pinned by a doomed chain on connection A (512
  // points, about a second of compute, no deadline). B's request was
  // computed before, so the loop answers it from memory while A still
  // computes; a worker could serve it only after A's table is done.
  rn::NetServerOptions options;
  options.request_workers = 1;
  TestDaemon daemon(std::move(options));
  rn::Client b;
  b.connect("127.0.0.1", daemon.port());
  b.set_receive_timeout(30000);
  const std::string cached = one_cell_request("warm", "hera", 512);
  ASSERT_FALSE(complete_lines(b.transact(cached)).empty());
  ASSERT_EQ(daemon->stats().served_inline, 0u);

  rn::Client a;
  a.connect("127.0.0.1", daemon.port());
  a.send_line(doomed_request("pin", 0));
  for (int i = 0; i < 10000 && daemon->stats().requests_started < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(daemon->stats().requests_started, 2u);

  const Lines hit = complete_lines(b.transact(with_stats(cached)));
  ASSERT_EQ(hit.size(), 2u);
  EXPECT_NE(hit.back().find("\"cache_hit\":true"), std::string::npos);
  // Answered before the pinned request published its table.
  EXPECT_EQ(done_stat(hit.back(), "service", "tables_computed"), 1.0);
  EXPECT_EQ(daemon->stats().served_inline, 1u);
  EXPECT_EQ(daemon->stats().requests_started, 3u);
  a.close();  // the pinned compute stops at its next cell
}

TEST(NetServer, AnswersFromMemoryCountLikeTheStdinPath) {
  // One serial sequence, each request answered before the next is sent:
  // the daemon answers the three warm repeats on its loop, the stdin
  // path through the whole ladder. Every service, cache and engine
  // counter must agree, so nothing is counted twice or skipped.
  const std::string analytic = one_cell_request("a", "hera", 2048);
  const std::string simulate =
      "{\"id\": \"s\", \"mode\": \"simulate\", \"platforms\": [\"hera\"], "
      "\"node_counts\": [512], \"kinds\": [\"PD\"], \"sim\": {\"seed\": 3, "
      "\"min_runs\": 16, \"max_runs\": 32, \"patterns_per_run\": 20}}";
  const Lines input{analytic, analytic, analytic, simulate, simulate,
                    "{\"type\": \"stats\", \"id\": \"end\"}"};
  const Lines expected = stdin_path_lines(input);

  TestDaemon daemon;
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());
  client.set_receive_timeout(30000);
  Lines got;
  for (const std::string& line : input) {
    const Lines response = complete_lines(client.transact(line));
    got.insert(got.end(), response.begin(), response.end());
  }
  ASSERT_EQ(got.size(), expected.size());
  // Every answer but the stats line (the daemon's has a transport block).
  EXPECT_EQ(Lines(got.begin(), got.end() - 1),
            Lines(expected.begin(), expected.end() - 1));
  EXPECT_EQ(daemon->stats().served_inline, 3u);

  const util::JsonValue served = util::JsonValue::parse(got.back());
  const util::JsonValue reference = util::JsonValue::parse(expected.back());
  for (const char* block : {"service", "cache", "engine"}) {
    EXPECT_EQ(served.find(block)->dump(), reference.find(block)->dump())
        << block;
  }
  for (const auto& [key, value] : reference.find("sim")->as_object()) {
    if (key != "runs_per_second") {  // a wall-clock rate
      EXPECT_EQ(served.find("sim")->find(key)->dump(), value.dump()) << key;
    }
  }
  EXPECT_EQ(served.find("transport")
                ->find("scheduler")
                ->find("served_inline")
                ->as_double(),
            3.0);
}

TEST(NetServer, APipelineOfHitsYieldsToOtherConnections) {
  // Connection A pipelines 500 requests for a cached 96-cell catalog and
  // reads only the first answer. The loop answers A from memory one
  // request per epoll round, so B's request, sent once A's first answer
  // has arrived, is answered within a round or two, while most of A's
  // are still to come: the hit count on B's done line stays under half
  // the pipeline. A loop that drained A's backlog first (up to the
  // 256-line pipeline depth in one go) would put it past that. Ordering,
  // not timing. A's unread answers (~22 MB) stay under the write limit.
  constexpr std::size_t kPipelined = 500;
  const std::string catalog =
      "{\"id\": \"cat\", \"platforms\": [\"hera\", \"atlas\", \"coastal\", "
      "\"coastal_ssd\"], \"node_counts\": [256, 1024, 4096, 16384]}";
  const std::string cheap = one_cell_request("b", "hera", 512);
  rn::NetServerOptions options;
  options.write_buffer_limit = 64u << 20;
  TestDaemon daemon(std::move(options));
  rn::Client a;
  a.connect("127.0.0.1", daemon.port());
  a.set_receive_timeout(60000);
  rn::Client b;
  b.connect("127.0.0.1", daemon.port());
  b.set_receive_timeout(60000);
  ASSERT_EQ(complete_lines(a.transact(catalog)).size(), 97u);
  ASSERT_FALSE(complete_lines(b.transact(cheap)).empty());
  const Lines warm = complete_lines(a.transact(catalog));  // hit 1

  std::string burst;
  for (std::size_t i = 0; i < kPipelined; ++i) {
    burst += catalog + "\n";
  }
  a.send_raw(burst);
  EXPECT_EQ(complete_lines(a.read_response()), warm);
  const Lines hit = complete_lines(b.transact(with_stats(cheap)));
  ASSERT_EQ(hit.size(), 2u);
  // Hits so far: A's warm one, A's pipelined ones, then B's own.
  EXPECT_LT(done_stat(hit.back(), "service", "cache_hits"),
            static_cast<double>(2 + kPipelined / 2))
      << "B waited behind A's pipeline";
  for (std::size_t i = 1; i < kPipelined; ++i) {
    ASSERT_EQ(complete_lines(a.read_response()), warm) << "answer " << i;
  }
  EXPECT_EQ(daemon->stats().served_inline, 2 + kPipelined);
}

/// A deliberately misbehaving server for client-robustness tests: accepts
/// one connection, writes `payload`, then either stalls (holding the
/// socket open) or closes. Runs on its own thread; release() unblocks
/// the stall and joins.
class MisbehavingServer {
 public:
  MisbehavingServer(std::string payload, bool close_after_payload)
      : listener_(rn::listen_tcp("127.0.0.1", 0, 4, &port_)),
        thread_([this, payload = std::move(payload), close_after_payload] {
          rn::Fd conn;
          for (int i = 0; i < 10000 && !conn.valid() && !done_.load(); ++i) {
            conn = rn::accept_connection(listener_.fd());
            if (!conn.valid()) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
          }
          std::size_t sent = 0;
          while (conn.valid() && sent < payload.size() && !done_.load()) {
            std::size_t n = 0;
            const rn::IoStatus status = rn::write_some(
                conn.fd(), payload.data() + sent, payload.size() - sent, &n);
            if (status == rn::IoStatus::kOk) {
              sent += n;
            } else if (status == rn::IoStatus::kWouldBlock) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            } else {
              return;
            }
          }
          if (close_after_payload) {
            conn.reset();  // orderly FIN mid-response
          }
          while (!done_.load()) {  // stall: keep the socket open, say nothing
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }) {}

  ~MisbehavingServer() { release(); }

  void release() {
    done_.store(true);
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  std::uint16_t port_ = 0;
  rn::Fd listener_;
  std::atomic<bool> done_{false};
  std::thread thread_;
};

TEST(NetClient, ReceiveTimeoutSurfacesMidResponseStall) {
  // One cell line arrives, then the server stalls forever mid-response:
  // with a receive timeout armed the client must throw instead of
  // hanging (the error the resilient client turns into a retry).
  MisbehavingServer server("{\"type\":\"cell\",\"request\":\"x\"}\n",
                           /*close_after_payload=*/false);
  rn::Client client;
  client.connect("127.0.0.1", server.port());
  client.set_receive_timeout(100);
  // Nothing is sent: the misbehaving server talks unprompted, and unread
  // request bytes at its close would turn the FIN into an RST.
  EXPECT_THROW((void)client.read_response(), std::runtime_error);
  server.release();
}

TEST(NetClient, MidResponseCloseReportsIncomplete) {
  // The server dies after a non-terminal line: read_response must hand
  // back what arrived with complete == false, not spin or invent a
  // terminal line.
  MisbehavingServer server("{\"type\":\"cell\",\"request\":\"x\"}\n",
                           /*close_after_payload=*/true);
  rn::Client client;
  client.connect("127.0.0.1", server.port());
  const rn::Client::Response response = client.read_response();
  EXPECT_FALSE(response.complete);
  ASSERT_EQ(response.lines.size(), 1u);
  EXPECT_EQ(response.lines[0], "{\"type\":\"cell\",\"request\":\"x\"}");
  server.release();
}

TEST(NetClient, TruncatedTerminalLookingTailReportsIncomplete) {
  // The nasty case: the connection dies mid-LINE, and the unterminated
  // tail happens to prefix-match a terminal line. The complete flag must
  // still say no — this is exactly the truncation the old
  // is-last-line-terminal heuristic could not see.
  MisbehavingServer server(
      "{\"type\":\"cell\",\"request\":\"x\"}\n{\"type\":\"done\",\"requ",
      /*close_after_payload=*/true);
  rn::Client client;
  client.connect("127.0.0.1", server.port());
  const rn::Client::Response response = client.read_response();
  EXPECT_FALSE(response.complete);
  ASSERT_EQ(response.lines.size(), 2u);
  EXPECT_EQ(response.lines[1], "{\"type\":\"done\",\"requ");
  server.release();
}

// --------------------------------------------------------- event loop --

TEST(EventLoop, RunAtTasksRunInTimeOrderAndNeverEarly) {
  using Clock = rn::EventLoop::Clock;
  rn::EventLoop loop;
  const std::vector<int> delays_ms{30, 10, 20, 10, 0};
  const Clock::time_point start = Clock::now();
  std::vector<std::pair<std::size_t, Clock::time_point>> ran;
  for (std::size_t i = 0; i < delays_ms.size(); ++i) {
    loop.run_at(start + std::chrono::milliseconds(delays_ms[i]), [&, i] {
      ran.emplace_back(i, Clock::now());
      if (ran.size() == delays_ms.size()) {
        loop.stop();
      }
    });
  }
  const rn::EventLoop::TimerId dropped = loop.run_at(
      start + std::chrono::milliseconds(5),
      [&] { ran.emplace_back(delays_ms.size(), Clock::now()); });
  loop.cancel(dropped);
  loop.run();

  // By time; the two 10 ms tasks in the order they were added.
  const std::vector<std::size_t> order{4, 1, 3, 2, 0};
  ASSERT_EQ(ran.size(), order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    EXPECT_EQ(ran[k].first, order[k]) << "position " << k;
    EXPECT_GE(ran[k].second,
              start + std::chrono::milliseconds(delays_ms[ran[k].first]))
        << "task " << ran[k].first << " ran early";
  }
}

TEST(EventLoop, InterruptFromAnotherThreadRunsTheHandlerOnTheLoopThread) {
  rn::EventLoop loop;
  std::thread::id handler_thread;
  int calls = 0;
  loop.on_interrupt([&] {
    handler_thread = std::this_thread::get_id();
    ++calls;
    loop.stop();
  });
  std::thread looping([&] { loop.run(); });
  const std::thread::id loop_thread = looping.get_id();
  loop.interrupt();
  looping.join();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(handler_thread, loop_thread);
}

}  // namespace
