// Seeded mutation fuzzer over the router's handling of shard
// sub-responses — the last parser of untrusted bytes in the serving
// stack: a RouterSession over two real NetServer shards, one honest and
// one whose JsonlSession answers pass through the shared mutator
// (fuzz_mutator.hpp) on their way to the socket. Cell, done and error
// lines are mutated; pongs are not, so the health probe keeps putting
// the mutating shard back on the ring. It is the ring owner of the
// workload's first chain, so every request sends it work. One analytic
// and one simulate request alternate until a few hundred mutated answers
// have gone out; receive timeouts of 100 ms bound the answers whose
// terminal line a mutation broke. Both shards compute every chain before
// the router sends anything, so no answer waits on a cold compute.
//
// The gate, for every request:
//   * exactly one terminal line, last, and nothing after it;
//   * a done line comes after its cells: every cell line carries the
//     parent id and signature, their count is the done line's "cells",
//     and they sit in table order with each slot once (the honest
//     answer's slot sequence);
//   * any other answer is exactly one error line for the parent id;
//   * no crash, no hang and no sanitizer report (the CI ASan/UBSan job
//     runs this).

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "fuzz_mutator.hpp"
#include "resilience/core/sweep.hpp"
#include "resilience/net/client.hpp"
#include "resilience/net/router.hpp"
#include "resilience/net/server.hpp"
#include "resilience/net/socket.hpp"
#include "resilience/service/jsonl_session.hpp"
#include "resilience/service/line_session.hpp"
#include "resilience/service/sim_table.hpp"
#include "resilience/util/json.hpp"
#include "resilience/util/random.hpp"

namespace rc = resilience::core;
namespace rn = resilience::net;
namespace rs = resilience::service;
namespace ru = resilience::util;

namespace {

constexpr std::size_t kMutatedAnswers = 300;
constexpr std::size_t kMaxRequests = 2000;
constexpr std::uint64_t kSeed = 0x2007'5eedULL;

constexpr std::array<std::string_view, 20> kTokens = {
    "{",  "}",     ",",      ":",       "\"",     "\n",         "\r",
    "-1", "1e308", "NaN",    "null",    "true",   "\"PDMV\"",   "\"PD\"",
    "\"type\":\"done\"",     "\"type\":\"cell\"", "\"type\":\"error\"",
    "\"point\":",            "\"cells\":",        "\"signature\":\"",
};

/// Two platforms x two node counts x two families: four chains of two
/// points; the simulate twin adds two Weibull shapes.
constexpr std::string_view kAnalytic =
    R"({"id": "fz-a", "platforms": ["hera", "atlas"], )"
    R"("node_counts": [256, 1024], "kinds": ["PD", "PDMV"]})";
constexpr std::string_view kSimulate =
    R"({"id": "fz-s", "platforms": ["hera", "atlas"], )"
    R"("node_counts": [256, 1024], "kinds": ["PD", "PDMV"], )"
    R"("mode": "simulate", "sim": {"seed": 5, "min_runs": 8, )"
    R"("max_runs": 8, "patterns_per_run": 10, "weibull_shape": [1.0, 0.7]}})";

/// A shard daemon on a background thread whose answer lines go through
/// the mutator while `mutating` is set; the destructor drains and joins.
class FuzzShard {
 public:
  FuzzShard()
      : server_(options()), thread_([this] { server_.run(); }) {}
  ~FuzzShard() {
    server_.stop();
    thread_.join();
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return server_.port(); }
  void set_mutating(bool on) { mutating_.store(on); }
  /// Garbles every scenario answer, which still arrives complete:
  /// kSignature zeroes its done line's signature, kCellTwice sends its
  /// first cell line again in place of the second (one slot twice).
  enum class Garble { kNone, kSignature, kCellTwice };
  void set_garbling(Garble garble) { garble_.store(garble); }
  [[nodiscard]] std::size_t mutated_answers() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return mutated_answers_;
  }

 private:
  rn::NetServerOptions options() {
    rn::NetServerOptions options;
    options.port = 0;
    options.request_workers = 1;
    options.session_factory = [this](rs::LineSession::LineFn emit,
                                     std::shared_ptr<std::atomic<bool>> cancel) {
      return std::make_unique<rs::JsonlSession>(
          service_,
          [this, emit = std::move(emit)](std::string&& line,
                                         bool end_of_response) {
            mutate(line, end_of_response);
            emit(std::move(line), end_of_response);
          },
          rs::JsonlSession::Options(), std::move(cancel));
    };
    return options;
  }

  void mutate(std::string& line, bool end_of_response) {
    const Garble garble = garble_.load();
    if (garble == Garble::kSignature &&
        line.starts_with("{\"type\":\"done\"")) {
      const std::string key = "\"signature\":\"";
      line.replace(line.find(key) + key.size(), 16, std::string(16, '0'));
      return;
    }
    if (garble == Garble::kCellTwice) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (line.starts_with("{\"type\":\"cell\"") && ++cells_seen_ <= 2) {
        if (cells_seen_ == 1) {
          first_cell_ = line;
        } else {
          line = first_cell_;
        }
      }
      if (end_of_response) {
        cells_seen_ = 0;
      }
      return;
    }
    if (!mutating_.load() || !(line.starts_with("{\"type\":\"cell\"") ||
                               line.starts_with("{\"type\":\"done\"") ||
                               line.starts_with("{\"type\":\"error\""))) {
      return;
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    if (coin_.next() % 8 == 0) {
      line = mutator_.mutate(std::move(line));
      answer_mutated_ = true;
    }
    if (end_of_response) {
      mutated_answers_ += answer_mutated_ ? 1 : 0;
      answer_mutated_ = false;
    }
  }

  rs::SweepService service_;
  std::atomic<bool> mutating_{false};
  std::atomic<Garble> garble_{Garble::kNone};
  std::size_t cells_seen_ = 0;  ///< cell lines of the current answer
  std::string first_cell_;
  mutable std::mutex mutex_;
  ru::SplitMix64 coin_{kSeed};
  resilience::fuzz::Mutator mutator_{kSeed + 1, kTokens};
  bool answer_mutated_ = false;
  std::size_t mutated_answers_ = 0;
  rn::NetServer server_;  // after what its sessions use
  std::thread thread_;
};

/// Groups RouterSession output into responses on the end_of_response
/// marker, flagging any line emitted outside a response.
struct Collector {
  std::vector<std::vector<std::string>> responses;
  std::vector<std::string> current;

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

std::string member_text(const ru::JsonValue& line, const char* name) {
  const ru::JsonValue* value = line.find(name);
  return value == nullptr ? "" : value->dump();
}

/// A cell's slot in the merged table: its point, family and sim axes.
std::string slot_of(const ru::JsonValue& cell) {
  return member_text(cell, "point") + "/" + member_text(cell, "kind") + "/" +
         member_text(cell, "weibull_shape") + "/" +
         member_text(cell, "faulty_ops");
}

/// Checks one router response against the gate at the top of this file;
/// `slots` is the honest answer's slot sequence.
void check_response(const std::vector<std::string>& response,
                    const rs::ScenarioRequest& request,
                    const std::vector<std::string>& slots) {
  ASSERT_FALSE(response.empty());
  const ru::JsonValue last = ru::JsonValue::parse(response.back());
  ASSERT_TRUE(rn::is_terminal_response_line(response.back())) << response.back();
  EXPECT_EQ(last.find("request")->as_string(), request.id);
  if (last.find("type")->as_string() == "error") {
    EXPECT_EQ(response.size(), 1u) << response.back();
    return;
  }
  ASSERT_EQ(last.find("type")->as_string(), "done") << response.back();
  const std::string signature = rs::resolve_request(request).signature.hex();
  EXPECT_EQ(last.find("signature")->as_string(), signature);
  ASSERT_EQ(response.size() - 1,
            static_cast<std::size_t>(last.find("cells")->as_double()));
  ASSERT_EQ(response.size() - 1, slots.size());
  for (std::size_t i = 0; i + 1 < response.size(); ++i) {
    const ru::JsonValue cell = ru::JsonValue::parse(response[i]);
    EXPECT_EQ(cell.find("type")->as_string(), "cell") << response[i];
    EXPECT_EQ(cell.find("request")->as_string(), request.id);
    EXPECT_EQ(cell.find("signature")->as_string(), signature);
    EXPECT_EQ(slot_of(cell), slots[i]) << "cell " << i;
  }
}

/// The fleet both cases route over: the two shards, short timeouts.
rn::RouterOptions fleet_options(const FuzzShard& first,
                                const FuzzShard& second) {
  rn::RouterOptions options;
  for (const std::uint16_t port : {first.port(), second.port()}) {
    rn::ShardConfig shard;
    shard.port = port;
    options.shards.push_back(shard);
  }
  options.connect_timeout_ms = 500;
  options.receive_timeout_ms = 100;
  return options;
}

TEST(RouterFuzz, AShardGarblingEveryAnswerFailsOverToTheHonestOne) {
  // A malformed answer is handled like a lost one: the shard goes down
  // and its chains fail over, so the request still gets the single
  // daemon's bytes. Two garbles: a done line signed for other options,
  // and a slot sent twice with the cell count kept. Each request is routed twice, with a probe between
  // (the garbling shard answers pongs and rejoins): the second answer
  // comes from the honest shard's cache, as a single daemon's second
  // answer does.
  if (!rn::transport_supported()) {
    GTEST_SKIP() << "transport requires Linux";
  }
  FuzzShard first;
  FuzzShard second;
  rn::ShardFleet fleet(fleet_options(first, second));
  const rc::GridChain chain =
      rs::resolve_request(rs::ScenarioRequest::parse(kAnalytic)).chains.front();
  FuzzShard& garbling =
      *fleet.route(chain.key.value) == fleet.shard_ids().front() ? first
                                                                 : second;
  Collector routed;
  rn::RouterSession session(fleet, routed.fn());
  rs::SweepService daemon_service;
  Collector daemon;
  rs::JsonlSession single(daemon_service, daemon.fn());
  for (const FuzzShard::Garble garble :
       {FuzzShard::Garble::kSignature, FuzzShard::Garble::kCellTwice}) {
    garbling.set_garbling(garble);
    for (const std::string_view line : {kAnalytic, kSimulate}) {
      const std::uint64_t failovers = fleet.stats().failovers;
      for (int pass = 0; pass < 2; ++pass) {
        fleet.probe_round();
        session.handle_line(line);
        single.handle_line(line);
      }
      EXPECT_GE(fleet.stats().failovers, failovers + 2) << line;
      ASSERT_EQ(routed.responses.size(), daemon.responses.size());
      EXPECT_EQ(routed.responses.back(), daemon.responses.back()) << line;
      EXPECT_TRUE(daemon.responses.back().back().starts_with(
          "{\"type\":\"done\""));
    }
  }
}

TEST(RouterFuzz, MutatedShardAnswersYieldOneValidTerminalLine) {
  if (!rn::transport_supported()) {
    GTEST_SKIP() << "transport requires Linux";
  }
  FuzzShard first;
  FuzzShard second;
  rn::ShardFleet fleet(fleet_options(first, second));
  Collector collector;
  rn::RouterSession session(fleet, collector.fn());

  const std::array<rs::ScenarioRequest, 2> requests = {
      rs::ScenarioRequest::parse(kAnalytic),
      rs::ScenarioRequest::parse(kSimulate)};
  // Both shards compute every chain first, with no receive timeout, so a
  // failover never waits on a cold compute; then the honest answers give
  // the slot sequence each done line must match.
  for (const std::uint16_t port : {first.port(), second.port()}) {
    rn::Client client;
    client.connect("127.0.0.1", port);
    for (const std::string_view line : {kAnalytic, kSimulate}) {
      ASSERT_TRUE(client.transact(line).complete);
    }
  }
  std::array<std::vector<std::string>, 2> slots;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    session.handle_line(r == 0 ? kAnalytic : kSimulate);
    const std::vector<std::string>& honest = collector.responses.back();
    ASSERT_TRUE(honest.back().starts_with("{\"type\":\"done\"")) << honest.back();
    for (std::size_t i = 0; i + 1 < honest.size(); ++i) {
      slots[r].push_back(slot_of(ru::JsonValue::parse(honest[i])));
    }
  }
  // The ring owner of the first chain mutates: it serves every request.
  rc::SweepOptions sweep;
  const rc::GridChain chain = rc::grid_chains(requests[0].grid, sweep).front();
  FuzzShard& mutating =
      *fleet.route(chain.key.value) == fleet.shard_ids().front() ? first
                                                                 : second;
  mutating.set_mutating(true);

  std::size_t sent = 0;
  while (mutating.mutated_answers() < kMutatedAnswers && sent < kMaxRequests) {
    fleet.probe_round();  // a shard marked down rejoins on its pong
    const std::size_t r = sent++ % requests.size();
    const std::size_t before = collector.responses.size();
    session.handle_line(r == 0 ? kAnalytic : kSimulate);
    ASSERT_EQ(collector.responses.size(), before + 1) << "request " << sent;
    ASSERT_TRUE(collector.current.empty()) << "request " << sent;
    check_response(collector.responses.back(), requests[r], slots[r]);
    if (HasFatalFailure()) {
      return;
    }
  }
  EXPECT_GE(mutating.mutated_answers(), kMutatedAnswers);
}

}  // namespace
