// Seeded mutation fuzzer over the request front, service::classify_line —
// the one parser every front end (stdin, daemon admission, router) runs
// on untrusted request bytes. Seeds are every line of tests/data/*.jsonl
// plus a few lines reaching fields those files never use; each input is a seed after one to four mutations drawn from a
// util::SplitMix64 stream (byte flips, span deletions and duplications,
// token insertions), so a run is reproducible from its seed and a failing
// input can be replayed and kept as a named case below.
//
// The gate, for every input:
//   * no crash and no sanitizer report (the CI ASan/UBSan job runs this);
//   * an invalid line carries a non-empty message, and its error_line
//     parses as a JSON object answering the same request id;
//   * a scenario's to_json().dump() classifies back to a scenario whose
//     to_json().dump() is byte-identical — the router's sub-requests
//     depend on that round trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "resilience/service/line_session.hpp"
#include "resilience/service/serialize.hpp"
#include "resilience/util/json.hpp"
#include "resilience/util/random.hpp"

namespace rs = resilience::service;
namespace ru = resilience::util;

namespace {

constexpr std::size_t kInputs = 20000;
constexpr std::uint64_t kSeed = 0xf022'5eedULL;

constexpr std::array<std::string_view, 23> kTokens = {
    "{",     "}",        "[",      "]",     "\"",       ",",
    ":",     "-1",       "1e309",  "NaN",   "Infinity", "null",
    "true",  "0",        "-0",     "1e-320", "\\u0000",  "\\ud800",
    "\"type\":\"ping\"",  "\"type\":\"stats\"",  "\"mode\":\"simulate\"",
    "\"id\":7",  "\"sim\":{}",
};

/// Seeds for what the data files never send: a stats request and the
/// request fields no smoke workload uses.
constexpr std::array<std::string_view, 3> kExtraSeeds = {
    R"({"type": "stats", "id": "st"})",
    R"({"id": "inline", "platforms": [{"name": "x", "nodes": 4096, )"
    R"("fail_stop": 2.3e-7, "silent": 1.8e-7, "disk_checkpoint": 120.0, )"
    R"("memory_checkpoint": 5.0}], "rate_factors": [{"silent": 2.0}], )"
    R"("cost_overrides": [{"partial_verification": 3.5, "recall": 0.5}], )"
    R"("reuse_seeds": false, "stats": true, "deadline_ms": 5000})",
    R"({"platforms": ["hera"], "mode": "sweep", "numeric_optimum": true})",
};

/// Every line of every tests/data/*.jsonl file, in a stable order, then
/// the extra seeds.
std::vector<std::string> seed_corpus() {
  const std::filesystem::path dir =
      std::filesystem::path(__FILE__).parent_path() / "data";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".jsonl") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<std::string> lines;
  for (const std::filesystem::path& file : files) {
    std::ifstream in(file);
    for (std::string line; std::getline(in, line);) {
      lines.push_back(line);
    }
  }
  lines.insert(lines.end(), kExtraSeeds.begin(), kExtraSeeds.end());
  return lines;
}

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  [[nodiscard]] std::string mutate(std::string input) {
    const std::size_t rounds = 1 + below(4);
    for (std::size_t round = 0; round < rounds; ++round) {
      switch (below(4)) {
        case 0:  // flip one bit of one byte
          if (!input.empty()) {
            input[below(input.size())] ^=
                static_cast<char>(1u << below(8));
          }
          break;
        case 1: {  // delete a span
          const std::size_t at = below(input.size() + 1);
          input.erase(at, 1 + below(16));
          break;
        }
        case 2: {  // duplicate a span somewhere
          const std::size_t at = below(input.size() + 1);
          const std::string span = input.substr(at, 1 + below(32));
          input.insert(below(input.size() + 1), span);
          break;
        }
        default:  // insert a token
          input.insert(below(input.size() + 1),
                       kTokens[below(kTokens.size())]);
          break;
      }
    }
    return input;
  }

 private:
  [[nodiscard]] std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_.next() % n);
  }

  ru::SplitMix64 rng_;
};

/// The gate; a failure names the input (as a JSON literal, so it can be
/// pasted back as a named case).
void check_line(const std::string& input, std::size_t line_number) {
  SCOPED_TRACE("input: " + ru::json_quote(input));
  const rs::RequestLine line = rs::classify_line(input, line_number);
  switch (line.kind) {
    case rs::RequestLine::Kind::kSkip:
      EXPECT_FALSE(rs::is_request_line(input));
      break;
    case rs::RequestLine::Kind::kPing:
    case rs::RequestLine::Kind::kStats: {
      const ru::JsonValue pong = ru::JsonValue::parse(rs::pong_line(line.id));
      EXPECT_EQ(pong.find("request")->as_string(), line.id);
      break;
    }
    case rs::RequestLine::Kind::kInvalid: {
      EXPECT_FALSE(line.message.empty());
      ru::JsonValue error;
      ASSERT_NO_THROW(error = ru::JsonValue::parse(
                          rs::error_line(line.id, line.field, line.message)));
      ASSERT_TRUE(error.is_object());
      EXPECT_EQ(error.find("request")->as_string(), line.id);
      break;
    }
    case rs::RequestLine::Kind::kScenario: {
      const std::string dumped = line.request.to_json().dump();
      const rs::RequestLine again = rs::classify_line(dumped, line_number);
      ASSERT_EQ(again.kind, rs::RequestLine::Kind::kScenario)
          << again.field << ": " << again.message << "\n  dumped: " << dumped;
      EXPECT_EQ(again.request.to_json().dump(), dumped);
      break;
    }
  }
}

// ------------------------------------------------- findings, kept --

TEST(RequestFuzz, NulInAFieldNameKeepsTheWholeMessage) {
  // what() stops at the NUL, which once left this answer's message empty.
  const std::string input = "{\"\\u0000type\": \"ping\", \"id\": \"c4\"}";
  check_line(input, 1);
  const rs::RequestLine line = rs::classify_line(input, 1);
  ASSERT_EQ(line.kind, rs::RequestLine::Kind::kInvalid);
  EXPECT_EQ(line.field, std::string("\0type", 5));
  EXPECT_EQ(line.message, std::string("\0type: unknown field '\0type'", 28));
}

// ------------------------------------------------------------ corpus --

TEST(RequestFuzz, SeedCorpusClassifiesCleanly) {
  const std::vector<std::string> corpus = seed_corpus();
  ASSERT_GE(corpus.size(), 20u);
  std::size_t scenarios = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    check_line(corpus[i], i + 1);
    scenarios += rs::classify_line(corpus[i], i + 1).kind ==
                 rs::RequestLine::Kind::kScenario;
  }
  EXPECT_GT(scenarios, 10u);  // the seeds really reach the scenario parser
}

TEST(RequestFuzz, MutatedLinesClassifyOrErrorCleanly) {
  const std::vector<std::string> corpus = seed_corpus();
  ASSERT_FALSE(corpus.empty());
  Mutator mutator(kSeed);
  std::array<std::size_t, 5> kinds{};
  for (std::size_t i = 0; i < kInputs; ++i) {
    const std::string input = mutator.mutate(corpus[i % corpus.size()]);
    check_line(input, i + 1);
    if (testing::Test::HasFailure()) {
      return;  // the first finding is the one to keep
    }
    ++kinds[static_cast<std::size_t>(rs::classify_line(input, i + 1).kind)];
  }
  // The mutator must keep reaching every branch of the grammar, or the
  // budget proves little.
  for (std::size_t kind = 0; kind < kinds.size(); ++kind) {
    EXPECT_GT(kinds[kind], 0u) << "kind " << kind << " never produced";
  }
}

}  // namespace
