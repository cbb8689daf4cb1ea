// Seeded mutation fuzzer over the verified spill loader: SweepCache's
// disk tier reads back files anyone with access to the cache directory
// can edit, so every spill is untrusted once reloaded. The seeds are the
// golden spills in tests/golden/wire/spill (two analytic tables, three
// simulate tables); each input is one of them after one to four
// mutations (fuzz_mutator.hpp), placed under its own name in a fresh
// cache directory and looked up through SweepCache::find.
//
// The gate, for every input: the lookup either serves a table
// bit-identical to the golden file's, or misses with disk_rejects
// raised by exactly one. Nothing crashes (the CI ASan/UBSan job runs
// this). A mutated seed_index.json sidecar next to a pristine spill must
// cost nothing but seed reuse: the spill is still served.
//
// Nearly every such mutation stops at the payload checksum, so a second
// run mutates only the table payload and reseals the document with the
// payload's checksum, as a forger would; that reaches the table decoders
// and the signature check. The checksum is FNV-1a, not a MAC: a forger
// can change result fields and still be served. What the loader does
// guarantee, and the second gate checks, is that a served table answers
// the grid its file name claims (its points and families), and that
// anything else is rejected, never crashed on.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz_mutator.hpp"
#include "resilience/core/sweep.hpp"
#include "resilience/service/sim_table.hpp"
#include "resilience/service/sweep_cache.hpp"
#include "resilience/util/fnv1a.hpp"
#include "resilience/util/json.hpp"

namespace fs = std::filesystem;
namespace rc = resilience::core;
namespace rs = resilience::service;
namespace ru = resilience::util;

namespace {

constexpr std::size_t kInputs = 2500;
constexpr std::size_t kSidecarInputs = 300;
constexpr std::uint64_t kSeed = 0x5b11'f022ULL;

constexpr std::array<std::string_view, 18> kTokens = {
    "{",          "}",         "[",       "]",         "\"",     ",",
    ":",          "-1",        "1e309",   "NaN",       "-0",     "null",
    "\"format\":", "\"payload_fnv\":\"0000000000000000\"",
    "\"table\":{}", "\"kinds\":[]", "\"cells\":[]", "\\u0000",
};

const fs::path kGoldenDir =
    fs::path(__FILE__).parent_path() / "golden" / "wire" / "spill";

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A fresh cache directory holding `bytes` under `name`.
class SpillDir {
 public:
  SpillDir(const std::string& name, const std::string& bytes)
      : path_(fs::temp_directory_path() /
              ("spill_fuzz_" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
    std::ofstream(path_ / name, std::ios::binary) << bytes;
  }
  ~SpillDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  SpillDir(const SpillDir&) = delete;
  SpillDir& operator=(const SpillDir&) = delete;

  void add(const std::string& name, const std::string& bytes) const {
    std::ofstream(path_ / name, std::ios::binary) << bytes;
  }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

/// One golden spill and the table it holds.
struct Golden {
  std::string name;
  std::string bytes;
  std::string format;   ///< the document's format tag
  std::string payload;  ///< the document's table, as written
  rc::GridSignature signature;
  bool sim = false;
  rc::SweepOptions options;  ///< what the analytic file verifies under
  std::shared_ptr<const rc::SweepTable> table;
  std::shared_ptr<const rs::SimTable> sim_table;
};

/// The result of looking `golden`'s signature up in a cache over `dir`.
struct Lookup {
  bool served = false;
  bool bit_identical = false;  ///< served the golden table, bit for bit
  bool same_grid = false;      ///< served a table of the golden's grid
  std::uint64_t rejects = 0;
};

Lookup look_up(const Golden& golden, const std::string& dir) {
  rs::SweepCache cache(4, dir);
  Lookup lookup;
  if (golden.sim) {
    const auto table = cache.find<rs::SimTable>(golden.signature);
    lookup.served = table != nullptr;
    lookup.bit_identical =
        table != nullptr && rs::sim_tables_bit_identical(*table, *golden.sim_table);
    lookup.same_grid =
        table != nullptr &&
        rs::table_matches_grid(*table, golden.sim_table->points,
                               golden.sim_table->kinds) &&
        table->cells.size() == golden.sim_table->cells.size();
  } else {
    const auto table = cache.find<rc::SweepTable>(golden.signature, golden.options);
    lookup.served = table != nullptr;
    lookup.bit_identical =
        table != nullptr && rc::tables_bit_identical(*table, *golden.table);
    lookup.same_grid =
        table != nullptr &&
        rs::table_matches_grid(*table, golden.table->points,
                               golden.table->kinds) &&
        table->cells.size() == golden.table->cells.size();
  }
  lookup.rejects = cache.disk_rejects();
  return lookup;
}

/// Loads every golden spill through a pristine cache. The service smoke
/// spills one analytic grid with the numeric optimum and one without, so
/// each analytic file is tried under both options.
std::vector<Golden> load_goldens() {
  std::vector<Golden> goldens;
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(kGoldenDir)) {
    if (entry.path().filename() != "seed_index.json") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& file : files) {
    Golden golden;
    golden.name = file.filename().string();
    golden.bytes = read_file(file);
    const ru::JsonValue document = ru::JsonValue::parse(golden.bytes);
    golden.format = document.find("format")->as_string();
    golden.payload = document.find("table")->dump();
    golden.sim = golden.name.ends_with(".sim.json");
    golden.signature = rc::GridSignature::from_hex(
                           golden.name.substr(0, golden.name.find('.')))
                           .value();
    const SpillDir dir(golden.name, golden.bytes);
    for (const bool numeric_optimum : {true, false}) {
      golden.options.numeric_optimum = numeric_optimum;
      rs::SweepCache cache(4, dir.str());
      if (golden.sim) {
        golden.sim_table = cache.find<rs::SimTable>(golden.signature);
      } else {
        golden.table = cache.find<rc::SweepTable>(golden.signature, golden.options);
      }
      if (golden.table != nullptr || golden.sim_table != nullptr) {
        break;
      }
    }
    goldens.push_back(std::move(golden));
  }
  return goldens;
}

/// `golden`'s document around `payload`, with the checksum the loader
/// derives from it (FNV-1a 64 of its canonical re-dump); nullopt when
/// the payload does not parse.
std::optional<std::string> resealed(const Golden& golden,
                                    const std::string& payload) {
  ru::JsonValue table;
  try {
    table = ru::JsonValue::parse(payload);
  } catch (const ru::JsonError&) {
    return std::nullopt;
  }
  const std::string canonical = table.dump();
  std::string document;
  ru::JsonWriter(document)
      .begin_object()
      .member("format", golden.format)
      .member("payload_fnv", rc::GridSignature{ru::fnv1a(canonical)}.hex())
      .key("table")
      .raw(canonical)
      .end_object();
  return document;
}

TEST(SpillFuzz, GoldenSpillsLoad) {
  const std::vector<Golden> goldens = load_goldens();
  ASSERT_EQ(goldens.size(), 5u);
  std::size_t sims = 0;
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(golden.name);
    EXPECT_TRUE(golden.table != nullptr || golden.sim_table != nullptr);
    sims += golden.sim;
  }
  EXPECT_EQ(sims, 3u);
}

TEST(SpillFuzz, MutatedSpillsServeTheGoldenTableOrAreRejected) {
  const std::vector<Golden> goldens = load_goldens();
  ASSERT_EQ(goldens.size(), 5u);
  resilience::fuzz::Mutator mutator(kSeed, kTokens);
  std::size_t served = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kInputs; ++i) {
    const Golden& golden = goldens[i % goldens.size()];
    const std::string input = mutator.mutate(golden.bytes);
    SCOPED_TRACE(golden.name + " input " + std::to_string(i) + ": " +
                 ru::json_quote(input));
    const SpillDir dir(golden.name, input);
    const Lookup lookup = look_up(golden, dir.str());
    if (lookup.served) {
      EXPECT_TRUE(lookup.bit_identical);
      EXPECT_EQ(lookup.rejects, 0u);
      ++served;
    } else {
      EXPECT_EQ(lookup.rejects, 1u);
      ++rejected;
    }
    if (testing::Test::HasFailure()) {
      return;  // the first finding is the one to keep
    }
  }
  // Both outcomes must occur, or the budget proves little: mutations
  // that only touch insignificant bytes are served, the rest rejected.
  EXPECT_GT(served, 0u);
  EXPECT_GT(rejected, kInputs / 2);
}

TEST(SpillFuzz, ResealedForgeriesServeOnlyTheirGridOrAreRejected) {
  const std::vector<Golden> goldens = load_goldens();
  ASSERT_EQ(goldens.size(), 5u);
  resilience::fuzz::Mutator mutator(kSeed + 2, kTokens);
  std::size_t forgeries = 0;
  std::size_t decoded = 0;  ///< got past the checksum to the decoders
  for (std::size_t i = 0; i < kInputs; ++i) {
    const Golden& golden = goldens[i % goldens.size()];
    const std::optional<std::string> input =
        resealed(golden, mutator.mutate(golden.payload));
    if (!input) {
      continue;  // the plain run covers unparseable payloads
    }
    ++forgeries;
    SCOPED_TRACE(golden.name + " input " + std::to_string(i) + ": " +
                 ru::json_quote(*input));
    const SpillDir dir(golden.name, *input);
    const Lookup lookup = look_up(golden, dir.str());
    if (lookup.served) {
      EXPECT_TRUE(lookup.same_grid);
      EXPECT_EQ(lookup.rejects, 0u);
      ++decoded;
    } else {
      EXPECT_EQ(lookup.rejects, 1u);
    }
    if (testing::Test::HasFailure()) {
      return;
    }
  }
  EXPECT_GT(forgeries, kInputs / 8);
  EXPECT_GT(decoded, 0u);
}

// ------------------------------------------------- findings, kept --

TEST(SpillFuzz, ForgedPointAxisIndexIsRejected) {
  // A point's axis indices are outside the signature, and the loader once
  // served a resealed spill that moved the first-order grid's second
  // point to platform 8.
  const std::vector<Golden> goldens = load_goldens();
  const auto golden = std::find_if(
      goldens.begin(), goldens.end(),
      [](const Golden& g) { return g.name == "9063a506a6c92111.json"; });
  ASSERT_NE(golden, goldens.end());
  const std::string second_point =
      R"("platform_index":0,"node_index":0,"rate_index":1,"cost_index":0)";
  std::string payload = golden->payload;
  const std::size_t at = payload.find(second_point);
  ASSERT_NE(at, std::string::npos);
  payload.replace(at, second_point.size(),
                  R"("platform_index":8,"node_index":0,"rate_index":1,)"
                  R"("cost_index":0)");
  const SpillDir dir(golden->name, resealed(*golden, payload).value());
  const Lookup lookup = look_up(*golden, dir.str());
  EXPECT_FALSE(lookup.served);
  EXPECT_EQ(lookup.rejects, 1u);
}

TEST(SpillFuzz, MutatedSeedSidecarCostsOnlySeedReuse) {
  const std::vector<Golden> goldens = load_goldens();
  const auto analytic = std::find_if(
      goldens.begin(), goldens.end(),
      [](const Golden& golden) { return !golden.sim; });
  ASSERT_NE(analytic, goldens.end());
  const std::string sidecar = read_file(kGoldenDir / "seed_index.json");
  ASSERT_FALSE(sidecar.empty());
  resilience::fuzz::Mutator mutator(kSeed + 1, kTokens);
  for (std::size_t i = 0; i < kSidecarInputs; ++i) {
    const std::string input = mutator.mutate(sidecar);
    SCOPED_TRACE("input " + std::to_string(i) + ": " + ru::json_quote(input));
    const SpillDir dir(analytic->name, analytic->bytes);
    dir.add("seed_index.json", input);
    const Lookup lookup = look_up(*analytic, dir.str());
    EXPECT_TRUE(lookup.served && lookup.bit_identical);
    EXPECT_EQ(lookup.rejects, 0u);
    if (testing::Test::HasFailure()) {
      return;
    }
  }
}

}  // namespace
