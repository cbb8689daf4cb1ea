#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <stdexcept>

#include "resilience/core/sweep.hpp"
#include "resilience/net/hash_ring.hpp"
#include "resilience/service/scenario_request.hpp"
#include "resilience/util/json.hpp"

namespace perfbench {

namespace {

using resilience::util::JsonValue;

constexpr std::array<const char*, 4> kPlatforms = {"Hera", "Atlas", "Coastal",
                                                   "CoastalSSD"};
constexpr std::array<const char*, 6> kKinds = {"PD",    "PDV*",   "PDV",
                                               "PDM",   "PDMV*",  "PDMV"};
constexpr std::array<int, 5> kNodes = {256, 1024, 4096, 16384, 65536};

/// Independent sub-stream per (seed, index, purpose).
std::uint64_t mix(std::uint64_t seed, std::uint64_t index, std::uint64_t salt) {
  SplitMix64 rng(seed ^ (index * 0x9e3779b97f4a7c15ULL) ^
                 (salt * 0xc2b2ae3d27d4eb4fULL));
  rng.next();
  return rng.next();
}

/// "<prefix><n>" (built by append: GCC 12 misreports `"c" + to_string`
/// under -Wrestrict).
std::string tagged(const char* prefix, std::size_t n) {
  std::string text = prefix;
  text += std::to_string(n);
  return text;
}

/// `count` distinct positions of [0, n), in increasing order.
std::vector<std::size_t> subset(SplitMix64& rng, std::size_t n,
                                std::size_t count) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) {
    all[i] = i;
  }
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(all[i], all[i + rng.below(n - i)]);
  }
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

template <typename T, std::size_t N>
JsonValue pick_array(const std::array<T, N>& values,
                     const std::vector<std::size_t>& positions) {
  JsonValue array = JsonValue::array();
  for (std::size_t position : positions) {
    array.push_back(JsonValue(values[position]));
  }
  return array;
}

JsonValue grid(const std::string& id, const std::vector<std::size_t>& platforms,
               const std::vector<std::size_t>& nodes,
               const std::vector<std::size_t>& kinds) {
  JsonValue request = JsonValue::object();
  request.set("id", id);
  request.set("platforms", pick_array(kPlatforms, platforms));
  request.set("node_counts", pick_array(kNodes, nodes));
  request.set("kinds", pick_array(kKinds, kinds));
  return request;
}

JsonValue rate_factor(double factor) {
  JsonValue rates = JsonValue::object();
  rates.set("fail_stop", factor);
  rates.set("silent", factor);
  JsonValue axis = JsonValue::array();
  axis.push_back(std::move(rates));
  return axis;
}

/// warm-mix: 60 small grids (1 platform x 1 node count x 1-6 families,
/// ten of each width, so the set's cell total is the same for every seed)
/// plus 4 catalog-sized 96-cell grids at distinct rate factors.
std::vector<std::string> warm_mix_set(std::uint64_t seed) {
  SplitMix64 rng(mix(seed, 0, 11));
  std::vector<std::string> set;
  std::set<std::string> seen;
  for (std::size_t width = 1; width <= 6; ++width) {
    for (int copy = 0; copy < 10;) {
      const std::vector<std::size_t> platform = {rng.below(kPlatforms.size())};
      const std::vector<std::size_t> node = {rng.below(kNodes.size())};
      const std::vector<std::size_t> kinds = subset(rng, kKinds.size(), width);
      JsonValue request = grid("", platform, node, kinds);
      if (!seen.insert(request.dump()).second) {
        continue;
      }
      ++copy;
      set.push_back(request.dump());
    }
  }
  for (int i = 0; i < 4; ++i) {
    JsonValue request = grid("", {0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3, 4, 5});
    // Distinct per entry and per seed, within a factor 2 of nominal.
    request.set("rate_factors",
                rate_factor(0.75 + 0.125 * i + 0.1 * rng.uniform()));
    set.push_back(request.dump());
  }
  return set;
}

/// router-warm: 32 grids of 2-4 platforms x 1-2 node counts x 2-4
/// families, each accepted only if its chains land on all three shards.
std::vector<std::string> router_set(std::uint64_t seed) {
  SplitMix64 rng(mix(seed, 0, 13));
  const ServerPlan plan = server_plan(Workload::kRouterWarm);
  resilience::net::HashRing ring;  // the router's default 64 vnodes
  for (const std::string& id : shard_ids(plan)) {
    ring.add(id);
  }
  resilience::core::SweepOptions sweep;  // what the router keys chains with
  std::vector<std::string> set;
  std::set<std::string> seen;
  while (set.size() < 32) {
    const std::size_t width = 2 + set.size() % 3;  // fixed shape mix
    JsonValue request =
        grid("", subset(rng, kPlatforms.size(), width),
             subset(rng, 4, 1 + set.size() % 2), subset(rng, kKinds.size(), width));
    const std::string text = request.dump();
    if (seen.count(text) != 0) {
      continue;
    }
    const auto parsed = resilience::service::ScenarioRequest::parse(text);
    std::set<std::string> owners;
    for (const auto& chain : resilience::core::grid_chains(parsed.grid, sweep)) {
      owners.insert(*ring.owner(chain.key.value));
    }
    if (owners.size() == static_cast<std::size_t>(plan.shards)) {
      seen.insert(text);
      set.push_back(text);
    }
  }
  return set;
}

std::string with_id(const std::string& request, const std::string& id) {
  JsonValue json = JsonValue::parse(request);
  JsonValue out = JsonValue::object();
  out.set("id", id);
  for (const auto& [key, value] : json.as_object()) {
    if (key != "id") {
      out.set(key, value);
    }
  }
  return out.dump();
}

/// A never-seen analytic grid drawn from (seed, index); `unique` is added
/// to its disk-checkpoint cost, and a distinct `unique` per request keeps
/// every ChainKey distinct. The unique part is far below any cost that
/// changes an optimum's shape, so request cost does not drift along the
/// stream.
std::string cold_grid(std::uint64_t seed, std::size_t index,
                      const std::string& id, double unique) {
  SplitMix64 rng(mix(seed, index, 1));
  JsonValue request = grid(id, subset(rng, kPlatforms.size(), 1 + rng.below(4)),
                           subset(rng, kNodes.size(), 1 + rng.below(4)),
                           subset(rng, kKinds.size(), 1 + rng.below(6)));
  JsonValue override_cost = JsonValue::object();
  override_cost.set("disk_checkpoint",
                    60.0 * static_cast<double>(1 + rng.below(4)) + unique);
  JsonValue overrides = JsonValue::array();
  overrides.push_back(std::move(override_cost));
  request.set("cost_overrides", std::move(overrides));
  return request.dump();
}

/// A 24-cell simulate grid with Monte Carlo seed `sim_seed`. One grid
/// shape and one pair of values per sim axis for every request (Hera at
/// 4096 nodes, all six families): Monte Carlo cost per run varies tenfold
/// across platforms, node counts and axis values, so only the seed varies
/// and every request does the same work in distribution.
std::string sim_grid(const std::string& id, double sim_seed) {
  JsonValue request = grid(id, {0}, {2}, {0, 1, 2, 3, 4, 5});
  request.set("mode", "simulate");
  JsonValue sim = JsonValue::object();
  sim.set("seed", sim_seed);
  sim.set("target_ci", 0.03);
  sim.set("max_runs", 256);
  sim.set("min_runs", 64);
  JsonValue shapes = JsonValue::array();
  shapes.push_back(1.0);
  shapes.push_back(0.7);
  sim.set("weibull_shape", std::move(shapes));
  JsonValue ops = JsonValue::array();
  ops.push_back(1.0);
  ops.push_back(0.5);
  sim.set("faulty_ops", std::move(ops));
  request.set("sim", std::move(sim));
  return request.dump();
}

/// Monte Carlo seed of sim-campaign request `index`: request-unique, so
/// never a sim-cache hit. Measured requests stay far below index 10^6.
double sim_seed(std::uint64_t seed, std::size_t index) {
  return static_cast<double>((seed % 1000000007ULL) * 1000000ULL + index);
}

/// Set-up requests of cold-grid: enough cold grids to run the daemon's
/// compute and cache-insert paths before timing.
constexpr std::size_t kColdWarmup = 8;
constexpr std::uint64_t kWarmupSeed = 0x5eed;

}  // namespace

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : {Workload::kColdGrid, Workload::kWarmMix,
                     Workload::kSimCampaign, Workload::kRouterWarm}) {
    if (name == workload_name(w)) {
      return w;
    }
  }
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kColdGrid:
      return "cold-grid";
    case Workload::kWarmMix:
      return "warm-mix";
    case Workload::kSimCampaign:
      return "sim-campaign";
    case Workload::kRouterWarm:
      return "router-warm";
  }
  return "?";
}

ServerPlan server_plan(Workload workload) {
  // One request worker and one pool thread everywhere: with the generator
  // that keeps at most three of the four cores busy, and the spare core is
  // what keeps host steal (another tenant's load) out of the numbers.
  ServerPlan plan;
  switch (workload) {
    case Workload::kColdGrid:
    case Workload::kSimCampaign:
      break;
    case Workload::kWarmMix:
      plan.cache_capacity = 256;
      break;
    case Workload::kRouterWarm:
      plan.cache_capacity = 256;
      plan.shards = 3;
      plan.router_workers = 1;
      break;
  }
  return plan;
}

LoadPlan load_plan(Workload workload) {
  LoadPlan plan;
  switch (workload) {
    case Workload::kColdGrid:
    case Workload::kSimCampaign:
      break;
    case Workload::kWarmMix:
      plan.connections = 2;
      plan.in_flight = 4;
      plan.open_loop_phase = true;
      break;
    case Workload::kRouterWarm:
      plan.connections = 2;
      plan.in_flight = 2;
      plan.open_loop_phase = true;
      break;
  }
  return plan;
}

std::vector<std::string> shard_ids(const ServerPlan& plan) {
  std::vector<std::string> ids;
  for (int i = 0; i < plan.shards; ++i) {
    ids.push_back(tagged("127.0.0.1:", kShardBasePort + static_cast<std::size_t>(i)));
  }
  return ids;
}

std::string cold_grid_request(std::uint64_t seed, std::size_t index) {
  return cold_grid(seed, index, tagged("c", index),
                   1e-6 * static_cast<double>(index + 1));
}

std::string sim_request(std::uint64_t seed, std::size_t index) {
  return sim_grid(tagged("s", index), sim_seed(seed, index));
}

std::vector<std::string> warmup_requests(Workload workload) {
  // The same batch for every seed, so set-up work does not vary with it.
  // Its ChainKeys and sim seed never occur in a measured stream: negative
  // unique costs, and a sim index no run reaches.
  std::vector<std::string> requests;
  if (workload == Workload::kColdGrid) {
    for (std::size_t k = 0; k < kColdWarmup; ++k) {
      requests.push_back(cold_grid(kWarmupSeed, k, tagged("u", k),
                                   -1e-6 * static_cast<double>(k + 1)));
    }
  } else if (workload == Workload::kSimCampaign) {
    requests.push_back(sim_grid("u0", sim_seed(kWarmupSeed, 999999)));
  }
  return requests;
}

std::vector<std::string> warm_set(Workload workload, std::uint64_t seed) {
  std::vector<std::string> raw;
  if (workload == Workload::kWarmMix) {
    raw = warm_mix_set(seed);
  } else if (workload == Workload::kRouterWarm) {
    raw = router_set(seed);
  }
  std::vector<std::string> set;
  for (std::size_t k = 0; k < raw.size(); ++k) {
    set.push_back(with_id(raw[k], tagged("w", k)));
  }
  return set;
}

RequestStream::RequestStream(Workload workload, std::uint64_t seed)
    : workload_(workload), seed_(seed), set_(warm_set(workload, seed)) {}

std::size_t RequestStream::set_index(std::size_t index) const {
  return static_cast<std::size_t>(mix(seed_, index, 3) % set_.size());
}

const std::string& RequestStream::line(std::size_t index) {
  if (!set_.empty()) {
    return set_[set_index(index)];
  }
  while (generated_.size() <= index) {
    const std::size_t next = generated_.size();
    generated_.push_back(workload_ == Workload::kSimCampaign
                             ? sim_request(seed_, next)
                             : cold_grid_request(seed_, next));
  }
  return generated_[index];
}

std::vector<double> poisson_arrivals(std::uint64_t seed, double rate,
                                     double seconds) {
  SplitMix64 rng(mix(seed, 0, 4));
  std::vector<double> offsets;
  double t = 0.0;
  while (rate > 0.0) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) {
      break;
    }
    offsets.push_back(t);
  }
  return offsets;
}

}  // namespace perfbench
