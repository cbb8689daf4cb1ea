#pragma once

// The benchmark's four workloads: their server configuration, their load
// shape, and the request streams the generator sends. Every stream is a
// pure function of the workload seed — the servers only ever see the
// generated request lines — and every request's work is fixed by the seed
// alone, never by interleaving or cache history (see README.md).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Workload { kColdGrid, kWarmMix, kSimCampaign, kRouterWarm };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload workload);

/// splitmix64: the benchmark's own generator, so streams stay fixed even
/// if the library's RNG changes.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n > 0.
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Explicit thread counts of every server process: busy server threads
/// (request workers + pool threads) plus the one generator thread stay
/// within the 4 cores the benchmark is sized for.
struct ServerPlan {
  int threads = 1;          ///< sweep_serverd --threads (pool size)
  int request_workers = 1;  ///< sweep_serverd --request-workers
  int cache_capacity = 64;  ///< sweep_serverd --cache-capacity
  int shards = 0;           ///< 0 = daemon-direct; else shards behind a router
  int router_workers = 0;   ///< sweep_router --request-workers
};

struct LoadPlan {
  std::size_t connections = 1;
  std::size_t in_flight = 1;  ///< closed-loop requests per connection
  /// Warm workloads: a saturation phase, a serial (one in flight) latency
  /// phase, then an open loop at half the rate the saturation phase
  /// measured. The others run one closed loop.
  bool open_loop_phase = false;
};

[[nodiscard]] ServerPlan server_plan(Workload workload);
[[nodiscard]] LoadPlan load_plan(Workload workload);

/// Fixed shard ports of router-warm: the router's consistent-hash ring
/// keys on "host:port", so fixed ports make chain placement a pure
/// function of the seed.
inline constexpr std::uint16_t kShardBasePort = 47311;
[[nodiscard]] std::vector<std::string> shard_ids(const ServerPlan& plan);

/// Request `index` of the cold-grid stream: a never-seen analytic grid
/// (1-4 platforms x 1-4 node counts x 1-6 families) with one cost
/// override unique to the request, so no two requests share a ChainKey.
[[nodiscard]] std::string cold_grid_request(std::uint64_t seed,
                                            std::size_t index);
/// Request `index` of the sim-campaign stream: a 24-cell simulate grid
/// over both sim axes (the same axes for every request) with a
/// request-unique Monte Carlo seed.
[[nodiscard]] std::string sim_request(std::uint64_t seed, std::size_t index);
/// The set-up batch of cold-grid (8 cold grids) and sim-campaign (one
/// simulate grid), the same for every seed, sent after every start so no
/// timed request is the daemon's first; empty for the warm workloads,
/// whose set-up is their working set. No ChainKey or sim seed of the
/// batch recurs in a measured stream.
[[nodiscard]] std::vector<std::string> warmup_requests(Workload workload);
/// The working set of warm-mix or router-warm (empty for the others).
/// Request ids are the set position ("w<k>"), so every repeat of an entry
/// has the same response bytes.
[[nodiscard]] std::vector<std::string> warm_set(Workload workload,
                                                std::uint64_t seed);

/// The measured request stream of one workload: request i is generated on
/// demand (cold, sim) or drawn from the working set (warm).
class RequestStream {
 public:
  RequestStream(Workload workload, std::uint64_t seed);

  [[nodiscard]] const std::string& line(std::size_t index);
  /// Working-set position of request `index` (warm workloads only).
  [[nodiscard]] std::size_t set_index(std::size_t index) const;
  [[nodiscard]] const std::vector<std::string>& working_set() const noexcept {
    return set_;
  }

 private:
  Workload workload_;
  std::uint64_t seed_;
  std::vector<std::string> set_;
  std::vector<std::string> generated_;
};

/// Arrival offsets (seconds from phase start) of a Poisson open loop at
/// `rate` requests/s over `seconds`.
[[nodiscard]] std::vector<double> poisson_arrivals(std::uint64_t seed,
                                                   double rate,
                                                   double seconds);

}  // namespace perfbench
