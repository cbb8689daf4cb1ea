#pragma once

// Client-facing request parsing: one JSON object per scenario batch,
// validated into a core::ScenarioGrid before any compute is scheduled.
// Every validation failure is a RequestError whose `field` names the
// offending JSON path ("platforms[1].nodes", "rate_factors[0].silent"),
// so clients can fix requests without reading server logs.
//
// Request schema (docs/serving.md has the full worked example):
//
//   {"id": "r1",                      // optional echo tag, default ""
//    "platforms": ["hera",            // catalog name, or inline object:
//                  {"name": "custom", "nodes": 4096,
//                   "fail_stop": 2.3e-7, "silent": 1.8e-7,
//                   "disk_checkpoint": 120.0, "memory_checkpoint": 5.0}],
//    "node_counts": [1024, 4096],     // optional axes, as in ScenarioGrid
//    "rate_factors": [{"fail_stop": 1.0, "silent": 2.0}],
//    "cost_overrides": [{"disk_checkpoint": 90.0}],
//    "kinds": ["PD", "PDMV"],         // optional; default all six families;
//                                     //   each family listed once
//    "numeric_optimum": true,         // optional; default true
//    "reuse_seeds": true,             // optional; default true (bit-identical
//                                     //   either way; see SweepService)
//    "deadline_ms": 5000,             // optional; 0 (default) = no deadline;
//                                     //   exceeded -> {"type":"error"} line
//    "mode": "simulate",              // optional; default "sweep" (analytic)
//    "sim": {"seed": 42,              // only with mode "simulate":
//            "target_ci": 0.05,       //   CI-bounded Monte Carlo per cell
//            "max_runs": 1000, "min_runs": 64, "patterns_per_run": 100,
//            "weibull_shape": [1.0, 0.7],  // extra grid axes the analytic
//            "faulty_ops": [1.0, 0.0]}}    //   path cannot express; each
//                                          //   value listed once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "resilience/core/sweep.hpp"
#include "resilience/util/json.hpp"

namespace resilience::service {

/// The most cells (points x families x the two sim axes) one request may
/// ask for. Grids are resolved on the daemon's event-loop thread before
/// admission can weigh them, and request bytes are untrusted: a 16 KB
/// line of 600 x 600 axis entries resolves 360,000 points, four 2^16-entry
/// axes in 1 MB ask for 2^64. The project's own grids (the paper's
/// figures, the smokes, perfbench, bench_micro's deadline grid, which
/// grows with machine speed) stay at a few hundred cells, so 2^16 leaves
/// two orders of magnitude; a bigger campaign splits into requests.
inline constexpr std::size_t kMaxRequestCells = std::size_t{1} << 16;

/// A request that failed validation. `field` is the JSON path of the
/// offending value ("" when the problem is not tied to one field).
class RequestError : public std::runtime_error {
 public:
  RequestError(std::string field_path, const std::string& message);

  std::string field;
  /// The full text of what(): the same bytes, except that what() stops
  /// at a NUL a client put into a field name and this does not.
  std::string text;
};

/// The `sim` block of a `"mode": "simulate"` request: the Monte Carlo
/// budget plus the two extra grid axes only the simulator can express.
/// Every field is result-affecting and enters the sim signature (the
/// per-cell seeds are content-addressed from `seed` and the cell's
/// parameters, so identical requests replay identical bytes from cache).
struct SimParams {
  /// Base RNG seed. JSON values are doubles, so request seeds are capped
  /// at 1e15 (integers stay exact well past that).
  std::uint64_t seed = 0x5eedULL;
  /// Relative 95% CI stopping target per cell; 0 = run every cell to
  /// max_runs. Checked at doubling batch boundaries, never before
  /// min_runs.
  double target_ci = 0.0;
  std::uint64_t max_runs = 1000;  ///< hard per-cell run cap
  std::uint64_t min_runs = 64;    ///< first batch; no stopping before it
  std::uint64_t patterns_per_run = 100;
  /// Weibull-shape axis (renewal inter-arrivals at the platform's MTBF);
  /// 1.0 = the paper's exponential model (Poisson fast path).
  std::vector<double> weibull_shape = {1.0};
  /// Faulty-operations axis: factor scaling the fail-stop rate seen by
  /// NON-computation operations (verifications, checkpoints, recoveries);
  /// 1.0 = uniform (the paper's model), 0 = error-free operations.
  std::vector<double> faulty_ops = {1.0};

  [[nodiscard]] bool operator==(const SimParams&) const = default;
};

/// Parses a request's `sim` block (or a simulate table's header): budgets
/// capped at 1e15 like every request integer, axis values finite and
/// positive (weibull_shape) / non-negative (faulty_ops), each listed once.
/// Throws RequestError naming the "sim.<field>" path.
[[nodiscard]] SimParams sim_params_from_json(const util::JsonValue& json);

/// One parsed scenario batch.
struct ScenarioRequest {
  std::string id;                ///< client tag echoed in every response line
  core::ScenarioGrid grid;       ///< validated; resolve_points() succeeds
  bool numeric_optimum = true;   ///< run the exact (n, m, W) optimization
  /// Allow warm-starting this grid's chains from cached sibling grids
  /// (results are bit-identical either way; off only forces a cold
  /// compute, e.g. for benchmarking).
  bool reuse_seeds = true;
  /// Append a service/cache counter snapshot to this request's `done`
  /// line ("stats": true). Off by default deliberately: the counters are
  /// service-global, so under concurrent clients their values depend on
  /// interleaving — responses stay byte-deterministic unless a client
  /// explicitly asks for observability.
  bool include_stats = false;
  /// Compute budget in milliseconds, measured from when execution starts
  /// (queue wait excluded); 0 means none. On expiry the request answers
  /// with a located {"type":"error"} timeout line instead of occupying a
  /// worker indefinitely. Execution policy: not part of the grid, so it
  /// never enters the signature — a timed-out and an unbounded submission
  /// of the same grid share a cache identity.
  int deadline_ms = 0;
  /// `"mode": "simulate"`: answer the grid with budgeted Monte Carlo
  /// (mean/CI cells) instead of the analytic evaluator.
  bool simulate = false;
  /// Monte Carlo budget and sim-only axes; meaningful only when
  /// `simulate` is true (the `sim` field is rejected otherwise).
  SimParams sim;

  /// Parses and validates a request object (its grid included, which
  /// takes resolving it); throws RequestError.
  static ScenarioRequest from_json(const util::JsonValue& json);
  /// Parses request text (one JSON object); JSON syntax errors are
  /// rethrown as RequestError with field "".
  static ScenarioRequest parse(std::string_view text);

  /// Re-serialization (catalog platforms are inlined); used by docs/tests.
  [[nodiscard]] util::JsonValue to_json() const;
};

/// A request with everything derived from it computed once, at
/// classification: the admission price, the session, the reuse ladder
/// and the router's plan read these fields instead of re-deriving them.
struct ResolvedRequest {
  ScenarioRequest request;
  std::vector<core::ScenarioPoint> points;  ///< resolve_points(request.grid)
  std::vector<core::PatternKind> kinds;     ///< grid.resolved_kinds()
  /// The default sweep options plus the request's numeric_optimum: what
  /// every service runs, so a router and its shards sign alike.
  core::SweepOptions sweep;
  /// grid_signature under `sweep`, or sim_signature for a simulate one.
  core::GridSignature signature;
  /// grid_chains under `sweep`: routing keys and the seed tier's index.
  std::vector<core::GridChain> chains;

  /// Heap bytes of the derived fields: what a request parked in a
  /// connection's backlog holds beyond its line.
  [[nodiscard]] std::size_t resolved_bytes() const noexcept;
};

/// The one resolve: validates `request` and derives the other fields.
/// Throws RequestError like from_json.
[[nodiscard]] ResolvedRequest resolve_request(ScenarioRequest request);
/// Parses a request object and resolves it, the grid once.
[[nodiscard]] ResolvedRequest resolve_request(const util::JsonValue& json);

}  // namespace resilience::service
