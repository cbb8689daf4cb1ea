#pragma once

// One JSONL request/response session over a SweepService — the request
// processing that used to live inside sweep_server's main loop, factored
// out so every front-end (the stdin CLI, the epoll daemon, the loopback
// bench) speaks byte-identical protocol BY CONSTRUCTION. The request
// front (line numbering, classification, pong and located-error answers,
// the cancellation gate) is LineSession's; this class supplies the two
// answers that need the service:
//   * {"type":"stats", ...}   — one stats_line snapshot;
//   * scenario request object — submitted (cells streamed as cell_lines),
//                               finished with a done_line (carrying a
//                               stats block when the request set
//                               "stats": true); "mode": "simulate"
//                               requests route to the SimService instead
//                               (Monte Carlo cells, a "mode":"simulate"
//                               done line) through the same emit seam.
//
// Cancellation: a front-end may hand in a shared cancel flag (the
// daemon's per-connection token, set on disconnect). Once it reads true
// the session stops formatting and emitting lines — mid-request, the
// flag folds into the submit's cancel token, so the abandoned sweep also
// unwinds at its next cell instead of computing for a client that is
// gone (a cancelled sweep publishes no table; the next submission of the
// grid recomputes it).
//
// Deadlines: a request's "deadline_ms" (or, when absent, the session's
// default_deadline_ms) bounds COMPUTE time, measured from when the
// session starts executing the request — queue/transport wait is
// excluded, so the bound a client states is about the engine, not about
// pipeline depth. On expiry the request answers with one located
// {"type":"error"} line (field "deadline_ms") and the session moves on;
// cells already streamed before expiry remain valid (their values never
// depend on cancellation). If the submit manages to finish despite an
// expired deadline — e.g. a cache hit raced the clock — the finished
// done line is served rather than discarded.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "resilience/service/line_session.hpp"
#include "resilience/service/scenario_request.hpp"
#include "resilience/service/serialize.hpp"
#include "resilience/service/sweep_service.hpp"

namespace resilience::service {

struct JsonlSessionOptions {
  bool stream = true;    ///< emit cell lines (done/error always emit)
  bool collect = false;  ///< keep streamed cells for the outcome hook
  /// Deadline applied to requests that carry none of their own
  /// ("deadline_ms" absent or 0); 0 = unbounded. A request's explicit
  /// field always wins.
  int default_deadline_ms = 0;
  /// Hard server-side cap on a simulate request's sim.max_runs (0 =
  /// uncapped). A request over the cap answers with one error line
  /// (field "sim.max_runs") before any compute — the simulate analogue
  /// of bounding compute budgets at admission.
  std::uint64_t sim_max_runs = 0;
};

class JsonlSession final : public LineSession {
 public:
  using Options = JsonlSessionOptions;

  /// Everything sweep_server --check needs about one served request.
  struct Outcome {
    ScenarioRequest request;
    SubmitResult result;
    std::vector<core::SweepCell> cells;  ///< filled when options.collect
  };
  using OutcomeFn = std::function<void(const Outcome& outcome)>;

  JsonlSession(SweepService& service, LineFn emit,
               Options options = Options(),
               std::shared_ptr<const std::atomic<bool>> cancelled = nullptr);

  /// Called after each successfully served ANALYTIC scenario request
  /// (not for stats requests, errors, or "mode": "simulate" requests —
  /// sim determinism is pinned by test_sim_service, not --check).
  void set_outcome_hook(OutcomeFn hook) { outcome_ = std::move(hook); }

 private:
  std::string stats_answer(const std::string& id) override;
  void serve_scenario(ScenarioRequest& request) override;

  SweepService& service_;
  Options options_;
  OutcomeFn outcome_;
};

}  // namespace resilience::service
