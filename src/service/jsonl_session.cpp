#include "resilience/service/jsonl_session.hpp"

#include <chrono>
#include <utility>

#include "resilience/service/cost_model.hpp"
#include "resilience/service/sim_service.hpp"

namespace resilience::service {

namespace {

/// Adapts a callable to the engine's cell-sink interface. The runner
/// serializes on_cell calls, so the callable needs no locking.
template <class Fn>
class CellFnSink final : public core::CellSink {
 public:
  explicit CellFnSink(Fn fn) : fn_(std::move(fn)) {}
  void on_cell(const core::SweepCell& cell) override { fn_(cell); }

 private:
  Fn fn_;
};

}  // namespace

JsonlSession::JsonlSession(SweepService& service, LineFn emit, Options options,
                           std::shared_ptr<const std::atomic<bool>> cancelled)
    : LineSession(std::move(emit), std::move(cancelled)),
      service_(service),
      options_(options) {}

std::string JsonlSession::stats_answer(const std::string& id) {
  const util::JsonValue transport = transport_stats();
  return stats_line(id, service_.stats(),
                    transport.is_null() ? nullptr : &transport);
}

void JsonlSession::serve_scenario(ScenarioRequest& request) {
  // Compute budget: the request's own deadline wins; the session default
  // covers requests that state none. Anchored here — execution start —
  // so transport/queue wait never eats into the stated budget.
  const int deadline_ms =
      request.deadline_ms > 0 ? request.deadline_ms
                              : options_.default_deadline_ms;
  core::CancelToken cancel(cancel_flag());
  if (deadline_ms > 0) {
    cancel.set_deadline(std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms));
  }

  try {
    // Server-side budget cap: refused at admission, before any compute —
    // the error names the field so clients can lower their ask.
    if (request.simulate && options_.sim_max_runs > 0 &&
        request.sim.max_runs > options_.sim_max_runs) {
      fail(error_line(request.id, "sim.max_runs",
                      "exceeds the server cap of " +
                          std::to_string(options_.sim_max_runs) +
                          " runs per cell"));
      return;
    }
    // Price the request BEFORE submitting: the estimate must reflect the
    // cache state an admission controller saw, not the state after this
    // very request published its table. Only when the client asked for
    // stats — the probe is cheap but not free.
    const CostEstimate cost = request.include_stats
                                  ? estimate_cost(request, &service_)
                                  : CostEstimate{};
    // The opt-in done-line stats block: the counters after the submit,
    // then that estimate AFTER the counter blocks — consumers match the
    // stats prefix textually, and insertion order is emission order.
    util::JsonValue stats;
    const auto done_stats = [&]() -> const util::JsonValue* {
      if (!request.include_stats) {
        return nullptr;
      }
      stats = to_json(service_.stats());
      stats.set("cost", to_json(cost));
      return &stats;
    };
    if (request.simulate) {
      const core::GridSignature signature = service_.sim().signature_for(request);
      SimCellFn sink;
      if (options_.stream) {
        sink = [this, &request, signature](const SimCell& cell) {
          if (!cancelled()) {
            emit(sim_cell_line(request.id, signature, cell), false);
          }
        };
      }
      const SimSubmitResult result =
          service_.sim().submit(request, sink, cancel);
      emit(sim_done_line(request.id, result.signature, *result.table,
                         result.cache_hit, done_stats()),
           true);
      return;
    }
    const core::GridSignature signature = service_.signature_for(request);
    std::vector<core::SweepCell> cells;  // kept for the outcome hook
    CellFnSink sink([&](const core::SweepCell& cell) {
      if (options_.collect) {
        cells.push_back(cell);
      }
      if (options_.stream && !cancelled()) {
        emit(cell_line(request.id, signature, cell), false);
      }
    });
    const bool need_sink = options_.stream || options_.collect;
    const SubmitResult result =
        service_.submit(request, need_sink ? &sink : nullptr, cancel);
    emit(done_line(request.id, result.signature, *result.table,
                   result.cache_hit, result.joined_in_flight, done_stats()),
         true);
    if (outcome_) {
      outcome_(Outcome{std::move(request), result, std::move(cells)});
    }
  } catch (const core::SweepCancelled& cancelled) {
    if (!cancelled.deadline_expired()) {
      return;  // disconnect cancellation: the client is gone, stay silent
    }
    fail(error_line(request.id, "deadline_ms",
                    "deadline of " + std::to_string(deadline_ms) +
                        " ms exceeded before the sweep completed"));
  }
}

}  // namespace resilience::service
