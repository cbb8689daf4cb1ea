#pragma once

// Operation-level simulator of a resilience pattern. Mirrors the paper's
// simulator (Section 6.1): fail-stop errors may strike computations,
// verifications, checkpoints and recoveries; silent errors strike
// computations only. Rollback semantics:
//   fail-stop        -> disk recovery + memory recovery, restart the pattern;
//   silent detected  -> memory recovery, restart the current segment;
//   fail-stop during a memory recovery escalates to the disk path (the
//   memory copy being restored is gone too).
//
// The engine is a template over the error model and the event observer,
// and simulate_patterns is its one entry point: every model (error_model.hpp,
// renewal.hpp) is a concrete class bound statically, so the arrival-driven
// fast path (PoissonArrivalModel + NullObserver) compiles down to float
// compares with no dynamic dispatch and no observer test per event. A
// std::function observer (EventObserver) can be passed the same way.

#include <cstdint>
#include <functional>
#include <type_traits>

#include "resilience/core/params.hpp"
#include "resilience/core/pattern.hpp"
#include "resilience/sim/error_model.hpp"
#include "resilience/sim/metrics.hpp"

namespace resilience::sim {

/// Simulation event stream, mainly for tests and debugging traces.
enum class Event {
  kChunkCompleted,
  kFailStop,
  kSilentInjected,
  kPartialAlarm,
  kGuaranteedAlarm,
  kMemoryCheckpoint,
  kDiskCheckpoint,
  kMemoryRecovery,
  kDiskRecovery,
  kPatternCompleted,
};

/// Optional observer invoked after each event with the current simulation
/// clock; keep it cheap, it sits on the hot path.
using EventObserver = std::function<void(Event, double clock_seconds)>;

/// Compile-time no-op observer: the default for the templated engine; every
/// notify call folds away.
struct NullObserver {
  constexpr void operator()(Event, double) const noexcept {}
};

namespace detail {

/// Mutable simulation context threaded through the helpers below.
template <typename Model, typename Observer>
struct Context {
  const core::ModelParams& params;
  Model& errors;
  Observer& observer;
  RunMetrics metrics;
  double clock = 0.0;

  void notify(Event event) { observer(event, clock); }

  /// Exposes a computation window of `length` seconds to fail-stop
  /// errors, advancing the clock by the survived portion. Returns true
  /// when the window completed (no strike).
  bool expose(double length) { return survived(errors.sample_fail_stop(length)); }

  /// Same bookkeeping, but routed through the model's operation-site
  /// sampler — verifications, checkpoints and recoveries expose here so a
  /// faulty-operations ablation can rescale their error rate without
  /// touching computation windows (RenewalErrorModel's ops factor).
  bool expose_op(double length) {
    return survived(errors.sample_fail_stop_op(length));
  }

  bool survived(const FailStopOutcome& outcome) {
    clock += outcome.time_survived;
    if (outcome.struck) {
      ++metrics.fail_stop_errors;
      notify(Event::kFailStop);
      return false;
    }
    return true;
  }

  /// Full fail-stop recovery: restore the disk checkpoint, then the memory
  /// copy. Either restore may itself be interrupted by a fail-stop error,
  /// in which case the whole recovery restarts (the paper's Eqs. (30)-(31)
  /// retry structure).
  void recover_from_fail_stop() {
    for (;;) {
      // Disk recovery retries independently until it completes.
      while (!expose_op(params.costs.disk_recovery)) {
      }
      ++metrics.disk_recoveries;
      notify(Event::kDiskRecovery);
      // Memory restore: a strike here destroys the partially restored
      // memory image, so fall back to the top (fresh disk recovery).
      if (expose_op(params.costs.memory_recovery)) {
        ++metrics.memory_recoveries;
        notify(Event::kMemoryRecovery);
        return;
      }
    }
  }

  /// Memory-only recovery after a detected silent error. Returns true on
  /// success; false when a fail-stop error interrupted the restore, in
  /// which case the full disk path has already been taken and the caller
  /// must restart the pattern rather than the segment.
  bool recover_from_silent() {
    if (expose_op(params.costs.memory_recovery)) {
      ++metrics.memory_recoveries;
      notify(Event::kMemoryRecovery);
      return true;
    }
    recover_from_fail_stop();
    return false;
  }
};

/// Per-segment outcome telling the pattern loop how to proceed.
enum class SegmentOutcome { kCompleted, kRestartSegment, kRestartPattern };

template <typename Model, typename Observer>
SegmentOutcome run_segment(Context<Model, Observer>& ctx,
                           const core::PatternSpec& pattern,
                           std::size_t segment_index) {
  const auto& segment = pattern.segment(segment_index);
  const std::size_t chunks = segment.chunks();
  const core::CostParams& costs = ctx.params.costs;
  // P_DV*/P_DMV* interleave guaranteed verifications (cost V*, recall 1)
  // between chunks; the other families use partial ones (cost V, recall r).
  const bool guaranteed_mid = pattern.guaranteed_intermediates();
  const double intermediate_cost =
      guaranteed_mid ? costs.guaranteed_verification : costs.partial_verification;

  bool corrupted = false;
  for (std::size_t j = 0; j < chunks; ++j) {
    const double work = pattern.chunk_work(segment_index, j);
    const bool is_last = (j + 1 == chunks);

    // Computation: silent errors only materialize if the chunk completes —
    // a fail-stop strike rolls everything back to the disk checkpoint, so
    // corruption within the interrupted chunk is moot.
    if (!ctx.expose(work)) {
      ctx.recover_from_fail_stop();
      return SegmentOutcome::kRestartPattern;
    }
    if (ctx.errors.sample_silent(work)) {
      corrupted = true;
      ++ctx.metrics.silent_errors;
      ctx.notify(Event::kSilentInjected);
    }
    ctx.notify(Event::kChunkCompleted);

    // Verification attached to the chunk: partial for intermediate chunk
    // boundaries, guaranteed for the segment end.
    const double verif_cost =
        is_last ? costs.guaranteed_verification : intermediate_cost;
    if (!ctx.expose_op(verif_cost)) {
      ctx.recover_from_fail_stop();
      return SegmentOutcome::kRestartPattern;
    }
    if (is_last || guaranteed_mid) {
      ++ctx.metrics.guaranteed_verifications;
      if (corrupted) {
        ++ctx.metrics.silent_detections_guaranteed;
        ctx.notify(Event::kGuaranteedAlarm);
        return ctx.recover_from_silent() ? SegmentOutcome::kRestartSegment
                                         : SegmentOutcome::kRestartPattern;
      }
    } else {
      ++ctx.metrics.partial_verifications;
      if (corrupted && ctx.errors.sample_detection(costs.recall)) {
        ++ctx.metrics.silent_detections_partial;
        ctx.notify(Event::kPartialAlarm);
        return ctx.recover_from_silent() ? SegmentOutcome::kRestartSegment
                                         : SegmentOutcome::kRestartPattern;
      }
    }
  }

  // Segment verified clean: commit the in-memory checkpoint.
  if (!ctx.expose_op(costs.memory_checkpoint)) {
    ctx.recover_from_fail_stop();
    return SegmentOutcome::kRestartPattern;
  }
  ++ctx.metrics.memory_checkpoints;
  ctx.notify(Event::kMemoryCheckpoint);
  return SegmentOutcome::kCompleted;
}

}  // namespace detail

/// Simulates `patterns` consecutive executions of `pattern` and returns the
/// accumulated metrics. The error model carries the RNG stream, so two
/// calls with identical models reproduce identical runs. The model is a
/// concrete class (PoissonArrivalModel, RenewalErrorModel, ErrorModel),
/// bound statically. The observer is a forwarding reference, so a stateful
/// observer passed as an lvalue is mutated in place, never through a
/// discarded copy; an EventObserver must not be empty.
template <typename Model, typename Observer = NullObserver>
[[nodiscard]] RunMetrics simulate_patterns(const core::PatternSpec& pattern,
                                           const core::ModelParams& params,
                                           Model& errors, std::uint64_t patterns,
                                           Observer&& observer = Observer{}) {
  params.validate();
  detail::Context<Model, std::remove_reference_t<Observer>> ctx{
      params, errors, observer, RunMetrics{}, 0.0};

  for (std::uint64_t completed = 0; completed < patterns;) {
    bool pattern_done = false;
    while (!pattern_done) {
      std::size_t segment = 0;
      bool restart_pattern = false;
      while (segment < pattern.segment_count()) {
        switch (detail::run_segment(ctx, pattern, segment)) {
          case detail::SegmentOutcome::kCompleted:
            ++segment;
            break;
          case detail::SegmentOutcome::kRestartSegment:
            break;  // retry the same segment from its memory checkpoint
          case detail::SegmentOutcome::kRestartPattern:
            restart_pattern = true;
            segment = pattern.segment_count();  // break the segment loop
            break;
        }
      }
      if (restart_pattern) {
        continue;  // re-run the whole pattern from the disk checkpoint
      }
      // All segments committed: close the pattern with a disk checkpoint.
      if (!ctx.expose_op(params.costs.disk_checkpoint)) {
        ctx.recover_from_fail_stop();
        continue;
      }
      ++ctx.metrics.disk_checkpoints;
      ctx.notify(Event::kDiskCheckpoint);
      pattern_done = true;
    }
    ++completed;
    ++ctx.metrics.patterns_completed;
    ctx.metrics.useful_work_seconds += pattern.work();
    ctx.notify(Event::kPatternCompleted);
  }

  ctx.metrics.elapsed_seconds = ctx.clock;
  return ctx.metrics;
}

}  // namespace resilience::sim
