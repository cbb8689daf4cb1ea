// Tests for the operation-level simulation engine: deterministic error-free
// accounting, rollback semantics under forced error regimes, counter
// consistency and the event stream.

#include "resilience/sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "resilience/core/first_order.hpp"
#include "resilience/core/platform.hpp"
#include "resilience/sim/renewal.hpp"

namespace rs = resilience::sim;
namespace rc = resilience::core;
namespace ru = resilience::util;

namespace {

rc::ModelParams hera_params() { return rc::hera().model_params(); }

/// A run of the per-operation reference sampler.
template <typename Observer = rs::NullObserver>
rs::RunMetrics simulate(const rc::PatternSpec& pattern, const rc::ModelParams& params,
                        std::uint64_t patterns, std::uint64_t seed = 1,
                        Observer&& observer = Observer{}) {
  rs::ErrorModel errors(params.rates, ru::Xoshiro256(seed));
  return rs::simulate_patterns(pattern, params, errors, patterns,
                               std::forward<Observer>(observer));
}

/// Same run through the arrival-driven fast path.
rs::RunMetrics simulate_fast(const rc::PatternSpec& pattern,
                             const rc::ModelParams& params, std::uint64_t patterns,
                             std::uint64_t seed = 1) {
  rs::PoissonArrivalModel errors(params.rates, ru::Xoshiro256(seed));
  return rs::simulate_patterns(pattern, params, errors, patterns);
}

}  // namespace

TEST(Engine, ErrorFreeRunIsExactlyDeterministic) {
  rc::ModelParams params = hera_params();
  params.rates = {0.0, 0.0};
  const auto pattern = rc::make_pattern(rc::PatternKind::kDMV, 10000.0, 2, 3, 0.8);
  const auto metrics = simulate(pattern, params, 5);

  const double per_pattern = 10000.0 +
                             2.0 * (params.costs.guaranteed_verification +
                                    params.costs.memory_checkpoint) +
                             4.0 * params.costs.partial_verification +
                             params.costs.disk_checkpoint;
  EXPECT_NEAR(metrics.elapsed_seconds, 5.0 * per_pattern, 1e-6);
  EXPECT_EQ(metrics.patterns_completed, 5u);
  EXPECT_EQ(metrics.disk_checkpoints, 5u);
  EXPECT_EQ(metrics.memory_checkpoints, 10u);
  EXPECT_EQ(metrics.partial_verifications, 20u);
  EXPECT_EQ(metrics.guaranteed_verifications, 10u);
  EXPECT_EQ(metrics.disk_recoveries, 0u);
  EXPECT_EQ(metrics.memory_recoveries, 0u);
  EXPECT_EQ(metrics.fail_stop_errors, 0u);
  EXPECT_EQ(metrics.silent_errors, 0u);
}

TEST(Engine, DeterministicForFixedSeed) {
  const auto params = hera_params();
  const auto pattern = rc::make_pattern(rc::PatternKind::kDMV, 20000.0, 2, 2, 0.8);
  const auto a = simulate(pattern, params, 50, 7);
  const auto b = simulate(pattern, params, 50, 7);
  EXPECT_DOUBLE_EQ(a.elapsed_seconds, b.elapsed_seconds);
  EXPECT_EQ(a.disk_recoveries, b.disk_recoveries);
  EXPECT_EQ(a.memory_recoveries, b.memory_recoveries);
  EXPECT_EQ(a.silent_errors, b.silent_errors);
}

TEST(Engine, FailStopOnlyTriggersDiskRecoveries) {
  rc::ModelParams params = hera_params();
  params.rates = {1e-4, 0.0};  // ~every 2.8 hours
  const auto pattern = rc::make_pattern(rc::PatternKind::kD, 10000.0, 1, 1, 1.0);
  const auto metrics = simulate(pattern, params, 200);
  EXPECT_GT(metrics.fail_stop_errors, 0u);
  EXPECT_GT(metrics.disk_recoveries, 0u);
  // Every fail-stop leads to exactly one completed disk+memory recovery
  // pair (recoveries interrupted by new fail-stop errors are re-run, and
  // each interruption is itself a counted fail-stop error).
  EXPECT_EQ(metrics.memory_recoveries, metrics.disk_recoveries);
  EXPECT_EQ(metrics.fail_stop_errors,
            metrics.disk_recoveries +
                (metrics.fail_stop_errors - metrics.disk_recoveries));
  EXPECT_EQ(metrics.silent_errors, 0u);
}

TEST(Engine, SilentOnlyTriggersMemoryRecoveriesOnly) {
  rc::ModelParams params = hera_params();
  params.rates = {0.0, 1e-4};
  const auto pattern = rc::make_pattern(rc::PatternKind::kDMV, 10000.0, 2, 3, 0.8);
  const auto metrics = simulate(pattern, params, 200);
  EXPECT_GT(metrics.silent_errors, 0u);
  EXPECT_GT(metrics.memory_recoveries, 0u);
  EXPECT_EQ(metrics.disk_recoveries, 0u);
  // Every detection (partial or guaranteed) causes one memory recovery.
  EXPECT_EQ(metrics.memory_recoveries,
            metrics.silent_detections_partial + metrics.silent_detections_guaranteed);
}

TEST(Engine, GuaranteedVerificationCatchesEverySurvivingCorruption) {
  // With recall < 1 some corruption reaches the guaranteed verification,
  // but none may ever cross a completed memory checkpoint. With silent
  // errors only, every injected error must eventually be detected:
  // detections == recoveries and the run completes.
  rc::ModelParams params = hera_params();
  params.rates = {0.0, 5e-4};
  params.costs.recall = 0.5;
  const auto pattern = rc::make_pattern(rc::PatternKind::kDV, 5000.0, 1, 4, 0.5);
  const auto metrics = simulate(pattern, params, 300);
  EXPECT_GT(metrics.silent_detections_guaranteed, 0u);  // some slipped past V
  EXPECT_GT(metrics.silent_detections_partial, 0u);     // some were caught early
  EXPECT_EQ(metrics.patterns_completed, 300u);
}

TEST(Engine, BothErrorSourcesCoexist) {
  rc::ModelParams params = hera_params();
  params.rates = {5e-5, 2e-4};
  const auto pattern = rc::make_pattern(rc::PatternKind::kDMV, 8000.0, 2, 2, 0.8);
  const auto metrics = simulate(pattern, params, 300);
  EXPECT_GT(metrics.disk_recoveries, 0u);
  EXPECT_GT(metrics.memory_recoveries, metrics.disk_recoveries);
  EXPECT_GT(metrics.elapsed_seconds, metrics.useful_work_seconds);
}

TEST(Engine, OverheadGrowsWithErrorRates) {
  const auto pattern = rc::make_pattern(rc::PatternKind::kD, 10000.0, 1, 1, 1.0);
  rc::ModelParams low = hera_params();
  rc::ModelParams high = hera_params();
  high.rates = {low.rates.fail_stop * 20.0, low.rates.silent * 20.0};
  const auto low_metrics = simulate(pattern, low, 500);
  const auto high_metrics = simulate(pattern, high, 500);
  EXPECT_GT(high_metrics.overhead(), low_metrics.overhead());
}

TEST(Engine, EventStreamIsConsistentWithCounters) {
  rc::ModelParams params = hera_params();
  params.rates = {5e-5, 2e-4};
  const auto pattern = rc::make_pattern(rc::PatternKind::kDMV, 8000.0, 2, 2, 0.8);

  // A pattern commits its disk checkpoint only after running error-free
  // once, so consecutive disk checkpoints (the first one counted from the
  // start of the run) are at least W plus its verifications and
  // checkpoints apart.
  const double error_free = 8000.0 +
                            2.0 * (params.costs.guaranteed_verification +
                                   params.costs.memory_checkpoint) +
                            2.0 * params.costs.partial_verification +
                            params.costs.disk_checkpoint;
  std::vector<rs::Event> events;
  double last_clock = 0.0;
  double last_disk_checkpoint = 0.0;
  const auto metrics = simulate(pattern, params, 100, 3,
                                [&](rs::Event event, double clock) {
                                  events.push_back(event);
                                  EXPECT_GE(clock, last_clock);  // time moves forward
                                  last_clock = clock;
                                  if (event == rs::Event::kDiskCheckpoint) {
                                    EXPECT_GE(clock - last_disk_checkpoint,
                                              error_free - 1e-6);
                                    last_disk_checkpoint = clock;
                                  }
                                });

  const auto count = [&](rs::Event type) {
    return static_cast<std::uint64_t>(std::count(events.begin(), events.end(), type));
  };
  EXPECT_EQ(count(rs::Event::kDiskCheckpoint), metrics.disk_checkpoints);
  EXPECT_EQ(count(rs::Event::kMemoryCheckpoint), metrics.memory_checkpoints);
  EXPECT_EQ(count(rs::Event::kDiskRecovery), metrics.disk_recoveries);
  EXPECT_EQ(count(rs::Event::kMemoryRecovery), metrics.memory_recoveries);
  EXPECT_EQ(count(rs::Event::kFailStop), metrics.fail_stop_errors);
  EXPECT_EQ(count(rs::Event::kSilentInjected), metrics.silent_errors);
  EXPECT_EQ(count(rs::Event::kPatternCompleted), metrics.patterns_completed);
  EXPECT_EQ(count(rs::Event::kPartialAlarm), metrics.silent_detections_partial);
  EXPECT_EQ(count(rs::Event::kGuaranteedAlarm),
            metrics.silent_detections_guaranteed);
}

TEST(Engine, UsefulWorkAccountsCompletedPatternsOnly) {
  rc::ModelParams params = hera_params();
  params.rates = {1e-4, 1e-4};
  const auto pattern = rc::make_pattern(rc::PatternKind::kD, 5000.0, 1, 1, 1.0);
  const auto metrics = simulate(pattern, params, 123);
  EXPECT_DOUBLE_EQ(metrics.useful_work_seconds, 123.0 * 5000.0);
  EXPECT_EQ(metrics.patterns_completed, 123u);
}

TEST(Engine, GuaranteedIntermediateVerificationsDetectImmediately) {
  // P_DV*: every chunk boundary carries a guaranteed verification, so with
  // silent errors only, corruption never travels past the chunk where it
  // struck — every detection is a guaranteed-verification alarm and no
  // partial verifications are ever executed.
  rc::ModelParams params = hera_params();
  params.rates = {0.0, 5e-4};
  const auto pattern = rc::make_pattern(rc::PatternKind::kDVg, 5000.0, 1, 4, 1.0);
  ASSERT_TRUE(pattern.guaranteed_intermediates());
  const auto metrics = simulate(pattern, params, 300);
  EXPECT_GT(metrics.silent_errors, 0u);
  EXPECT_EQ(metrics.partial_verifications, 0u);
  EXPECT_EQ(metrics.silent_detections_partial, 0u);
  EXPECT_EQ(metrics.silent_detections_guaranteed, metrics.memory_recoveries);
}

TEST(Engine, GuaranteedIntermediatesCostMorePerVerification) {
  // Error-free: P_DV* pays V* at every chunk boundary while P_DV pays V,
  // so for identical shapes the P_DV* pattern takes strictly longer.
  rc::ModelParams params = hera_params();
  params.rates = {0.0, 0.0};
  const auto pdvg = rc::make_pattern(rc::PatternKind::kDVg, 5000.0, 1, 4, 0.8);
  const auto pdv = rc::make_pattern(rc::PatternKind::kDV, 5000.0, 1, 4, 0.8);
  const auto vg = simulate(pdvg, params, 10);
  const auto v = simulate(pdv, params, 10);
  const double extra = 3.0 * 10.0 *
                       (params.costs.guaranteed_verification -
                        params.costs.partial_verification);
  EXPECT_NEAR(vg.elapsed_seconds - v.elapsed_seconds, extra, 1e-6);
}

TEST(EngineFastPath, ErrorFreeRunMatchesReferenceExactly) {
  // With both rates zero, neither sampler draws anything: the two paths
  // must agree to the last bit.
  rc::ModelParams params = hera_params();
  params.rates = {0.0, 0.0};
  const auto pattern = rc::make_pattern(rc::PatternKind::kDMV, 10000.0, 2, 3, 0.8);
  const auto reference = simulate(pattern, params, 5);
  const auto fast = simulate_fast(pattern, params, 5);
  EXPECT_DOUBLE_EQ(fast.elapsed_seconds, reference.elapsed_seconds);
  EXPECT_EQ(fast.patterns_completed, reference.patterns_completed);
  EXPECT_EQ(fast.disk_checkpoints, reference.disk_checkpoints);
  EXPECT_EQ(fast.memory_checkpoints, reference.memory_checkpoints);
}

TEST(EngineFastPath, ArrivalSamplingIsStatisticallyConsistentWithReference) {
  // The arrival-driven sampler is equal in law to the per-operation one by
  // memorylessness, but consumes the RNG stream differently; over many
  // patterns in a dense-error regime, overheads and event rates must agree
  // within a few percent. Fixed seeds keep the check deterministic.
  const auto params = rc::hera().scaled_to(1u << 15).model_params();
  const auto solution = rc::solve_first_order(rc::PatternKind::kDMV, params);
  const auto pattern = solution.to_pattern(params.costs.recall);
  constexpr std::uint64_t kPatterns = 4000;

  const auto reference = simulate(pattern, params, kPatterns, 17);
  const auto fast = simulate_fast(pattern, params, kPatterns, 17);

  EXPECT_EQ(fast.patterns_completed, reference.patterns_completed);
  EXPECT_NEAR(fast.overhead(), reference.overhead(),
              0.05 * reference.overhead());
  const auto near_rate = [&](std::uint64_t a, std::uint64_t b) {
    const double fa = static_cast<double>(a);
    const double fb = static_cast<double>(b);
    EXPECT_NEAR(fa, fb, 0.10 * std::max(fa, fb) + 50.0);
  };
  near_rate(fast.fail_stop_errors, reference.fail_stop_errors);
  near_rate(fast.silent_errors, reference.silent_errors);
  near_rate(fast.disk_recoveries, reference.disk_recoveries);
  near_rate(fast.memory_recoveries, reference.memory_recoveries);
}

TEST(EngineFastPath, StatefulLvalueObserverIsMutatedInPlace) {
  // The engine takes the observer as a forwarding reference: counters in a
  // user-supplied lvalue observer must accumulate in the caller's object,
  // not in a discarded copy.
  struct CountingObserver {
    std::uint64_t events = 0;
    void operator()(rs::Event, double) noexcept { ++events; }
  };
  const auto params = hera_params();
  const auto pattern = rc::make_pattern(rc::PatternKind::kD, 5000.0, 1, 1, 1.0);
  rs::PoissonArrivalModel errors(params.rates, ru::Xoshiro256(9));
  CountingObserver counting;
  const auto metrics = rs::simulate_patterns(pattern, params, errors, 10, counting);
  EXPECT_GT(counting.events, 0u);
  EXPECT_GE(counting.events, metrics.patterns_completed);
}

TEST(EngineFastPath, ObserverPointerIsNotCopiedAndStillFires) {
  // A std::function observer is taken by reference: events must reach the
  // very closure installed, with no per-run copies.
  const auto params = hera_params();
  const auto pattern = rc::make_pattern(rc::PatternKind::kD, 5000.0, 1, 1, 1.0);
  std::uint64_t events = 0;
  const rs::EventObserver observer = [&](rs::Event, double) { ++events; };
  rs::ErrorModel errors(params.rates, ru::Xoshiro256(5));
  const auto metrics = rs::simulate_patterns(pattern, params, errors, 10, observer);
  EXPECT_GT(events, 0u);
  EXPECT_GE(events, metrics.patterns_completed);
}

TEST(Engine, MemoryCheckpointProtectsAgainstSilentRollbackScope) {
  // In a two-segment pattern under silent errors only, a detection in the
  // second segment must never force re-execution of the first segment:
  // elapsed time stays below what restart-from-scratch would imply.
  rc::ModelParams params = hera_params();
  params.rates = {0.0, 1e-3};  // heavy silent pressure
  const auto two_level = rc::make_pattern(rc::PatternKind::kDM, 4000.0, 2, 1, 1.0);
  const auto single = rc::make_pattern(rc::PatternKind::kD, 4000.0, 1, 1, 1.0);
  const auto two_metrics = simulate(two_level, params, 300, 11);
  const auto single_metrics = simulate(single, params, 300, 11);
  EXPECT_LT(two_metrics.overhead(), single_metrics.overhead());
}
