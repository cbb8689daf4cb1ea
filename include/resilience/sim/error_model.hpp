#pragma once

// Stochastic error injection for the simulator. The paper's model
// (Section 2.1) uses homogeneous Poisson processes for both error sources,
// for which per-operation sampling is exact by memorylessness: each
// operation of length L independently suffers at least one fail-stop error
// with probability 1 - e^{-lambda_f L}, and the position of the first
// strike follows a truncated exponential.
//
// Every error model is a concrete final class that the engine template
// (engine.hpp) binds statically; there is no abstract interface. A model
// provides sample_fail_stop, sample_fail_stop_op (operation sites:
// verifications, checkpoints, recoveries), sample_silent and
// sample_detection.
//
// ErrorModel below is the per-operation reference sampler. The
// simulator's hot path uses the arrival-driven PoissonArrivalModel
// (renewal.hpp) instead: it samples the *next* arrival of
// each source once (exponential inter-arrival) and consumes the countdown
// across operation windows, so the no-error common case costs a float
// compare and a subtraction instead of an exp() + RNG draw per window. By
// memorylessness of the exponential the two samplers are equal in law,
// but they consume the RNG stream differently, so fixed-seed traces
// differ between them.

#include "resilience/core/params.hpp"
#include "resilience/util/random.hpp"

namespace resilience::sim {

/// Outcome of exposing an operation window to fail-stop errors.
struct FailStopOutcome {
  bool struck = false;
  double time_survived = 0.0;  ///< full length if !struck, strike position if struck
};

/// The paper's model sampled per operation window: one Bernoulli (plus a
/// truncated exponential on a strike) per window. The reference the
/// arrival-driven model is measured and cross-checked against.
class ErrorModel final {
 public:
  ErrorModel(core::ErrorRates rates, util::Xoshiro256 rng)
      : rates_(rates), rng_(rng) {}

  /// Samples fail-stop exposure of an operation lasting `length` seconds.
  [[nodiscard]] FailStopOutcome sample_fail_stop(double length);

  /// Operation-site exposure: the paper's model draws no distinction.
  [[nodiscard]] FailStopOutcome sample_fail_stop_op(double length) {
    return sample_fail_stop(length);
  }

  /// Whether at least one silent error strikes a computation of `length`.
  [[nodiscard]] bool sample_silent(double length);

  /// Whether a partial verification with the given recall raises an alarm
  /// on a corrupted state.
  [[nodiscard]] bool sample_detection(double recall);

  [[nodiscard]] const core::ErrorRates& rates() const noexcept { return rates_; }
  [[nodiscard]] util::Xoshiro256& rng() noexcept { return rng_; }

 private:
  core::ErrorRates rates_;
  util::Xoshiro256 rng_;
};

}  // namespace resilience::sim
