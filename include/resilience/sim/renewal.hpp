#pragma once

// Arrival-driven error injection: renewal processes, whose countdown to
// the next arrival of each error source carries across operation windows.
// The paper's Poisson processes are the renewal processes with
// exponential inter-arrivals, and the simulator's fast path
// (PoissonArrivalModel). Weibull and lognormal inter-arrivals are what
// field studies report for real HPC failures (Weibull shape < 1 captures
// infant-mortality clustering); they power the robustness ablations that
// ask how much of the optimal-pattern result survives when the
// exponential assumption breaks while the MTBF is held fixed.
//
// One class template implements both arrival-driven models, each a
// concrete model the engine binds statically. Each law's constants are
// computed and validated once, when the model is built. A window without
// an arrival costs a compare and a subtraction and draws nothing.

#include <cstdint>
#include <functional>
#include <stdexcept>

#include "resilience/core/params.hpp"
#include "resilience/sim/error_model.hpp"
#include "resilience/util/random.hpp"

namespace resilience::sim {

/// Inter-arrival distribution of a renewal failure process.
enum class FailureDistribution {
  kExponential,  ///< shape ignored; identical in law to the Poisson model
  kWeibull,      ///< shape < 1: bursty (typical HPC); shape > 1: wear-out
  kLogNormal,    ///< shape = sigma of the underlying normal
};

/// One renewal failure source, parameterized by its mean (the MTBF) so
/// different distributions are compared at equal failure pressure.
struct RenewalConfig {
  FailureDistribution distribution = FailureDistribution::kExponential;
  double mtbf = 0.0;   ///< mean inter-arrival time (seconds); <= 0 disables
  double shape = 1.0;  ///< Weibull k or lognormal sigma
};

/// Samples the inter-arrival times of one source.
class Interarrival {
 public:
  /// Mean equal to the configured MTBF. Throws std::invalid_argument on a
  /// negative MTBF or a non-positive shape (exponential ignores shape).
  /// Implicit: a config names a law.
  Interarrival(const RenewalConfig& config);

  /// Exponential inter-arrivals at `rate` itself (a Poisson process),
  /// drawn as -ln U / rate; <= 0 disables.
  [[nodiscard]] static Interarrival poisson(double rate) noexcept;

  /// One inter-arrival time; +infinity (and no draw) for a disabled source.
  [[nodiscard]] double operator()(util::Xoshiro256& rng) const;

 private:
  Interarrival() = default;

  FailureDistribution distribution_ = FailureDistribution::kExponential;
  bool enabled_ = false;
  double scale_ = 0.0;     ///< exponential rate, Weibull scale, lognormal mu
  double exponent_ = 0.0;  ///< Weibull 1/k, lognormal sigma
};

/// Arrival-driven error model: keeps the countdown to the next arrival of
/// each source across operations. With exponential inter-arrivals this is
/// equal in law to the memoryless ErrorModel; with the others the process
/// has memory — failures cluster (shape < 1) or space out (shape > 1).
/// Countdowns are resampled only after a strike (fail-stop) or consumption
/// (silent), never per window.
///
/// The fail-stop clock advances through every exposed operation; the
/// silent clock advances only through completed computation windows
/// (silent errors strike computation only, and interrupted chunks are
/// rolled back wholesale). For exponential inter-arrivals both
/// conventions are exact.
///
/// `ops_factor` is the faulty-operations axis: it scales the fail-stop
/// exposure of NON-computation operations (verifications, checkpoints,
/// recoveries) and leaves computation windows alone. It acts as a time
/// dilation at operation sites — the fail-stop countdown sees a window of
/// factor * length and the survived time maps back — so the renewal state
/// stays consistent and a factor of 1 is the identity. A factor <= 0
/// makes operations error-free. `kOpsFactor` compiles the factor out:
/// PoissonArrivalModel, the fast path, exposes operations exactly like
/// computations and accepts only a factor of 1.
template <bool kOpsFactor>
class ArrivalModel final {
 public:
  ArrivalModel(Interarrival fail_stop, Interarrival silent,
               util::Xoshiro256 rng, double ops_factor = 1.0)
      : fail_stop_(fail_stop), silent_(silent), rng_(rng), ops_factor_(ops_factor) {
    if (!kOpsFactor && ops_factor != 1.0) {
      throw std::invalid_argument("PoissonArrivalModel: ops_factor must be 1");
    }
    until_fail_stop_ = fail_stop_(rng_);
    until_silent_ = silent_(rng_);
  }

  /// The paper's model: independent Poisson processes at `rates`.
  ArrivalModel(const core::ErrorRates& rates, util::Xoshiro256 rng)
      : ArrivalModel(Interarrival::poisson(rates.fail_stop),
                     Interarrival::poisson(rates.silent), rng) {}

  /// Fail-stop exposure of a computation lasting `length` seconds: a
  /// strike happens iff the next arrival falls inside the window.
  [[nodiscard]] FailStopOutcome sample_fail_stop(double length) {
    if (length <= 0.0 || until_fail_stop_ > length) {
      until_fail_stop_ -= length;
      return {false, length};
    }
    const FailStopOutcome outcome{true, until_fail_stop_};
    // Renewal: the countdown restarts at the failure instant.
    until_fail_stop_ = draw(fail_stop_);
    return outcome;
  }

  /// Fail-stop exposure of an operation, through the ops factor.
  [[nodiscard]] FailStopOutcome sample_fail_stop_op(double length) {
    if constexpr (kOpsFactor) {
      if (ops_factor_ <= 0.0) {
        // Error-free operations: no strike, and no RNG draw — the stream
        // must not depend on how many operations a pattern executes.
        return {false, length};
      }
      if (ops_factor_ != 1.0) {
        FailStopOutcome outcome = sample_fail_stop(ops_factor_ * length);
        outcome.time_survived /= ops_factor_;  // scaled time back to wall time
        return outcome;
      }
    }
    return sample_fail_stop(length);
  }

  /// Whether at least one silent error strikes a completed computation of
  /// `length` seconds; consumes every arrival inside the window (there can
  /// be several for bursty distributions).
  [[nodiscard]] bool sample_silent(double length) {
    if (length <= 0.0) {
      return false;
    }
    bool corrupted = false;
    double remaining = length;
    while (until_silent_ <= remaining) {
      corrupted = true;
      remaining -= until_silent_;
      until_silent_ = draw(silent_);
    }
    until_silent_ -= remaining;
    return corrupted;
  }

  /// Whether a partial verification with the given recall raises an alarm.
  [[nodiscard]] bool sample_detection(double recall) noexcept {
    return util::bernoulli(rng_, recall);
  }

  /// Calls `check` (not owned; empty = never) on every 4096th arrival
  /// drawn. Draws bound a run's work — every retry of a window follows an
  /// arrival — so a run stuck in an error storm still reaches the check,
  /// while a window without an arrival never does. The check draws no
  /// randomness, so a run that completes keeps its bits.
  void poll_with(const std::function<void()>& check) noexcept {
    check_ = check ? &check : nullptr;
  }

  [[nodiscard]] util::Xoshiro256& rng() noexcept { return rng_; }

 private:
  /// The next inter-arrival of `law`, counted for the check. Out of line,
  /// so the window path inlined into the engine stays small.
  double draw(const Interarrival& law);

  Interarrival fail_stop_;
  Interarrival silent_;
  util::Xoshiro256 rng_;
  double ops_factor_;
  double until_fail_stop_ = 0.0;
  double until_silent_ = 0.0;
  const std::function<void()>* check_ = nullptr;
  std::uint32_t draws_ = 0;
};

extern template class ArrivalModel<false>;
extern template class ArrivalModel<true>;

/// The paper's model, arrival-driven: the simulator's fast path.
using PoissonArrivalModel = ArrivalModel<false>;

/// Renewal laws at a platform's MTBFs, with the faulty-operations factor.
using RenewalErrorModel = ArrivalModel<true>;

/// A (fail-stop, silent) renewal pair matching the MTBFs of a Poisson
/// parameterization, with a common distribution and shape.
[[nodiscard]] RenewalErrorModel make_renewal_model(
    const core::ErrorRates& rates, FailureDistribution distribution, double shape,
    util::Xoshiro256 rng, double ops_factor = 1.0);

}  // namespace resilience::sim
