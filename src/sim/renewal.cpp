#include "resilience/sim/renewal.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace resilience::sim {

Interarrival::Interarrival(const RenewalConfig& config)
    : distribution_(config.distribution), enabled_(config.mtbf > 0.0) {
  if (config.mtbf < 0.0) {
    throw std::invalid_argument("RenewalConfig: mtbf must be >= 0");
  }
  if (distribution_ != FailureDistribution::kExponential &&
      !(config.shape > 0.0)) {
    throw std::invalid_argument("RenewalConfig: shape must be positive");
  }
  if (!enabled_) {
    return;
  }
  switch (distribution_) {
    case FailureDistribution::kExponential:
      scale_ = 1.0 / config.mtbf;
      break;
    case FailureDistribution::kWeibull:
      // X = scale * (-ln U)^{1/k}; mean = scale * Gamma(1 + 1/k), so the
      // scale is chosen to pin the mean at the MTBF.
      scale_ = config.mtbf / std::tgamma(1.0 + 1.0 / config.shape);
      exponent_ = 1.0 / config.shape;
      break;
    case FailureDistribution::kLogNormal:
      // X = exp(mu + sigma Z); mean = exp(mu + sigma^2/2), so
      // mu = ln(mtbf) - sigma^2/2 pins the mean at the MTBF.
      scale_ = std::log(config.mtbf) - 0.5 * config.shape * config.shape;
      exponent_ = config.shape;
      break;
  }
}

Interarrival Interarrival::poisson(double rate) noexcept {
  Interarrival law;
  law.enabled_ = rate > 0.0;
  law.scale_ = rate;
  return law;
}

double Interarrival::operator()(util::Xoshiro256& rng) const {
  if (!enabled_) {
    return std::numeric_limits<double>::infinity();
  }
  switch (distribution_) {
    case FailureDistribution::kExponential:
      return util::exponential(rng, scale_);
    case FailureDistribution::kWeibull:
      return scale_ *
             std::pow(-std::log(util::uniform01_open_low(rng)), exponent_);
    case FailureDistribution::kLogNormal: {
      // Box-Muller transform for a standard normal variate.
      const double u1 = util::uniform01_open_low(rng);
      const double u2 = util::uniform01(rng);
      const double z =
          std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
      return std::exp(scale_ + exponent_ * z);
    }
  }
  throw std::logic_error("Interarrival: unreachable");
}

template <bool kOpsFactor>
double ArrivalModel<kOpsFactor>::draw(const Interarrival& law) {
  if (check_ != nullptr && (++draws_ & 4095u) == 0) {
    (*check_)();
  }
  return law(rng_);
}

template class ArrivalModel<false>;
template class ArrivalModel<true>;

RenewalErrorModel make_renewal_model(const core::ErrorRates& rates,
                                     FailureDistribution distribution,
                                     double shape, util::Xoshiro256 rng,
                                     double ops_factor) {
  const auto source = [&](double rate) {
    return RenewalConfig{distribution, rate > 0.0 ? 1.0 / rate : 0.0, shape};
  };
  return RenewalErrorModel(source(rates.fail_stop), source(rates.silent), rng,
                           ops_factor);
}

}  // namespace resilience::sim
