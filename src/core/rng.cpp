#include "core/rng.h"

#include "core/error.h"

namespace hpcarbon {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random bits -> double in [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  HPC_REQUIRE(hi >= lo, "uniform: hi < lo");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  HPC_REQUIRE(hi >= lo, "uniform_int: hi < lo");
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  // Lemire-style rejection-free mapping is fine here; modulo bias is
  // negligible for the small ranges we draw.
  return lo + static_cast<std::int64_t>(next_u64() % range);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 in (0,1] to avoid log(0).
  double u1 = 1.0 - uniform();
  double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::exponential(double rate) {
  HPC_REQUIRE(rate > 0, "exponential rate must be positive");
  return -std::log(1.0 - uniform()) / rate;
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

bool Rng::bernoulli(double p) { return uniform() < p; }

Ar1::Ar1(double rho, Rng& rng) : rho_(rho), rng_(&rng) {
  HPC_REQUIRE(rho >= 0.0 && rho < 1.0, "AR(1) rho must be in [0,1)");
  noise_scale_ = std::sqrt(1.0 - rho * rho);
  x_ = rng_->normal();  // start in the stationary distribution
}

double Ar1::step() {
  x_ = rho_ * x_ + noise_scale_ * rng_->normal();
  return x_;
}

}  // namespace hpcarbon
