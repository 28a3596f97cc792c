// Deterministic random number generation.
//
// Every stochastic element of the framework (grid weather, scheduler
// arrivals and job attributes, Monte-Carlo uncertainty) draws from a seeded
// xoshiro256** stream so that benches print identical tables on every run.
// std::mt19937 is avoided because its distributions are not reproducible
// across standard libraries.
#pragma once

#include <cmath>
#include <cstdint>

namespace hpcarbon {

/// SplitMix64: seed expander recommended by the xoshiro authors.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}
  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 64-bit generator (Blackman & Vigna).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal via Box-Muller (cached second deviate).
  double normal();
  double normal(double mean, double stddev);
  /// Exponential with the given rate (mean 1/rate).
  double exponential(double rate);
  /// Log-normal parameterised by the mean/sigma of the underlying normal.
  double lognormal(double mu, double sigma);
  bool bernoulli(double p);

  /// Derive an independent stream (for per-region / per-thread use).
  Rng split();

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0;
  bool has_cached_normal_ = false;
};

/// First-order autoregressive process with unit-variance stationary
/// distribution: x' = rho*x + sqrt(1-rho^2)*N(0,1). Drives the hour-to-hour
/// persistence of wind/solar availability and demand noise in the grid
/// simulator.
class Ar1 {
 public:
  /// rho in [0,1): autocorrelation over one step.
  Ar1(double rho, Rng& rng);
  double step();
  double value() const { return x_; }

 private:
  double rho_;
  double noise_scale_;
  double x_;
  Rng* rng_;
};

}  // namespace hpcarbon
