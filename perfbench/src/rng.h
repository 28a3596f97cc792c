// The benchmark's own pseudo-random generator: xoshiro256** seeded through
// splitmix64. Kept apart from hpcarbon's core/rng so that no change to the
// library can alter the generated inputs — the same seed gives the same
// streams for as long as this file is unchanged.
#pragma once

#include <cmath>
#include <cstdint>

namespace perfbench {

inline std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Mix a base seed with a stream label, so each phase or universe draws
/// from its own independent sequence.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t label) {
  std::uint64_t x = seed ^ (label * 0xD1B54A32D192ED03ULL);
  return splitmix64(x);
}

class Prng {
 public:
  explicit Prng(std::uint64_t seed) {
    for (auto& w : s_) w = splitmix64(seed);
  }

  std::uint64_t next() {
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

  /// Uniform in [0, 1), 53 bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [0, n), n >= 1.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Exponential with the given rate (mean 1 / rate).
  double exponential(double rate) { return -std::log1p(-uniform()) / rate; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

}  // namespace perfbench
