// The fleet engine's completion queue: a 4-ary min-heap of packed
// (tick, site) keys.
//
// Each running job leaves one key, `tick << site_bits | site`, with
// site_bits = bit_width(site_count - 1). Keys order by tick first and, at
// equal ticks, by site, so one unsigned compare orders two completions and
// a heap slot is 8 bytes. The children of slot i are 4i+1 .. 4i+4, 32
// contiguous bytes that one or two cache lines hold. pop() walks the hole
// from the root to a leaf, taking the least child at each level with
// conditional selects rather than a data-dependent branch, then sifts the
// displaced last key up from that leaf (it came from the bottom, so it
// rarely climbs far). push() sifts up. The key vector keeps kArity - 1
// empty slots (all ones) past the last key, so every internal slot has
// four readable children and the least-child step needs no bounds test.
//
// A key must stay below the empty marker, so ticks are capped at
// max_tick() = INT64_MAX >> site_bits: the key's top bit stays clear. A
// push past the cap throws hpcarbon::Error; the FleetJobs constructor
// bounds submit and duration ticks (kMaxJobTicks) far below it.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/error.h"
#include "fleetsim/jobs.h"

namespace hpcarbon::fleetsim {

class CompletionHeap {
 public:
  /// Children per slot. On fleet-policies replays 4 took about 15% less
  /// time than 2 or 8.
  static constexpr std::size_t kArity = 4;

  /// Keys for sites [0, site_count); site_count must be positive.
  explicit CompletionHeap(std::size_t site_count)
      : site_bits_(site_bits_for(site_count)),
        site_mask_((std::uint64_t{1} << site_bits_) - 1),
        max_tick_(std::numeric_limits<Tick>::max() >> site_bits_),
        keys_(kArity - 1, kEmpty) {}

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Largest tick a push accepts.
  Tick max_tick() const { return max_tick_; }

  /// Earliest completion tick, and its site (the lowest at a tied tick).
  /// Require !empty().
  Tick top_tick() const { return static_cast<Tick>(keys_[0] >> site_bits_); }
  std::uint32_t top_site() const {
    return static_cast<std::uint32_t>(keys_[0] & site_mask_);
  }

  /// Add a completion at `tick` on `site` (< the constructor's count).
  void push(Tick tick, std::uint32_t site) {
    HPC_REQUIRE(tick >= 0 && tick <= max_tick_,
                "completion heap: completion tick out of range for the "
                "packed (tick, site) key");
    const std::uint64_t key =
        static_cast<std::uint64_t>(tick) << site_bits_ | site;
    if (size_ + kArity > keys_.size()) keys_.resize(2 * keys_.size(), kEmpty);
    std::size_t hole = size_++;
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / kArity;
      if (keys_[parent] <= key) break;
      keys_[hole] = keys_[parent];
      hole = parent;
    }
    keys_[hole] = key;
  }

  /// Remove the top key. Require !empty().
  void pop() {
    const std::size_t n = --size_;
    const std::uint64_t last = keys_[n];
    keys_[n] = kEmpty;
    if (n == 0) return;
    std::size_t hole = 0;
    for (std::size_t first = 1; first < n; first = kArity * hole + 1) {
      std::size_t least = first;
      std::uint64_t least_key = keys_[first];
      for (std::size_t c = first + 1; c < first + kArity; ++c) {
        const bool less = keys_[c] < least_key;
        least_key = less ? keys_[c] : least_key;
        least = less ? c : least;
      }
      keys_[hole] = least_key;
      hole = least;
    }
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / kArity;
      if (keys_[parent] <= last) break;
      keys_[hole] = keys_[parent];
      hole = parent;
    }
    keys_[hole] = last;
  }

 private:
  static constexpr std::uint64_t kEmpty =
      std::numeric_limits<std::uint64_t>::max();

  static int site_bits_for(std::size_t site_count) {
    HPC_REQUIRE(site_count > 0 &&
                    site_count - 1 <= std::numeric_limits<std::uint32_t>::max(),
                "completion heap: site count out of range");
    return static_cast<int>(std::bit_width(site_count - 1));
  }

  int site_bits_;
  std::uint64_t site_mask_;
  Tick max_tick_;
  std::size_t size_ = 0;
  std::vector<std::uint64_t> keys_;  // size_ keys, then empty slots
};

}  // namespace hpcarbon::fleetsim
