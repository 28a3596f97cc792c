// Generic Monte-Carlo engine: one sampling mechanism for every layer.
//
// Before this subsystem existed, embodied::propagate hand-rolled its own
// parallel sampling loop (twice, once per overload) and every higher layer
// — lifetime footprints, break-even analysis, fleet plans, the scheduler
// ablation — simply emitted point estimates because re-rolling that loop
// per API was too much friction. The engine factors the mechanism out:
//
//  * SamplePlan        — how many samples, the root seed, and (optionally)
//                        which thread pool executes them;
//  * substream()       — a deterministic per-sample RNG derived from
//                        (seed, index) through two SplitMix64 finalizations,
//                        replacing the ad-hoc `seed ^ (golden * (i+1))` xor
//                        whose low bits correlate across indices;
//  * Engine            — batched execution over ThreadPool::global() (or
//                        the plan's pool) that is bit-identical regardless
//                        of thread count: sample i always draws from
//                        substream(seed, i) and writes slot i.
//
// Model layers provide a pure per-sample function; the engine returns the
// raw sample vector or a Distribution (mean/stddev/quantiles, one
// sort). See README "Adding an uncertain quantity".
//
// Execution is blocked: samples are fanned out to the pool in contiguous
// blocks of kBlock indices, so the per-task dispatch (queue hop, future,
// std::function call) amortizes over hundreds of draws instead of hitting
// every one. The run_* entry points are templates over the sample functor
// for the same reason — a lambda is invoked directly in the inner loop,
// never through a std::function hop. Blocking changes which thread runs
// which sample but not the draw itself: sample i still seeds from
// substream(seed, i) and writes slot i, so results stay bit-identical
// across thread counts AND against the pre-blocking engine (pinned by
// test_mc_determinism and the mc bench's thread_bit_identical metric).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "mc/distribution.h"
#include "obs/metrics.h"

namespace hpcarbon::mc {

/// Register the mc instrument names (hpcarbon_mc_samples_total) in
/// `registry` so private-registry consumers (tests, isolated engines)
/// expose the same metric set as the process-global one. Draws always
/// record into MetricsRegistry::global(); a private registry reports 0.
void register_metrics(obs::MetricsRegistry& registry);

namespace detail {
/// Process-global draw tally, bound to MetricsRegistry::global() on
/// first use (one counter inc per run_* call, never per sample).
obs::Counter& samples_counter();
}  // namespace detail

struct SamplePlan {
  int samples = 4096;
  std::uint64_t seed = 42;
  /// Pool override for the batched execution; nullptr selects
  /// ThreadPool::global(). The result is bit-identical either way — this
  /// only chooses who runs the loop (tests use it to prove exactly that).
  ThreadPool* pool = nullptr;
};

/// The seed-decorrelation half of substream(): identical for every sample
/// of a run, so batched execution hoists it out of the per-sample loop.
std::uint64_t stream_base(std::uint64_t seed);

/// substream() with the seed half pre-computed: one SplitMix64
/// finalization per sample instead of two. Bit-identical to
/// substream(seed, index) when base == stream_base(seed).
inline Rng substream_from_base(std::uint64_t base, std::uint64_t index) {
  SplitMix64 inner(base + index);
  return Rng(inner.next());
}

/// Independent RNG stream for sample `index` of root `seed`. Deterministic
/// and order-free: any thread may evaluate any sample.
Rng substream(std::uint64_t seed, std::uint64_t index);

/// fn(sample_index, rng) -> one draw of the quantity under study.
/// (The run_* entry points are templates — these aliases document the
/// expected signatures and keep a nameable type for storage.)
using SampleFn = std::function<double(std::size_t, Rng&)>;
/// fn(sample_index, rng, out) fills `out` (size = outputs) with one joint
/// draw of several quantities sharing the same perturbed inputs. `out` is
/// a stripe of the engine's result buffer — no per-sample allocation.
using MultiSampleFn = std::function<void(std::size_t, Rng&, std::span<double>)>;

class Engine {
 public:
  /// Contiguous samples dispatched per pool task. Large enough to amortize
  /// the queue hop over cheap sample functions, small enough that a
  /// typical plan (4096 draws) still spreads across every worker.
  static constexpr std::size_t kBlock = 256;

  /// Validates the plan (samples >= 1).
  explicit Engine(SamplePlan plan);

  const SamplePlan& plan() const { return plan_; }

  /// All draws, in sample-index order (bit-identical across thread counts).
  template <class Fn>
  std::vector<double> run_samples(const Fn& fn) const {
    const auto n = static_cast<std::size_t>(plan_.samples);
    std::vector<double> out(n, 0.0);
    const std::uint64_t base = stream_base(plan_.seed);
    pool().parallel_for(0, num_blocks(n), [&](std::size_t b) {
      const std::size_t lo = b * kBlock;
      const std::size_t hi = std::min(n, lo + kBlock);
      for (std::size_t i = lo; i < hi; ++i) {
        Rng rng = substream_from_base(base, i);
        out[i] = fn(i, rng);
      }
    });
    detail::samples_counter().inc(n);
    return out;
  }

  /// run_samples + one-sort summarization.
  template <class Fn>
  Distribution run(const Fn& fn) const {
    return Distribution(run_samples(fn));
  }

  /// Joint sampling: `outputs` correlated quantities per draw (e.g. a
  /// footprint's embodied, operational, and total share one perturbed
  /// input vector). Returns one Distribution per output.
  template <class Fn>
  std::vector<Distribution> run_multi(std::size_t outputs,
                                      const Fn& fn) const {
    HPC_REQUIRE(outputs > 0, "run_multi needs at least one output");
    const auto n = static_cast<std::size_t>(plan_.samples);
    // Row-major per sample so each iteration touches one contiguous stripe.
    std::vector<double> buffer(n * outputs, 0.0);
    const std::uint64_t base = stream_base(plan_.seed);
    pool().parallel_for(0, num_blocks(n), [&](std::size_t b) {
      const std::size_t lo = b * kBlock;
      const std::size_t hi = std::min(n, lo + kBlock);
      for (std::size_t i = lo; i < hi; ++i) {
        Rng rng = substream_from_base(base, i);
        fn(i, rng, std::span<double>(buffer.data() + i * outputs, outputs));
      }
    });
    detail::samples_counter().inc(n);
    std::vector<Distribution> dists;
    dists.reserve(outputs);
    for (std::size_t k = 0; k < outputs; ++k) {
      std::vector<double> column(n, 0.0);
      for (std::size_t i = 0; i < n; ++i) column[i] = buffer[i * outputs + k];
      dists.emplace_back(std::move(column));
    }
    return dists;
  }

 private:
  ThreadPool& pool() const {
    return plan_.pool != nullptr ? *plan_.pool : ThreadPool::global();
  }
  static std::size_t num_blocks(std::size_t n) {
    return (n + kBlock - 1) / kBlock;
  }

  SamplePlan plan_;
};

}  // namespace hpcarbon::mc
