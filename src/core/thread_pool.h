// Minimal work-stealing-free thread pool with a parallel_for helper.
//
// The expensive paths in this library — generating 8760-hour grid traces for
// many regions, Monte-Carlo uncertainty propagation, scheduler parameter
// sweeps — are embarrassingly parallel across independent chunks, so a
// plain blocking queue is sufficient. The pool degrades gracefully to
// serial execution on single-core machines (parallel_for with one worker
// simply runs inline).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "core/thread_annotations.h"
#include "obs/metrics.h"

namespace hpcarbon {

class ThreadPool {
 public:
  /// n_threads == 0 picks hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; returns a future for its completion. The enqueue
  /// timestamp rides along so worker_loop can report queue-wait and
  /// task-run latency (hpcarbon_pool_* in obs::MetricsRegistry::global()).
  template <class F>
  std::future<void> submit(F&& fn) HPCARBON_EXCLUDES(mu_) {
    auto task = std::make_shared<std::packaged_task<void()>>(
        std::forward<F>(fn));
    std::future<void> fut = task->get_future();
    {
      MutexLock lock(mu_);
      queue_.emplace(Queued{[task] { (*task)(); }, obs::ticks()});
    }
    cv_.notify_one();
    return fut;
  }

  /// Run fn(i) for i in [begin, end), partitioned into contiguous chunks.
  /// Blocks until all iterations complete. Exceptions from workers are
  /// rethrown on the calling thread (first one wins). Safe to nest: a call
  /// from one of this pool's own worker threads runs the loop inline
  /// rather than deadlocking on the shared queue.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Process-wide shared pool (lazily constructed). Worker count: the
  /// set_global_threads() override if set, else the HPCARBON_THREADS
  /// environment variable, else hardware_concurrency.
  static ThreadPool& global();

  /// Override the worker count of the global pool. Only effective before
  /// the first global() call; later calls are ignored (the pool is already
  /// running). n == 0 restores the default resolution order.
  static void set_global_threads(std::size_t n);

  /// The most workers --threads or HPCARBON_THREADS may ask for: far past
  /// any useful pool, low enough that starting every worker cannot
  /// exhaust the process.
  static constexpr std::size_t kMaxThreads = 4096;

  /// The HPCARBON_THREADS environment variable as a worker count, or 0 if
  /// unset or invalid: only a whole number in [1, kMaxThreads], written in
  /// digits, is valid. Shared by global() and the CLI so both resolve the
  /// variable identically.
  static std::size_t env_thread_hint();

  /// Register the pool's hpcarbon_pool_* instrument names in `registry`
  /// (idempotent, values untouched). Pools always *record* into the
  /// global registry; front-ends scraping a private registry call this
  /// so their metric set matches the global one — the property behind
  /// the byte-stable idle {"op":"metrics"} snapshot.
  static void register_metrics(obs::MetricsRegistry& registry);

 private:
  struct Queued {
    std::function<void()> fn;
    std::uint64_t enqueued_at = 0;  // obs::ticks() at submit
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  AnnotatedMutex mu_;
  std::queue<Queued> queue_ HPCARBON_GUARDED_BY(mu_);
  /// condition_variable_any: its wait takes the AnnotatedMutex directly,
  /// keeping the guarded-access proofs intact across the wait.
  std::condition_variable_any cv_;
  bool stop_ HPCARBON_GUARDED_BY(mu_) = false;
};

}  // namespace hpcarbon
