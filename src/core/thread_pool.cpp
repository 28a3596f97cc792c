#include "core/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <exception>

namespace hpcarbon {

namespace {
// Which pool (if any) owns the current thread. Lets parallel_for detect
// re-entry from one of its own workers: submitting chunks back to the pool
// and blocking on them from a worker can deadlock once all workers are
// blocked waiting on queued chunks no thread is free to run.
thread_local const ThreadPool* t_current_pool = nullptr;

std::atomic<std::size_t> g_global_threads{0};

/// Pool instruments, bound once to the global registry (pools are process
/// infrastructure; private-registry front-ends get the same *names* via
/// ThreadPool::register_metrics and report zeros).
struct PoolMetrics {
  obs::Histogram& queue_wait_us;
  obs::Histogram& task_run_us;
  obs::Counter& tasks;
};

PoolMetrics bind_pool_metrics(obs::MetricsRegistry& reg) {
  return PoolMetrics{
      reg.histogram("hpcarbon_pool_queue_wait_us", {},
                    "Time submitted tasks wait in the ThreadPool queue "
                    "before a worker dequeues them"),
      reg.histogram("hpcarbon_pool_task_run_us", {},
                    "ThreadPool task execution time"),
      reg.counter("hpcarbon_pool_tasks_total", {},
                  "Tasks executed by ThreadPool workers"),
  };
}

PoolMetrics& pool_metrics() {
  static PoolMetrics m = bind_pool_metrics(obs::MetricsRegistry::global());
  return m;
}

std::size_t global_thread_count() {
  const std::size_t hint = g_global_threads.load();
  if (hint > 0) return hint;
  return ThreadPool::env_thread_hint();  // 0: hardware_concurrency default
}
}  // namespace

std::size_t ThreadPool::env_thread_hint() {
  const char* env = std::getenv("HPCARBON_THREADS");
  if (env == nullptr) return 0;
  const char* end = env + std::strlen(env);
  std::size_t n = 0;
  // Unsigned from_chars takes no sign, space or suffix: "4x", "-1" and an
  // overflow all read as unset.
  const auto [stop, ec] = std::from_chars(env, end, n);
  if (ec != std::errc() || stop != end || n < 1 || n > kMaxThreads) return 0;
  return n;
}

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) {
    n_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  t_current_pool = this;
  PoolMetrics& m = pool_metrics();
  for (;;) {
    Queued task;
    {
      MutexLock lock(mu_);
      // Explicit predicate loop (not the lambda overload): the analysis
      // sees stop_/queue_ read with mu_ held; cv_.wait's internal
      // unlock/relock of the same mutex preserves that on both sides.
      while (!stop_ && queue_.empty()) cv_.wait(mu_);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    const std::uint64_t start = obs::ticks();
    m.queue_wait_us.record_ns(obs::elapsed_ns(task.enqueued_at, start));
    task.fn();
    m.task_run_us.record_ns(obs::elapsed_ns(start, obs::ticks()));
    m.tasks.inc();
  }
}

void ThreadPool::register_metrics(obs::MetricsRegistry& registry) {
  bind_pool_metrics(registry);
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t chunks = std::min(n, std::max<std::size_t>(1, size()));
  // Nested call from one of this pool's own workers: run inline instead of
  // deadlocking on chunks the (already busy) workers may never pick up.
  if (chunks == 1 || t_current_pool == this) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const std::size_t chunk_size = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futs;
  futs.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk_size;
    const std::size_t hi = std::min(end, lo + chunk_size);
    if (lo >= hi) break;
    futs.push_back(submit([lo, hi, &fn] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    }));
  }
  std::exception_ptr first_error;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(global_thread_count());
  return pool;
}

void ThreadPool::set_global_threads(std::size_t n) { g_global_threads = n; }

}  // namespace hpcarbon
