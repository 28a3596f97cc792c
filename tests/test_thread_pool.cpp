#include "core/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace hpcarbon {
namespace {

// Pin the global pool to 4 workers before its first use, so the nested
// parallel_for tests exercise real cross-thread nesting even on the
// single-core CI runners where hardware_concurrency() is 1.
[[maybe_unused]] const bool g_pool_size_pinned = [] {
  ThreadPool::set_global_threads(4);
  return true;
}();

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 50; ++i) {
    futs.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i]++; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  pool.parallel_for(7, 3, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.parallel_for(0, 10, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [](std::size_t i) {
                          if (i == 42) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, GlobalPoolIsUsable) {
  std::atomic<int> counter{0};
  ThreadPool::global().parallel_for(0, 10,
                                    [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 10);
  EXPECT_EQ(ThreadPool::global().size(), 4u);  // pinned above
}

TEST(ThreadPool, NestedParallelForOnSamePoolDoesNotDeadlock) {
  // Regression: a parallel_for issued from inside a pool worker used to
  // submit chunks back to the same (fully busy) pool and block on them.
  // The nested call must run inline instead.
  std::atomic<int> counter{0};
  ThreadPool::global().parallel_for(0, 8, [&](std::size_t) {
    ThreadPool::global().parallel_for(0, 100,
                                      [&](std::size_t) { ++counter; });
  });
  EXPECT_EQ(counter.load(), 800);
}

TEST(ThreadPool, NestedParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 4,
                        [&](std::size_t) {
                          pool.parallel_for(0, 10, [](std::size_t i) {
                            if (i == 7) throw std::runtime_error("inner");
                          });
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ManyMoreTasksThanThreads) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  pool.parallel_for(0, 10000, [&](std::size_t i) {
    sum += static_cast<long>(i);
  });
  EXPECT_EQ(sum.load(), 10000L * 9999 / 2);
}

// Reads the variable only: no pool is started with any of these values.
TEST(ThreadPool, EnvThreadHintTakesWholeCountsUpToTheCap) {
  const char* saved = std::getenv("HPCARBON_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  const auto hint = [](const char* value) {
    setenv("HPCARBON_THREADS", value, 1);
    return ThreadPool::env_thread_hint();
  };
  EXPECT_EQ(hint("1"), 1u);
  EXPECT_EQ(hint("8"), 8u);
  EXPECT_EQ(hint("4096"), ThreadPool::kMaxThreads);
  for (const char* bad : {"0", "4097", "99999999999", "99999999999999999999999",
                          "4x", "-1", "+4", " 4", "2.5", ""}) {
    EXPECT_EQ(hint(bad), 0u) << "HPCARBON_THREADS='" << bad << "'";
  }
  unsetenv("HPCARBON_THREADS");
  EXPECT_EQ(ThreadPool::env_thread_hint(), 0u);
  if (saved != nullptr) setenv("HPCARBON_THREADS", restore.c_str(), 1);
}

}  // namespace
}  // namespace hpcarbon
