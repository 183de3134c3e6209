#include "runner/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/error.h"

namespace dvs::runner {
namespace {

using Families = std::vector<std::pair<std::size_t, std::size_t>>;

/// Splits [0, n) into families of `width` indices (the last one may be
/// shorter), owned round-robin by the pool's workers.
struct Split {
  Families families;
  std::vector<std::size_t> owner;
};

Split SplitRange(std::size_t n, std::size_t width, const ThreadPool& pool) {
  Split split;
  for (std::size_t begin = 0; begin < n; begin += width) {
    split.owner.push_back(split.families.size() %
                          static_cast<std::size_t>(pool.size()));
    split.families.emplace_back(begin, std::min(n, begin + width));
  }
  return split;
}

/// Runs fn(index) for every index of [0, n) through ParallelForFamilies.
FamilyStats RunRange(ThreadPool& pool, std::size_t n, std::size_t width,
                     const std::function<void(std::size_t)>& fn) {
  const Split split = SplitRange(n, width, pool);
  return pool.ParallelForFamilies(
      split.families, split.owner,
      [&fn](std::size_t /*worker*/, std::size_t index) { fn(index); });
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);

  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  const FamilyStats stats =
      RunRange(pool, kN, 7, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  ASSERT_EQ(stats.cells_per_worker.size(), 4u);
  EXPECT_EQ(std::accumulate(stats.cells_per_worker.begin(),
                            stats.cells_per_worker.end(), std::size_t{0}),
            kN);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  const FamilyStats stats = RunRange(pool, 64, 5, [&](std::size_t i) {
    // No worker threads exist, so everything runs on the calling thread and
    // the unsynchronised vector is safe.
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  // One worker drains its queue front-to-back: exactly the serial order.
  std::vector<std::size_t> serial(64);
  std::iota(serial.begin(), serial.end(), std::size_t{0});
  EXPECT_EQ(order, serial);
  EXPECT_EQ(stats.steals, 0u);
}

TEST(ThreadPool, DefaultsToHardwareThreads) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), ThreadPool::HardwareThreads());
  EXPECT_GE(pool.size(), 1);
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool(2);
  const FamilyStats stats =
      pool.ParallelForFamilies({}, {}, [&](std::size_t, std::size_t) {
        FAIL() << "must not be called";
      });
  EXPECT_EQ(stats.steals, 0u);
  EXPECT_EQ(stats.cells_per_worker, std::vector<std::size_t>(2, 0));
}

TEST(ThreadPool, RethrowsLowestIndexException) {
  ThreadPool pool(4);
  // Several indices throw; the pool must deterministically surface the one
  // from the lowest index regardless of interleaving.
  const auto run = [&] {
    RunRange(pool, 100, 3, [](std::size_t i) {
      if (i == 97 || i == 13 || i == 55) {
        throw std::runtime_error("boom at " + std::to_string(i));
      }
    });
  };
  EXPECT_THROW(run(), std::runtime_error);
  try {
    run();
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "boom at 13");
  }
}

TEST(ThreadPool, SurvivesExceptionAndRunsAgain) {
  ThreadPool pool(3);
  EXPECT_THROW(
      RunRange(pool, 10, 2, [](std::size_t) { throw std::runtime_error("x"); }),
      std::runtime_error);

  std::atomic<int> count{0};
  RunRange(pool, 10, 2, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    RunRange(pool, 16, 3, [&](std::size_t i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), 136u);
  }
}

}  // namespace
}  // namespace dvs::runner
