#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace cea::util {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyAndSingleton) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "no indices expected"; });
  int calls = 0;
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, IndexAddressedWritesMatchSerial) {
  ThreadPool pool(3);
  const std::size_t n = 1000;
  std::vector<double> out(n, 0.0);
  pool.parallel_for(n, [&](std::size_t i) {
    out[i] = static_cast<double>(i) * 0.5;
  });
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_DOUBLE_EQ(out[i], static_cast<double>(i) * 0.5);
}

TEST(ThreadPool, ReentrantCallRunsInline) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(8, [&](std::size_t outer) {
    // A nested parallel_for from inside a job must not deadlock.
    pool.parallel_for(8, [&](std::size_t inner) {
      hits[outer * 8 + inner].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.parallel_for(10, [&](std::size_t i) {
      sum.fetch_add(static_cast<int>(i));
    });
    EXPECT_EQ(sum.load(), 45);
  }
}

TEST(ThreadPool, ConcurrencyCapStillCompletes) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); },
                    /*max_concurrency=*/2);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

/// Arrive, then wait until `count` tasks have arrived; false after 10 s.
/// Tasks that all return true ran at the same time, on different threads.
bool rendezvous(std::atomic<int>& arrived, int count) {
  arrived.fetch_add(1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (arrived.load() < count) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ThreadPool, TaskExceptionReachesTheCaller) {
  // One worker and the caller: two tasks that wait for each other run one
  // on each, and both throw.
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> arrived{0};
  std::thread::id ran_on[2];
  try {
    pool.parallel_for(2, [&](std::size_t i) {
      ran_on[i] = std::this_thread::get_id();
      if (!rendezvous(arrived, 2)) throw std::logic_error("ran alone");
      throw std::runtime_error("task " + std::to_string(i));
    });
    ADD_FAILURE() << "no exception reached the caller";
  } catch (const std::exception& e) {
    EXPECT_STREQ(e.what(), "task 0");  // the lowest failing index
  }
  EXPECT_NE(ran_on[0], ran_on[1]);
  EXPECT_TRUE(ran_on[0] == caller || ran_on[1] == caller);

  // The caller left its parallel region, and the worker lives: the next
  // job fans out again.
  std::atomic<int> again{0};
  std::atomic<int> together{0};
  pool.parallel_for(2, [&](std::size_t) {
    if (rendezvous(again, 2)) together.fetch_add(1);
  });
  EXPECT_EQ(together.load(), 2);

  // Across more workers and indices, the lowest failing index still wins.
  ThreadPool wide(3);
  for (int round = 0; round < 20; ++round) {
    try {
      wide.parallel_for(64, [](std::size_t i) {
        if (i % 2 == 1) throw std::runtime_error(std::to_string(i));
      });
      ADD_FAILURE() << "no exception reached the caller";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "1");
    }
  }
}

// --- parallel_for_blocked (contiguous shards, one claim per shard) ------

TEST(ThreadPoolBlocked, CoversEveryIndexExactlyOnceForAnyGrain) {
  ThreadPool pool(4);
  const std::size_t n = 1013;  // prime: exercises the short last shard
  for (std::size_t grain : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                            std::size_t{256}, n, 2 * n}) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for_blocked(n, grain, [&](std::size_t begin,
                                            std::size_t end) {
      ASSERT_LT(begin, end);
      ASSERT_LE(end, n);
      for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "grain " << grain;
  }
}

TEST(ThreadPoolBlocked, ShardsAreContiguousAndGrainSized) {
  ThreadPool pool(3);
  const std::size_t n = 100, grain = 9;
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> shards;
  pool.parallel_for_blocked(n, grain, [&](std::size_t begin,
                                          std::size_t end) {
    std::lock_guard<std::mutex> lock(mutex);
    shards.emplace_back(begin, end);
  });
  std::sort(shards.begin(), shards.end());
  std::size_t next = 0;
  for (const auto& [begin, end] : shards) {
    EXPECT_EQ(begin, next);  // contiguous, no gap or overlap
    EXPECT_EQ(begin % grain, 0u);
    EXPECT_LE(end - begin, grain);
    next = end;
  }
  EXPECT_EQ(next, n);
}

TEST(ThreadPoolBlocked, EmptyRangeInvokesNothing) {
  ThreadPool pool(2);
  pool.parallel_for_blocked(0, 8, [](std::size_t, std::size_t) {
    FAIL() << "no shards expected";
  });
}

TEST(ThreadPoolBlocked, OneWriterPerShardMatchesSerial) {
  // The engine's usage pattern: each shard is the only writer of its index
  // range, results reduced after the call — identical to a serial loop.
  ThreadPool pool(4);
  const std::size_t n = 10000;
  std::vector<double> out(n, 0.0);
  pool.parallel_for_blocked(n, 64, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i)
      out[i] = static_cast<double>(i) * 1.5 + 1.0;
  });
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_DOUBLE_EQ(out[i], static_cast<double>(i) * 1.5 + 1.0);
}

TEST(ThreadPoolBlocked, ReentrantBlockedCallRunsInline) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for_blocked(8, 2, [&](std::size_t ob, std::size_t oe) {
    for (std::size_t outer = ob; outer < oe; ++outer) {
      pool.parallel_for_blocked(8, 3, [&](std::size_t ib, std::size_t ie) {
        for (std::size_t inner = ib; inner < ie; ++inner)
          hits[outer * 8 + inner].fetch_add(1);
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  ThreadPool& a = ThreadPool::global();
  ThreadPool& b = ThreadPool::global();
  EXPECT_EQ(&a, &b);
  std::atomic<int> sum{0};
  a.parallel_for(5, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i) + 1);
  });
  EXPECT_EQ(sum.load(), 15);
}

}  // namespace
}  // namespace cea::util
