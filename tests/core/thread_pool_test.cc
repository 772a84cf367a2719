#include "core/thread_pool.h"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace gass::core {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(pool.Submit([&counter] { counter.fetch_add(1); }));
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, SubmitAfterShutdownReturnsFalse) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  EXPECT_TRUE(pool.Submit([&counter] { counter.fetch_add(1); }));
  pool.Shutdown();
  // The contract: once shutdown has begun, Submit refuses the task rather
  // than enqueueing into a dying pool.
  EXPECT_FALSE(pool.Submit([&counter] { counter.fetch_add(100); }));
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(pool.Submit([&counter] { counter.fetch_add(1); }));
    }
    pool.Shutdown();  // Must run all 20 accepted tasks before joining.
  }
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  EXPECT_TRUE(pool.Submit([&counter] { counter.fetch_add(1); }));
  pool.Shutdown();
  pool.Shutdown();  // Second call (and the destructor's third) are no-ops.
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, SubmitRacingShutdownNeverLosesAcceptedTasks) {
  // Hammer Submit from one thread while another shuts the pool down; every
  // task Submit accepted must run, every refused task must not.
  std::atomic<int> ran{0};
  int accepted = 0;
  ThreadPool pool(2);
  std::thread submitter([&] {
    for (int i = 0; i < 10000; ++i) {
      if (pool.Submit([&ran] { ran.fetch_add(1); })) ++accepted;
    }
  });
  pool.Shutdown();
  submitter.join();
  EXPECT_EQ(ran.load(), accepted);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturns) {
  ThreadPool pool(1);
  pool.Wait();
  SUCCEED();
}

TEST(ThreadPoolTest, ReportsThreadCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
}

// Regression: a throwing task used to escape the worker thread and
// std::terminate the whole process. The contract (see core/thread_pool.h)
// is now: the worker catches it, every other accepted task still runs, and
// the first captured exception is rethrown by the next Wait().
TEST(ThreadPoolTest, WaitRethrowsFirstTaskException) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.Submit([] { throw std::runtime_error("task boom"); }));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
  }
  try {
    pool.Wait();
    FAIL() << "Wait() must rethrow the task's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "task boom");
  }
  EXPECT_EQ(ran.load(), 20);  // The failure never cancelled other tasks.

  // The exception is cleared on rethrow: the pool stays usable and a later
  // Wait() with only clean tasks returns normally.
  ASSERT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
  pool.Wait();
  EXPECT_EQ(ran.load(), 21);
}

TEST(ThreadPoolTest, OnlyOneExceptionSurvivesManyFailures) {
  ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(pool.Submit(
        [i] { throw std::runtime_error("boom " + std::to_string(i)); }));
  }
  // Exactly one Wait() throws (the first captured failure); the rest were
  // swallowed by design, and the next Wait() is clean.
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  pool.Wait();
}

TEST(ThreadPoolTest, ShutdownWithPendingExceptionDoesNotTerminate) {
  // No Wait() before destruction: the pending exception is dropped, not
  // rethrown from the destructor (which would terminate).
  ThreadPool pool(2);
  ASSERT_TRUE(pool.Submit([] { throw std::runtime_error("dropped"); }));
  pool.Shutdown();
  SUCCEED();
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(1000, 4, [&](std::size_t, std::size_t i) {
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, SerialPathWhenOneThread) {
  std::vector<int> order;
  ParallelFor(10, 1, [&](std::size_t worker, std::size_t i) {
    EXPECT_EQ(worker, 0u);
    order.push_back(static_cast<int>(i));
  });
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ParallelForTest, ZeroCountIsNoop) {
  bool called = false;
  ParallelFor(0, 4, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, WorkerIndicesWithinRange) {
  const std::size_t threads = 3;
  std::atomic<bool> out_of_range{false};
  ParallelFor(100, threads, [&](std::size_t worker, std::size_t) {
    if (worker >= threads) out_of_range.store(true);
  });
  EXPECT_FALSE(out_of_range.load());
}

TEST(ParallelForTest, MoreThreadsThanItems) {
  std::vector<std::atomic<int>> hits(3);
  ParallelFor(3, 16, [&](std::size_t, std::size_t i) {
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, RethrowsTaskExceptionAfterJoin) {
  std::atomic<int> hits{0};
  EXPECT_THROW(ParallelFor(100, 4,
                           [&](std::size_t, std::size_t i) {
                             if (i == 37) throw std::runtime_error("pf boom");
                             hits.fetch_add(1);
                           }),
               std::runtime_error);
  // The throwing worker's chunk ends early, but the other chunks run to
  // completion: at least the three other quarters must have been covered.
  EXPECT_GE(hits.load(), 74);
}

TEST(ParallelForTest, SerialPathRethrowsToo) {
  std::vector<int> order;
  EXPECT_THROW(ParallelFor(10, 1,
                           [&](std::size_t, std::size_t i) {
                             if (i == 5) throw std::runtime_error("serial");
                             order.push_back(static_cast<int>(i));
                           }),
               std::runtime_error);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// Nested parallelism runs inline: a ParallelFor issued from a pool task or
// from a ParallelFor worker must not spawn threads of its own (an HNSW
// build inside a sharded build would otherwise oversubscribe the machine).
TEST(ParallelForTest, NestedInPoolTaskRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> foreign{0};
  std::atomic<int> calls{0};
  for (int t = 0; t < 4; ++t) {
    ASSERT_TRUE(pool.Submit([&] {
      const std::thread::id caller = std::this_thread::get_id();
      ParallelFor(64, 4, [&](std::size_t worker, std::size_t) {
        if (worker != 0 || std::this_thread::get_id() != caller) {
          foreign.fetch_add(1);
        }
        calls.fetch_add(1);
      });
    }));
  }
  pool.Wait();
  EXPECT_EQ(calls.load(), 4 * 64);
  EXPECT_EQ(foreign.load(), 0);
}

TEST(ParallelForTest, NestedInParallelForRunsInline) {
  std::atomic<int> foreign{0};
  std::atomic<int> calls{0};
  ParallelFor(8, 4, [&](std::size_t, std::size_t) {
    const std::thread::id caller = std::this_thread::get_id();
    ParallelFor(32, 4, [&](std::size_t worker, std::size_t) {
      if (worker != 0 || std::this_thread::get_id() != caller) {
        foreign.fetch_add(1);
      }
      calls.fetch_add(1);
    });
  });
  EXPECT_EQ(calls.load(), 8 * 32);
  EXPECT_EQ(foreign.load(), 0);
}

TEST(DefaultThreadCountTest, Positive) {
  EXPECT_GE(DefaultThreadCount(), 1u);
}

}  // namespace
}  // namespace gass::core
