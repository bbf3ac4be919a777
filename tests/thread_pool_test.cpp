// Lifecycle and contract tests for engine::ThreadPool: exception
// propagation out of run(), nested run() from
// inside a worker (incl. the 1-thread pool, where the caller must drain its
// own batch or deadlock), scheduling-independent results at 1/2/8 threads,
// and the MIMOSTAT_THREADS pool-size override.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/thread_pool.hpp"

namespace mimostat::engine {
namespace {

/// Scoped MIMOSTAT_THREADS value; restores the previous state on exit.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    const char* old = std::getenv("MIMOSTAT_THREADS");
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    if (value != nullptr) {
      ::setenv("MIMOSTAT_THREADS", value, 1);
    } else {
      ::unsetenv("MIMOSTAT_THREADS");
    }
  }
  ~ScopedThreadsEnv() {
    if (had_) {
      ::setenv("MIMOSTAT_THREADS", saved_.c_str(), 1);
    } else {
      ::unsetenv("MIMOSTAT_THREADS");
    }
  }

 private:
  std::string saved_;
  bool had_ = false;
};

TEST(ThreadPool, RunExecutesEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 64;
  std::vector<std::atomic<int>> hits(kTasks);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    tasks.push_back([&hits, i] { hits[i].fetch_add(1); });
  }
  pool.run(std::move(tasks));
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, RunRethrowsFirstTaskException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back([&completed, i] {
      if (i == 7) throw std::runtime_error("task 7 failed");
      completed.fetch_add(1);
    });
  }
  EXPECT_THROW(pool.run(std::move(tasks)), std::runtime_error);
  // The batch completes before rethrow: every non-throwing task still ran.
  EXPECT_EQ(completed.load(), 15);
}

TEST(ThreadPool, RunRethrowsWithMessageIntact) {
  ThreadPool pool(2);
  std::vector<std::function<void()>> tasks;
  tasks.push_back([] { throw std::invalid_argument("bad orientation"); });
  try {
    pool.run(std::move(tasks));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_STREQ(err.what(), "bad orientation");
  }
}

TEST(ThreadPool, PoolSurvivesExceptionAndKeepsWorking) {
  ThreadPool pool(2);
  std::vector<std::function<void()>> bad;
  bad.push_back([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.run(std::move(bad)), std::runtime_error);

  std::atomic<int> ran{0};
  std::vector<std::function<void()>> good;
  for (int i = 0; i < 8; ++i) good.push_back([&ran] { ran.fetch_add(1); });
  pool.run(std::move(good));
  EXPECT_EQ(ran.load(), 8);
}

void nestedFanOut(ThreadPool& pool, std::vector<double>& results) {
  // Outer batch: 4 tasks, each running an inner batch of 8 sub-tasks into
  // pre-assigned slots — request-level parallelism nesting property-group
  // parallelism, the engine's actual shape.
  std::vector<std::function<void()>> outer;
  for (int g = 0; g < 4; ++g) {
    outer.push_back([&pool, &results, g] {
      std::vector<std::function<void()>> inner;
      for (int i = 0; i < 8; ++i) {
        inner.push_back([&results, g, i] {
          results[static_cast<std::size_t>(g * 8 + i)] = g * 100.0 + i;
        });
      }
      pool.run(std::move(inner));
    });
  }
  pool.run(std::move(outer));
}

TEST(ThreadPool, NestedRunFromWorkerDoesNotDeadlock) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    std::vector<double> results(32, -1.0);
    nestedFanOut(pool, results);
    for (int g = 0; g < 4; ++g) {
      for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(results[static_cast<std::size_t>(g * 8 + i)],
                  g * 100.0 + i);
      }
    }
  }
}

TEST(ThreadPool, PreassignedSlotsIdenticalAcrossThreadCounts) {
  // The determinism contract: results live in pre-assigned slots, so the
  // output bytes cannot depend on the pool size or scheduling order.
  const auto runAt = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<double> slots(256, 0.0);
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      tasks.push_back([&slots, i] {
        double acc = 0.0;
        for (std::size_t j = 0; j <= i; ++j) acc += 1.0 / (1.0 + j);
        slots[i] = acc;
      });
    }
    pool.run(std::move(tasks));
    return slots;
  };
  const auto ref = runAt(1);
  EXPECT_EQ(runAt(2), ref);
  EXPECT_EQ(runAt(8), ref);
}

TEST(ThreadPool, ExplicitThreadCountIsHonored) {
  EXPECT_EQ(ThreadPool(1).threadCount(), 1u);
  EXPECT_EQ(ThreadPool(3).threadCount(), 3u);
  EXPECT_EQ(ThreadPool(8).threadCount(), 8u);
}

TEST(ThreadPool, EnvOverrideSetsDefaultPoolSize) {
  const ScopedThreadsEnv env("8");
  EXPECT_EQ(ThreadPool(0).threadCount(), 8u);
  // An explicit count always wins over the environment.
  EXPECT_EQ(ThreadPool(2).threadCount(), 2u);
}

TEST(ThreadPool, EnvOverrideIgnoresInvalidValues) {
  for (const char* bad : {"", "zero", "4x", "0"}) {
    SCOPED_TRACE(std::string("MIMOSTAT_THREADS=") + bad);
    const ScopedThreadsEnv env(bad);
    EXPECT_GE(ThreadPool(0).threadCount(), 1u);
  }
}

TEST(ThreadPool, EmptyRunIsANoOp) {
  ThreadPool pool(2);
  pool.run({});  // must not enqueue or block
}

}  // namespace
}  // namespace mimostat::engine
