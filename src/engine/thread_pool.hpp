// Batch-oriented thread pool for the analysis engine.
//
// One entry point: run() executes a batch of tasks and blocks until all
// complete — crucially, the *calling* thread also drains tasks from its own
// batch, so a pooled task may itself call run() for sub-tasks (request-level
// parallelism nesting property-group parallelism) without any risk of
// pool-exhaustion deadlock.
//
// Determinism contract: the pool never reorders results because callers
// write into pre-assigned slots; scheduling order is irrelevant.
//
// Locking discipline (machine-checked under -Wthread-safety): queue_ and
// stop_ are guarded by mutex_, and every function that touches a Batch's
// mutable cursors (next/done/error) requires mutex_ — Batch objects are only
// ever manipulated through the owning pool's lock, which is why the fields
// themselves need no per-batch mutex.
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "la/exec.hpp"
#include "obs/metrics.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace mimostat::engine {

class ThreadPool {
 public:
  /// threads == 0 picks the MIMOSTAT_THREADS environment variable when set
  /// (how CI's TSan job forces an 8-thread pool on any host), otherwise
  /// std::thread::hardware_concurrency().
  ///
  /// When `metrics` is non-null the pool reports a queue-depth gauge
  /// ("engine.pool.queue_depth") and task wait/run histograms
  /// ("engine.pool.task_wait_ns" / "engine.pool.task_run_ns") into it; the
  /// AnalysisEngine passes its registry, bare pools stay unmetered.
  explicit ThreadPool(std::size_t threads = 0,
                      obs::MetricsRegistry* metrics = nullptr);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t threadCount() const { return workers_.size(); }

  /// Run every task, blocking until all are done. The caller participates in
  /// executing its own batch. The first exception thrown by a task is
  /// rethrown here after the batch completes.
  void run(std::vector<std::function<void()>> tasks) MIMOSTAT_EXCLUDES(mutex_);

 private:
  struct Batch {
    /// Immutable after construction (set before the batch is published).
    std::vector<std::function<void()>> tasks;
    /// Enqueue timestamp (obs::monotonicNanos) for the wait histogram; 0
    /// when the pool is unmetered. Immutable after construction.
    std::uint64_t enqueuedNs = 0;
    // next/done/error are guarded by the owning pool's mutex_ — enforced by
    // MIMOSTAT_REQUIRES(mutex_) on every member function that touches them
    // (the analysis cannot alias a member-of-member guard expression).
    std::size_t next = 0;
    std::size_t done = 0;
    std::exception_ptr error;
    util::CondVar finished;
  };

  void workerLoop() MIMOSTAT_EXCLUDES(mutex_);
  /// Pop-and-run one task from `batch` (or any queued batch when null).
  /// Returns false when there was nothing to run. The mutex is released
  /// around the task body and re-acquired before returning.
  bool runOneTask(Batch* batch) MIMOSTAT_REQUIRES(mutex_);

  /// Started in the constructor, joined in the destructor; never touched in
  /// between. lint:allow(guarded-by: immutable while workers can observe it)
  std::vector<std::thread> workers_;
  mutable util::Mutex mutex_;
  std::deque<std::shared_ptr<Batch>> queue_ MIMOSTAT_GUARDED_BY(mutex_);
  util::CondVar wake_;
  bool stop_ MIMOSTAT_GUARDED_BY(mutex_) = false;
  /// Constructor-initialized; nullptr = unmetered.
  /// lint:allow(guarded-by: constructor-initialized, read-only after)
  obs::MetricsRegistry* metrics_ = nullptr;
  /// lint:allow(guarded-by: internally synchronized handle)
  obs::Gauge queueDepth_;
  /// lint:allow(guarded-by: internally synchronized handle)
  obs::Histogram taskWaitNs_;
  /// lint:allow(guarded-by: internally synchronized handle)
  obs::Histogram taskRunNs_;
};

/// The canonical ThreadPool -> la::TaskRunner adapter (used by the engine's
/// injected exec, tests and benches alike, so all of them inherit run()'s
/// batch/exception semantics from one place). The pool must outlive the
/// returned runner.
[[nodiscard]] inline la::TaskRunner laRunnerFor(ThreadPool& pool) {
  return [&pool](std::vector<std::function<void()>> tasks) {
    pool.run(std::move(tasks));
  };
}

}  // namespace mimostat::engine
