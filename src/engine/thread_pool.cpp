#include "engine/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "obs/clock.hpp"

namespace mimostat::engine {

namespace {

/// MIMOSTAT_THREADS as a pool-size override for threads == 0 constructions
/// (unset, empty, non-numeric or 0 values are ignored). CI's TSan job uses
/// it to force an 8-thread pool on every default-constructed engine.
std::size_t envThreadOverride() {
  // Read once, during pool construction, before any worker exists.
  const char* env = std::getenv("MIMOSTAT_THREADS");  // NOLINT(concurrency-mt-unsafe)
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const unsigned long value = std::strtoul(env, &end, 10);
  if (end == env || (end != nullptr && *end != '\0')) return 0;
  return static_cast<std::size_t>(value);
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads, obs::MetricsRegistry* metrics)
    : metrics_(metrics) {
  if (metrics_ != nullptr) {
    queueDepth_ = metrics_->gauge("engine.pool.queue_depth");
    taskWaitNs_ = metrics_->histogram("engine.pool.task_wait_ns");
    taskRunNs_ = metrics_->histogram("engine.pool.task_run_ns");
  }
  if (threads == 0) threads = envThreadOverride();
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const util::MutexLock lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool ThreadPool::runOneTask(Batch* batch) {
  std::shared_ptr<Batch> owner;
  if (batch == nullptr) {
    // Drop exhausted batches, then pick the oldest one with pending tasks.
    while (!queue_.empty() &&
           queue_.front()->next >= queue_.front()->tasks.size()) {
      queue_.pop_front();
    }
    if (queue_.empty()) return false;
    owner = queue_.front();
    batch = owner.get();
  }
  if (batch->next >= batch->tasks.size()) return false;

  const std::size_t idx = batch->next++;
  mutex_.unlock();
  // Wait = enqueue -> pickup, run = the task body; both land in sharded
  // relaxed-atomic histograms, so the metered path costs two clock reads
  // outside the pool lock. Unmetered pools (metrics_ == nullptr) skip it.
  std::uint64_t startNs = 0;
  if (metrics_ != nullptr) {
    startNs = obs::monotonicNanos();
    taskWaitNs_.record(startNs - batch->enqueuedNs);
    queueDepth_.sub(1);
  }
  try {
    batch->tasks[idx]();
  } catch (...) {
    mutex_.lock();
    if (!batch->error) batch->error = std::current_exception();
    mutex_.unlock();
  }
  if (metrics_ != nullptr) {
    taskRunNs_.record(obs::monotonicNanos() - startNs);
  }
  mutex_.lock();
  if (++batch->done == batch->tasks.size()) batch->finished.notify_all();
  return true;
}

void ThreadPool::workerLoop() {
  const util::MutexLock lock(mutex_);
  while (true) {
    if (runOneTask(nullptr)) continue;
    if (stop_) return;
    wake_.wait(mutex_);
  }
}

void ThreadPool::run(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  auto batch = std::make_shared<Batch>();
  batch->tasks = std::move(tasks);
  if (metrics_ != nullptr) {
    batch->enqueuedNs = obs::monotonicNanos();
    queueDepth_.add(static_cast<std::int64_t>(batch->tasks.size()));
  }

  const util::MutexLock lock(mutex_);
  queue_.push_back(batch);
  wake_.notify_all();

  // Help drain our own batch, then wait for in-flight stragglers.
  while (runOneTask(batch.get())) {
  }
  batch->finished.wait(mutex_,
                       [&] { return batch->done == batch->tasks.size(); });
  if (batch->error) std::rethrow_exception(batch->error);
}

}  // namespace mimostat::engine
