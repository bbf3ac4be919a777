// la::Exec — how a linear-algebra call runs: sequentially, or fanned out
// over a caller-supplied task runner (typically engine::ThreadPool::run).
//
// The runner only changes *where* block tasks execute, never *what* they
// compute: kernels partition work by the matrix's fixed block table and each
// output element is written by exactly one task, so results are bit-identical
// with no runner, a 1-thread pool, or an 8-thread pool.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "la/simd.hpp"

namespace mimostat::la {

/// Executes a batch of independent tasks and returns when all are done.
/// Same shape as smc::TaskRunner; bind engine::ThreadPool with
///   la::Exec exec{[&pool](auto tasks) { pool.run(std::move(tasks)); }};
using TaskRunner = std::function<void(std::vector<std::function<void()>>)>;

struct Exec {
  /// The default parallelThresholdNnz.
  static constexpr std::uint64_t kDefaultParallelThresholdNnz = 1ull << 15;

  /// Empty = run sequentially on the calling thread.
  TaskRunner runner;
  /// Work with fewer nonzeros than this stays sequential even when a
  /// runner is present — below it, task dispatch costs more than the spin
  /// over the nonzeros.
  std::uint64_t parallelThresholdNnz = kDefaultParallelThresholdNnz;
  /// Force the SIMD dispatch target for this call. nullopt = the
  /// process-wide la::activeSimdTarget() (MIMOSTAT_SIMD env override, else
  /// the widest supported target). Outputs are bit-identical across
  /// targets by construction, so this is a performance/testing knob only —
  /// an unsupported forced target degrades to scalar.
  std::optional<SimdTarget> simd;

  /// Should a kernel over `nnz` nonzeros fan out?
  [[nodiscard]] bool parallelFor(std::uint64_t nnz) const {
    return runner != nullptr && nnz >= parallelThresholdNnz;
  }
};

/// body(0), ..., body(count - 1): one task each on `runner`, or in order on
/// the calling thread when there is no runner or a single task. Bodies
/// write into pre-assigned slots, so results never depend on which ran.
template <class Body>
void runTasks(const TaskRunner& runner, std::size_t count, const Body& body) {
  if (runner == nullptr || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    tasks.push_back([&body, i] { body(i); });
  }
  runner(std::move(tasks));
}

/// body(begin, end) over the states [0, n): in fixed ranges of 2^13 states
/// on `runner` (64-aligned, so each la::BitVector word has one writer, and
/// never host-dependent), or as one call on the calling thread without a
/// runner or below kDefaultParallelThresholdNnz states. A throwing body
/// rethrows the lowest range's exception, the one a sequential pass meets.
template <class Body>
void runStateRanges(const TaskRunner& runner, std::size_t n, const Body& body) {
  constexpr std::size_t kRange = std::size_t{1} << 13;
  const bool fanOut =
      runner != nullptr && n >= Exec::kDefaultParallelThresholdNnz;
  const std::size_t ranges = fanOut ? (n + kRange - 1) / kRange : 1;
  std::vector<std::exception_ptr> errors(ranges);
  runTasks(runner, errors.size(), [&](std::size_t r) {
    try {
      fanOut ? body(r * kRange, std::min(n, (r + 1) * kRange)) : body(0, n);
    } catch (...) {
      errors[r] = std::current_exception();
    }
  });
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace mimostat::la
