// la::Exec — how a linear-algebra call runs: sequentially, or fanned out
// over a caller-supplied task runner (typically engine::ThreadPool::run).
//
// The runner only changes *where* block tasks execute, never *what* they
// compute: kernels partition work by the matrix's fixed block table and each
// output element is written by exactly one task, so results are bit-identical
// with no runner, a 1-thread pool, or an 8-thread pool.
#pragma once

#include <cstddef>
#include <cstdint>
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

}  // namespace mimostat::la
