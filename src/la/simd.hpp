// la::SimdTarget — the runtime-dispatched vector backend for la::spmm
// (spmv.cpp).
//
// Targets are probed once per process (cpuid on x86; other architectures,
// aarch64 included, run the scalar kernels) and can be forced per call
// (la::Exec::simd, which a request sets through its check options) or
// process-wide (the MIMOSTAT_SIMD environment variable: "scalar", "sse2" or
// "avx2"; an invalid or unsupported value falls back to scalar with a
// warning). Forcing exists so one host can exercise every compiled path —
// the tests assert each target bitwise against the scalar reference.
//
// Determinism contract: every vectorized kernel places its lanes ACROSS the
// k right-hand-side columns of one row (the row-major X tile), never across
// the nonzeros of a row, so each column still accumulates its entries in
// exactly the scalar order. Lane-reordering therefore cannot change a sum,
// and FMA stays off everywhere (contraction rounds once where the scalar
// reference rounds twice): each lane performs the same multiply-then-add
// the scalar loop does. Switching targets is a pure performance knob —
// outputs are bit-identical across scalar/SSE2/AVX2 at any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace mimostat::la {

enum class SimdTarget : std::uint8_t {
  kScalar = 0,  ///< portable reference kernels (always available)
  kSse2 = 1,    ///< x86-64 baseline, 2 double lanes
  kAvx2 = 2,    ///< cpuid-gated, 4 double lanes (no FMA)
};

inline constexpr std::size_t kSimdTargetCount = 3;

/// Stable lowercase name ("scalar", "sse2", "avx2") — the same
/// spelling MIMOSTAT_SIMD parses and PlanStats/CSV diagnostics report.
[[nodiscard]] const char* simdTargetName(SimdTarget target);

/// Inverse of simdTargetName; nullopt for anything else.
[[nodiscard]] std::optional<SimdTarget> parseSimdTarget(std::string_view name);

/// Doubles per vector register (scalar = 1). Also the unit the panel
/// kernels pad their column strips to.
[[nodiscard]] std::size_t simdLanes(SimdTarget target);

/// True when this binary contains real kernels for the target (the
/// per-target translation unit was built with the matching ISA flags).
[[nodiscard]] bool simdTargetCompiled(SimdTarget target);

/// Compiled AND executable on this CPU (cpuid-probed once for AVX2;
/// SSE2 is the x86-64 baseline). kScalar is always supported.
[[nodiscard]] bool simdTargetSupported(SimdTarget target);

/// Widest supported target on this host.
[[nodiscard]] SimdTarget bestSimdTarget();

/// Resolve a MIMOSTAT_SIMD-style value: nullptr/empty = bestSimdTarget();
/// a known supported name = that target; anything else = kScalar with an
/// explanation in *warning (when non-null). Pure — no caching, no logging —
/// so tests can drive every branch.
[[nodiscard]] SimdTarget resolveSimdEnvValue(const char* value,
                                             std::string* warning = nullptr);

/// Re-reads MIMOSTAT_SIMD on every call (logs a warning for invalid or
/// unsupported values). activeSimdTarget() below caches the first read.
[[nodiscard]] SimdTarget simdTargetFromEnv();

/// The process-wide default target: the first simdTargetFromEnv() result,
/// cached. Per-call overrides (Exec::simd) take precedence over this.
[[nodiscard]] SimdTarget activeSimdTarget();

/// The target a kernel call actually runs: a supported override wins; an
/// unsupported override degrades to kScalar (never to a wider target — a
/// forced path must not silently execute different code); no override =
/// activeSimdTarget().
[[nodiscard]] SimdTarget resolveSimdTarget(std::optional<SimdTarget> override_);

/// Column-panel width the SpMM kernels pick for an rhsRows x k row-major
/// tile on a `lanes`-wide target: the widest register-friendly strip
/// (<= detail::kMaxPanelColumns) unless a narrower lane-multiple panel fits
/// the fixed L2 budget — then the panel is shrunk so one panel's X slice
/// stays cache-resident across the whole CSR traversal. Pure arithmetic on
/// fixed constants (the cache size is never probed), so the panel layout —
/// and every counter derived from it — is identical on every host.
[[nodiscard]] std::size_t spmmPanelWidth(std::uint32_t rhsRows, std::size_t k,
                                         std::size_t lanes);

/// Per-call traversal accounting la::spmm can surface (the bounded-group
/// executor sums these into pctl::PlanStats).
struct SpmmStats {
  /// Column panels processed — CSR traversals per step (ceil(k / width)).
  std::uint64_t panels = 0;
  /// The dispatch target the kernels ran on.
  SimdTarget target = SimdTarget::kScalar;
};

}  // namespace mimostat::la
