#include "la/simd.hpp"

#include <cstdlib>

#include "la/simd_kernels.hpp"
#include "util/log.hpp"

namespace mimostat::la {

namespace detail {
namespace {

// Scalar reference policies: exactly the loops the pre-dispatch kernels
// ran. Every vector target is asserted bitwise against these.
struct ScalarLanes {
  using Vec = double;
  static constexpr std::size_t kLanes = 1;
  static Vec zero() { return 0.0; }
  static Vec broadcast(double v) { return v; }
  static Vec loadu(const double* p) { return *p; }
  static void storeu(double* p, Vec v) { *p = v; }
  static Vec mul(Vec a, Vec b) { return a * b; }
  static Vec add(Vec a, Vec b) { return a + b; }
};

struct ScalarRow {
  static double gather(const CsrView& m, const double* x, std::uint64_t begin,
                       std::uint64_t end) {
    double acc = 0.0;
    for (std::uint64_t e = begin; e < end; ++e) {
      acc += m.val[e] * x[m.col[e]];
    }
    return acc;
  }
};

}  // namespace

const KernelSet& scalarKernels() {
  static constexpr KernelSet kSet{&panelGatherImpl<ScalarLanes>,
                                  &rowGatherImpl<ScalarRow>,
                                  &maskedRowGatherImpl<ScalarRow>,
                                  /*lanes=*/1, /*compiled=*/true};
  return kSet;
}

const KernelSet& scalarStandIn() {
  // Returned by a target TU whose ISA flags were absent at build time:
  // scalar code, flagged uncompiled so supported()/dispatch report honestly.
  static constexpr KernelSet kSet{&panelGatherImpl<ScalarLanes>,
                                  &rowGatherImpl<ScalarRow>,
                                  &maskedRowGatherImpl<ScalarRow>,
                                  /*lanes=*/1, /*compiled=*/false};
  return kSet;
}

const KernelSet& kernelsFor(SimdTarget target) {
  switch (target) {
    case SimdTarget::kSse2:
      return sse2Kernels();
    case SimdTarget::kAvx2:
      return avx2Kernels();
    case SimdTarget::kScalar:
      break;
  }
  return scalarKernels();
}

}  // namespace detail

const char* simdTargetName(SimdTarget target) {
  switch (target) {
    case SimdTarget::kScalar:
      return "scalar";
    case SimdTarget::kSse2:
      return "sse2";
    case SimdTarget::kAvx2:
      return "avx2";
  }
  return "scalar";
}

std::optional<SimdTarget> parseSimdTarget(std::string_view name) {
  if (name == "scalar") return SimdTarget::kScalar;
  if (name == "sse2") return SimdTarget::kSse2;
  if (name == "avx2") return SimdTarget::kAvx2;
  return std::nullopt;
}

std::size_t simdLanes(SimdTarget target) {
  return detail::kernelsFor(target).lanes;
}

bool simdTargetCompiled(SimdTarget target) {
  return detail::kernelsFor(target).compiled;
}

bool simdTargetSupported(SimdTarget target) {
  if (target == SimdTarget::kScalar) return true;
  if (!simdTargetCompiled(target)) return false;
  switch (target) {
    case SimdTarget::kSse2:
      // The x86-64 baseline: if the TU compiled, the CPU runs it.
      return true;
    case SimdTarget::kAvx2: {
#if defined(__x86_64__) || defined(__i386__)
      // cpuid-backed, probed once by the compiler runtime.
      static const bool kHasAvx2 = __builtin_cpu_supports("avx2") != 0;
      return kHasAvx2;
#else
      return false;
#endif
    }
    case SimdTarget::kScalar:
      break;
  }
  return true;
}

SimdTarget bestSimdTarget() {
  for (const SimdTarget t : {SimdTarget::kAvx2, SimdTarget::kSse2}) {
    if (simdTargetSupported(t)) return t;
  }
  return SimdTarget::kScalar;
}

SimdTarget resolveSimdEnvValue(const char* value, std::string* warning) {
  if (value == nullptr || *value == '\0') return bestSimdTarget();
  const std::optional<SimdTarget> parsed = parseSimdTarget(value);
  if (!parsed) {
    if (warning != nullptr) {
      *warning = std::string("unknown MIMOSTAT_SIMD value \"") + value +
                 "\" (expected scalar/sse2/avx2) — using scalar";
    }
    return SimdTarget::kScalar;
  }
  if (!simdTargetSupported(*parsed)) {
    if (warning != nullptr) {
      *warning = std::string("MIMOSTAT_SIMD=") + value +
                 " is not supported on this host — using scalar";
    }
    return SimdTarget::kScalar;
  }
  return *parsed;
}

SimdTarget simdTargetFromEnv() {
  std::string warning;
  const SimdTarget target = resolveSimdEnvValue(
      std::getenv("MIMOSTAT_SIMD"),  // NOLINT(concurrency-mt-unsafe)
      &warning);
  if (!warning.empty()) MS_LOG_WARN("la::simd: %s", warning.c_str());
  return target;
}

SimdTarget activeSimdTarget() {
  static const SimdTarget kActive = simdTargetFromEnv();
  return kActive;
}

SimdTarget resolveSimdTarget(std::optional<SimdTarget> override_) {
  if (!override_) return activeSimdTarget();
  if (simdTargetSupported(*override_)) return *override_;
  // A forced-but-unsupported target degrades to scalar, never to a wider
  // set of instructions than the caller asked for.
  return SimdTarget::kScalar;
}

std::size_t spmmPanelWidth(std::uint32_t rhsRows, std::size_t k,
                           std::size_t lanes) {
  if (lanes == 0) lanes = 1;
  // Fixed L2 budget — a constant, never probed, so panel counts match on
  // every host (the bit-identity tests compare counters across targets).
  constexpr std::uint64_t kPanelTargetBytes = 256ull * 1024ull;
  std::size_t wide = detail::kMaxPanelColumns;
  if (k < wide) wide = k;
  if (wide > lanes) wide -= wide % lanes;  // keep whole vectors when we can
  if (wide == 0) wide = 1;
  const std::uint64_t rowBytes =
      static_cast<std::uint64_t>(rhsRows) * sizeof(double);
  if (rowBytes == 0) return wide;
  std::size_t fit = static_cast<std::size_t>(kPanelTargetBytes / rowBytes);
  if (fit < lanes) {
    // No lane-multiple panel keeps X cache-resident: narrowing would only
    // re-stream the CSR arrays without a hit-rate win, so go wide.
    return wide;
  }
  fit -= fit % lanes;
  return fit < wide ? fit : wide;
}

}  // namespace mimostat::la
