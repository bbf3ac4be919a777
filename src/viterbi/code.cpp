#include "viterbi/code.hpp"

#include <cassert>
#include <cmath>

#include "util/fixed_point.hpp"
#include "util/hash.hpp"

namespace mimostat::viterbi {

// A new ViterbiParams field changes the size: hash it below, then update
// the size.
static_assert(sizeof(ViterbiParams) == 56,
              "hashParams must hash every ViterbiParams field");

std::uint64_t hashParams(std::uint64_t classTag, const ViterbiParams& params) {
  std::uint64_t hash = util::mix64(classTag);
  hash = util::hashCombineInt(hash, params.tracebackLength);
  hash = util::hashCombineDouble(hash, params.snrDb);
  hash = util::hashCombineInt(hash, params.quantLevels);
  hash = util::hashCombineDouble(hash, params.quantRange);
  hash = util::hashCombineInt(hash, params.pmCap);
  hash = util::hashCombineInt(hash, params.bmCap);
  hash = util::hashCombineDouble(hash, params.bmScale);
  hash = util::hashCombineInt(hash, params.withErrorCounter ? 1 : 0);
  hash = util::hashCombineInt(hash, params.errorThreshold);
  return hash;
}

TrellisKernel::TrellisKernel(const ViterbiParams& params)
    : params_(params),
      isi_({1.0, 1.0}),
      channel_(isi_, comm::UniformQuantizer(params.quantLevels, params.quantRange),
               params.snrDb) {
  assert(params_.tracebackLength >= 2);
  assert(params_.pmCap >= 1);
  bm_.resize(static_cast<std::size_t>(params_.quantLevels));
  const comm::UniformQuantizer& quant = channel_.quantizer();
  for (int q = 0; q < params_.quantLevels; ++q) {
    for (int u = 0; u < 2; ++u) {
      for (int v = 0; v < 2; ++v) {
        const double expected = isi_.level2(/*current=*/v, /*previous=*/u);
        bm_[static_cast<std::size_t>(q)][u][v] = util::quantizeMagnitude(
            std::fabs(quant.value(q) - expected), params_.bmScale,
            params_.bmCap);
      }
    }
  }
}

AcsResult TrellisKernel::acs(std::int32_t pm0, std::int32_t pm1, int q) const {
  AcsResult r;
  const std::int32_t cand00 = pm0 + branchMetric(q, 0, 0);
  const std::int32_t cand10 = pm1 + branchMetric(q, 1, 0);
  const std::int32_t cand01 = pm0 + branchMetric(q, 0, 1);
  const std::int32_t cand11 = pm1 + branchMetric(q, 1, 1);

  std::int32_t new0 = 0;
  if (cand00 <= cand10) {
    new0 = cand00;
    r.prev0 = 0;
  } else {
    new0 = cand10;
    r.prev0 = 1;
  }
  std::int32_t new1 = 0;
  if (cand01 <= cand11) {
    new1 = cand01;
    r.prev1 = 0;
  } else {
    new1 = cand11;
    r.prev1 = 1;
  }

  // Min-normalisation (standard RTL path-metric rescaling) + saturation.
  const std::int32_t mn = std::min(new0, new1);
  r.pm0 = util::clampI32(new0 - mn, 0, params_.pmCap);
  r.pm1 = util::clampI32(new1 - mn, 0, params_.pmCap);
  r.tracebackStart = (r.pm0 <= r.pm1) ? 0 : 1;
  return r;
}

int traceback(int start, const std::vector<int>& prev0Stages,
              const std::vector<int>& prev1Stages, int hops) {
  assert(prev0Stages.size() == prev1Stages.size());
  assert(hops >= 0 && static_cast<std::size_t>(hops) <= prev0Stages.size());
  int state = start;
  for (int i = 0; i < hops; ++i) {
    state = (state == 0) ? prev0Stages[static_cast<std::size_t>(i)]
                         : prev1Stages[static_cast<std::size_t>(i)];
  }
  return state;
}

}  // namespace mimostat::viterbi
