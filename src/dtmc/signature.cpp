#include "dtmc/signature.hpp"

#include "dtmc/builder.hpp"
#include "util/hash.hpp"

namespace mimostat::dtmc {

ModelSignature modelSignature(const Model& model,
                              const SignatureOptions& options) {
  ExploreOptions exploreOptions;
  exploreOptions.maxStates = options.maxStates;
  exploreOptions.keepMatrix = false;
  const Exploration e = explore(model, exploreOptions);
  return {e.hash, e.exact, e.states, e.transitions};
}

void LabelRewardDigest::addMask(std::uint64_t formulaHash,
                                const la::BitVector& mask) {
  // Content hash covers the packed words AND the bit length: a 64-state
  // all-zero mask must not collide with a 128-state one.
  std::uint64_t content = util::fnv1a(
      mask.words().data(), mask.words().size() * sizeof(la::BitVector::Word));
  content = util::hashCombine(content, util::mix64(mask.size()));
  hash_ ^= util::mix64(util::hashCombine(util::mix64(formulaHash), content));
  ++entries_;
}

void LabelRewardDigest::addReward(std::string_view name,
                                  const std::vector<double>& values) {
  const std::uint64_t id = util::fnv1a(name.data(), name.size());
  std::uint64_t content =
      util::fnv1a(values.data(), values.size() * sizeof(double));
  content = util::hashCombine(content, util::mix64(values.size()));
  hash_ ^= util::mix64(util::hashCombine(util::mix64(id), content));
  ++entries_;
}

}  // namespace mimostat::dtmc
