#include "dtmc/signature.hpp"

#include <bit>

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
  // One mix64 per word, then the bit length: a 64-state all-zero mask must
  // not collide with a 128-state one.
  std::uint64_t content = util::mix64(mask.size());
  for (const la::BitVector::Word word : mask.words()) {
    content = util::hashCombine(content, util::mix64(word));
  }
  hash_ ^= util::mix64(util::hashCombine(util::mix64(formulaHash), content));
  ++entries_;
}

void LabelRewardDigest::addReward(std::string_view name,
                                  const std::vector<double>& values) {
  const std::uint64_t id = util::fnv1a(name.data(), name.size());
  std::uint64_t content = util::mix64(values.size());
  for (const double value : values) {
    content = util::hashCombine(
        content, util::mix64(std::bit_cast<std::uint64_t>(value)));
  }
  hash_ ^= util::mix64(util::hashCombine(util::mix64(id), content));
  ++entries_;
}

}  // namespace mimostat::dtmc
