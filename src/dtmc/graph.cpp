#include "dtmc/graph.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "la/bit_vector.hpp"

namespace mimostat::dtmc {

SccDecomposition computeSccs(const ExplicitDtmc& dtmc) {
  // Iterative Tarjan (explicit stack; models can have millions of states).
  const std::uint32_t n = dtmc.numStates();
  constexpr std::uint32_t kUndef = ~0u;

  SccDecomposition result;
  result.componentOf.assign(n, kUndef);

  std::vector<std::uint32_t> indexOf(n, kUndef);
  std::vector<std::uint32_t> lowlink(n, 0);
  la::BitVector onStack(n);
  std::vector<std::uint32_t> tarjanStack;
  std::uint32_t nextIndex = 0;

  struct Frame {
    std::uint32_t state;
    std::uint64_t edge;  // next CSR position to visit
  };
  std::vector<Frame> callStack;

  for (std::uint32_t root = 0; root < n; ++root) {
    if (indexOf[root] != kUndef) continue;
    callStack.push_back({root, dtmc.rowPtr()[root]});
    indexOf[root] = lowlink[root] = nextIndex++;
    tarjanStack.push_back(root);
    onStack.set(root);

    while (!callStack.empty()) {
      Frame& frame = callStack.back();
      const std::uint32_t v = frame.state;
      if (frame.edge < dtmc.rowPtr()[v + 1]) {
        const std::uint32_t w = dtmc.col()[frame.edge++];
        if (indexOf[w] == kUndef) {
          indexOf[w] = lowlink[w] = nextIndex++;
          tarjanStack.push_back(w);
          onStack.set(w);
          callStack.push_back({w, dtmc.rowPtr()[w]});
        } else if (onStack.get(w)) {
          lowlink[v] = std::min(lowlink[v], indexOf[w]);
        }
      } else {
        if (lowlink[v] == indexOf[v]) {
          const std::uint32_t comp = result.numComponents++;
          while (true) {
            const std::uint32_t w = tarjanStack.back();
            tarjanStack.pop_back();
            onStack.set(w, false);
            result.componentOf[w] = comp;
            if (w == v) break;
          }
        }
        callStack.pop_back();
        if (!callStack.empty()) {
          const std::uint32_t parent = callStack.back().state;
          lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
        }
      }
    }
  }

  // Bottom components: no edge leaving the component.
  la::BitVector hasExit(result.numComponents);
  for (std::uint32_t s = 0; s < n; ++s) {
    for (std::uint64_t k = dtmc.rowPtr()[s]; k < dtmc.rowPtr()[s + 1]; ++k) {
      if (result.componentOf[dtmc.col()[k]] != result.componentOf[s]) {
        hasExit.set(result.componentOf[s]);
      }
    }
  }
  for (std::uint32_t c = 0; c < result.numComponents; ++c) {
    if (!hasExit.get(c)) result.bottomComponents.push_back(c);
  }
  return result;
}

std::uint32_t chainPeriod(const ExplicitDtmc& dtmc) {
  const std::uint32_t n = dtmc.numStates();
  assert(n > 0);
  // BFS layering from state 0; the period is the gcd of level[u]+1-level[v]
  // over all edges (u,v) (classic result for strongly connected digraphs).
  constexpr std::int64_t kUnset = -1;
  std::vector<std::int64_t> level(n, kUnset);
  std::vector<std::uint32_t> queue;
  queue.reserve(n);
  queue.push_back(0);
  level[0] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t u = queue[head];
    for (std::uint64_t k = dtmc.rowPtr()[u]; k < dtmc.rowPtr()[u + 1]; ++k) {
      const std::uint32_t v = dtmc.col()[k];
      if (level[v] == kUnset) {
        level[v] = level[u] + 1;
        queue.push_back(v);
      }
    }
  }
  std::uint64_t g = 0;
  for (std::uint32_t u = 0; u < n; ++u) {
    assert(level[u] != kUnset && "chainPeriod requires an irreducible chain");
    for (std::uint64_t k = dtmc.rowPtr()[u]; k < dtmc.rowPtr()[u + 1]; ++k) {
      const std::uint32_t v = dtmc.col()[k];
      const std::int64_t diff = level[u] + 1 - level[v];
      g = std::gcd(g, static_cast<std::uint64_t>(std::llabs(diff)));
    }
  }
  return g == 0 ? 1 : static_cast<std::uint32_t>(g);
}

}  // namespace mimostat::dtmc
