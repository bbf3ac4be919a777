// Shared memoized property parsing.
//
// Every consumer of parsed pCTL — the AnalysisEngine, each mc::Checker, the
// sweep runner — used to keep its own private text -> Property map, so one
// property string was re-parsed once per checker instance. A PropertyCache
// is the single shared map: get() parses on miss and returns a copy of the
// memoized AST (Property is cheap to copy — its formula nodes are shared
// immutable pointers). global() is the process-wide instance that every
// component parses through.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>

#include "pctl/ast.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace mimostat::pctl {

class PropertyCache {
 public:
  /// `maxEntries` bounds the map: when an insert would exceed it, the whole
  /// map is flushed first. Wholesale flushing (instead of LRU) keeps get()
  /// a single hash lookup — parsing is cheap, so the cap only has to stop
  /// unbounded growth in long-running processes whose sweeps mint distinct
  /// property strings per point, not preserve a working set exactly.
  explicit PropertyCache(std::size_t maxEntries = 4096)
      : maxEntries_(maxEntries > 0 ? maxEntries : 1) {}
  PropertyCache(const PropertyCache&) = delete;
  PropertyCache& operator=(const PropertyCache&) = delete;

  /// Memoized parse. Throws ParseError on invalid input (failures are not
  /// cached; a later identical call re-parses and re-throws).
  [[nodiscard]] Property get(std::string_view text);

  [[nodiscard]] std::size_t size() const;
  /// get() calls served from the map / that had to parse.
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  void clear();

  /// The process-wide cache shared by the engine and every checker.
  [[nodiscard]] static PropertyCache& global();

 private:
  const std::size_t maxEntries_;
  mutable util::Mutex mutex_;
  std::unordered_map<std::string, Property> cache_ MIMOSTAT_GUARDED_BY(mutex_);
  std::uint64_t hits_ MIMOSTAT_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ MIMOSTAT_GUARDED_BY(mutex_) = 0;
};

}  // namespace mimostat::pctl
