// la::KeyNumbering — numbers u64 keys in order of first occurrence with the
// work on a task runner, bitwise as a sequential walk numbers them. It is
// the one numbering of dtmc::explore (each window's new states) and of
// lump::lump (the initial partition and every refinement round), in four
// steps:
//  1. add(): each range (one task's keys) dedups its new keys in
//     first-occurrence order; keys numbered before are found read-only.
//  2. claim(): one task per shard walks the ranges in order, so a key's
//     first claimant is its earliest range.
//  3. The caller walks the ranges in order and assign()s each first claim
//     the next number: no hashing, no probing.
//  4. publish(): one task per shard writes the numbers into the claimed
//     slots, beside the caller's tasks, which resolve() their keys.
// A window's only range is the shards' only writer and numbers its new keys
// in its own order, so it numbers each as it adds it: a sequential caller
// probes once per key, as a plain hash index would, and publishes nothing.
// The shards persist as the index of the numbered keys. A slot is 4 bytes,
// a number + 1 or a pending claim, and keys compare through the numbered
// keys or the pending ones, so every u64 is storable.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <vector>

#include "la/exec.hpp"
#include "util/hash.hpp"

namespace mimostat::la {

class KeyNumbering {
 public:
  /// Fixed, never host-dependent: claim and publish run a task per shard.
  static constexpr std::size_t kShards = 16;

  /// One range's new keys, each once, in first-occurrence order. reset()
  /// it before its first add(); `only` = it is its window's only range.
  struct alignas(64) Range {
    std::vector<std::uint64_t> keys;
    std::vector<std::uint32_t> index;  ///< open addressing: id + 1
    std::array<std::vector<std::uint32_t>, kShards> byShard;  ///< ids, in order
    std::uint32_t base = 0;  ///< the claim id of keys[0] (claim() sets it)
    bool only = false;
    void reset(bool onlyRange) {
      keys.clear();
      only = onlyRange;
      for (auto& bucket : byShard) bucket.clear();
      if (!only) index.assign(std::max<std::size_t>(index.size(), 64), 0);
    }
  };

  /// Step 1. The number + 1 of a key numbered before (or by the only
  /// range), else size() + 1 + the key's id in `range` (resolve() maps
  /// either). `hash` = util::mix64(key).
  std::uint32_t add(Range& range, std::uint64_t key, std::uint64_t hash) {
    Shard& shard = shards_[hash >> kShardShift];
    const auto numbered = [&](std::uint32_t v) { return keys_[v - 1]; };
    const std::size_t slot = find(shard.slots, key, hash, numbered);
    if (shard.slots[slot] != 0) return shard.slots[slot];
    if (range.only) {  // the shards' only writer: number the key right away
      range.keys.push_back(key);
      keys_.push_back(key);
      shard.slots[slot] = static_cast<std::uint32_t>(keys_.size());
      fit(shard.slots, ++shard.used, numbered);
      return static_cast<std::uint32_t>(keys_.size());
    }
    const auto local = [&](std::uint32_t v) { return range.keys[v - 1]; };
    const std::size_t at = find(range.index, key, hash, local);
    std::uint32_t v = range.index[at];  // the key's id + 1 in the range
    if (v == 0) {
      range.keys.push_back(key);
      v = static_cast<std::uint32_t>(range.keys.size());
      range.byShard[hash >> kShardShift].push_back(v - 1);
      range.index[at] = v;
      fit(range.index, v, local);
    }
    return base_ + v;
  }

  /// Step 2, over ranges[0, count).
  void claim(const TaskRunner& runner, std::vector<Range>& ranges,
             std::size_t count) {
    std::uint32_t total = 0;
    for (std::size_t r = 0; r < count; ++r) {
      ranges[r].base = total;
      total += static_cast<std::uint32_t>(ranges[r].keys.size());
    }
    if (ranges[0].only || total == 0) return;
    claim_.resize(total);
    number_.resize(total);
    // Every claim is its own first until a shard finds an earlier one, so
    // the shards' tasks only write the (rarer) repeats.
    std::iota(claim_.begin(), claim_.end(), 0u);
    runTasks(runner, kShards, [&](std::size_t t) {
      Shard& shard = shards_[t];
      std::size_t incoming = shard.used;
      for (std::size_t r = 0; r < count; ++r) {
        incoming += ranges[r].byShard[t].size();
      }
      fit(shard.slots, incoming, [&](std::uint32_t v) { return keys_[v - 1]; });
      for (std::size_t r = 0; r < count; ++r) {
        for (const std::uint32_t id : ranges[r].byShard[t]) {
          // add() looked `key` up among the numbered keys: compare only
          // the pending claims.
          const std::uint64_t key = ranges[r].keys[id];
          const std::size_t slot =
              find(shard.slots, key, util::mix64(key), [&](std::uint32_t v) {
                return v <= base_ ? key + 1 : claimed(ranges, count, v);
              });
          const std::uint32_t claim = ranges[r].base + id;
          if (shard.slots[slot] != 0) {
            claim_[claim] = shard.slots[slot] - base_ - 1;
            continue;
          }
          shard.slots[slot] = base_ + 1 + claim;
          shard.at.push_back(static_cast<std::uint32_t>(slot));
          ++shard.used;
        }
      }
    });
  }

  /// Step 3: if range.keys[id] is its key's first claim, give it the next
  /// number and return true.
  bool assign(const Range& range, std::size_t id) {
    const auto claim = static_cast<std::uint32_t>(range.base + id);
    if (!range.only) {
      if (claim_[claim] != claim) return false;
      number_[claim] = size_;
      keys_.push_back(range.keys[id]);
    }
    ++size_;
    return true;
  }

  /// Step 4: body(0..tasks) beside the shards' tasks; on the calling thread
  /// for a single range. Every claim must have its number.
  template <class Body>
  void publish(const TaskRunner& runner, std::size_t tasks, const Body& body) {
    runTasks(tasks > 1 ? runner : TaskRunner{}, std::max(kShards, tasks),
             [&](std::size_t t) {
      if (t < kShards) {
        Shard& shard = shards_[t];
        for (const std::uint32_t slot : shard.at) {
          shard.slots[slot] = number_[shard.slots[slot] - base_ - 1] + 1;
        }
        shard.at.clear();
      }
      if (t < tasks) body(t);
    });
    base_ = size_;
  }
  /// The number of an add() value, from step 3 until publish() returns.
  [[nodiscard]] std::uint32_t resolve(const Range& range,
                                      std::uint32_t value) const {
    return range.only || value <= base_
               ? value - 1
               : number_[claim_[range.base + value - base_ - 1]];
  }

  /// How many keys are numbered.
  [[nodiscard]] std::uint32_t size() const { return size_; }
  /// The numbered keys in number order (and, until publish(), the only
  /// range's new ones); explore moves them out as its state table.
  std::vector<std::uint64_t>& keys() { return keys_; }

 private:
  static constexpr int kShardShift = 60;  // the top 4 hash bits
  /// A slot above base_ holds the only range's number + 1, or the claim
  /// id + base_ + 1 of a pending claim, which sits at one of slots[at[...]].
  struct alignas(64) Shard {
    std::vector<std::uint32_t> slots = std::vector<std::uint32_t>(64, 0);
    std::size_t used = 0;
    std::vector<std::uint32_t> at;
  };

  /// The key of pending slot value `v`, from the range holding its claim.
  std::uint64_t claimed(const std::vector<Range>& ranges, std::size_t count,
                        std::uint32_t v) const {
    const std::uint32_t claim = v - base_ - 1;
    const auto range = std::upper_bound(
        ranges.begin(), ranges.begin() + static_cast<std::ptrdiff_t>(count),
        claim, [](std::uint32_t c, const Range& r) { return c < r.base; });
    return std::prev(range)->keys[claim - std::prev(range)->base];
  }

  /// Linear probing over `slots`, whose values compare through keyOf: the
  /// slot holding `key`, or the empty slot where it belongs.
  template <class KeyOf>
  static std::size_t find(const std::vector<std::uint32_t>& slots,
                          std::uint64_t key, std::uint64_t hash,
                          const KeyOf& keyOf) {
    std::size_t slot = hash & (slots.size() - 1);
    while (slots[slot] != 0 && keyOf(slots[slot]) != key) {
      slot = (slot + 1) & (slots.size() - 1);
    }
    return slot;
  }
  /// Keep `slots` at most half full with `entries` in it.
  template <class KeyOf>
  static void fit(std::vector<std::uint32_t>& slots, std::size_t entries,
                  const KeyOf& keyOf) {
    std::size_t size = slots.size();
    while (2 * entries > size) size *= 2;
    if (size == slots.size()) return;
    std::vector<std::uint32_t> old(size, 0);
    old.swap(slots);
    for (const std::uint32_t v : old) {
      if (v == 0) continue;
      std::size_t slot = util::mix64(keyOf(v)) & (size - 1);
      while (slots[slot] != 0) slot = (slot + 1) & (size - 1);
      slots[slot] = v;
    }
  }

  std::array<Shard, kShards> shards_;
  std::vector<std::uint64_t> keys_;
  std::uint32_t size_ = 0;
  std::uint32_t base_ = 0;  ///< size_ when the window began
  std::vector<std::uint32_t> claim_;   ///< per claim id: its first claim's
  std::vector<std::uint32_t> number_;  ///< per first claim: its number
};

}  // namespace mimostat::la
