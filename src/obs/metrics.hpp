// obs::MetricsRegistry — process-wide named counters, gauges and log-scale
// latency histograms.
//
// Design goals, in order:
//
//   1. Hot-path increments never contend. Every metric's storage is split
//      into kShards cache-line-padded slots; a thread writes only its own
//      slot (assigned round-robin on first use), so concurrent add() calls
//      from different pool threads touch different cache lines. Reads merge
//      the shards.
//   2. No floating-point atomics (the `atomic-float` lint rule): histograms
//      record integer nanoseconds into fixed log-scale buckets, counters
//      and gauges are integer adds. All atomics are relaxed — metrics are
//      monotone diagnostics, not synchronization.
//   3. Determinism boundary: metrics are observed through snapshot(), which
//      is explicitly diagnostic — nothing here may feed exported values or
//      ordering. Snapshot iteration is name-sorted (std::map) so dashboards
//      and logs are stable.
//
// Process-wide kernels record into MetricsRegistry::global(). An
// AnalysisEngine records into an injected registry, or else into one it
// owns, so each engine's counts live in exactly one place. Handles
// (Counter/Gauge/Histogram) are cheap value types pointing at
// registry-owned storage; they stay valid for the registry's lifetime
// (reset() zeroes values but never frees storage).
//
// Histogram buckets: values < 4 get exact buckets; from 4 up, each power of
// two splits into 4 sub-buckets (2 significant bits, HdrHistogram-style),
// bounding the relative quantile error at 25%. percentile() interpolates
// linearly inside the bucket containing the requested rank, so estimates
// always land inside the same bucket as the exact (sorted-vector) quantile.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace mimostat::obs {

/// Shard count for per-thread splitting. Threads are assigned shards
/// round-robin on first metric touch; more threads than shards share (the
/// adds are relaxed atomics, so sharing is correct, just slower).
inline constexpr std::size_t kMetricShards = 16;

/// Histogram bucket count: 4 exact buckets for values 0..3, then 4
/// sub-buckets per power of two (octaves 2..63), tiling [0, 2^64) exactly:
/// 4 + 62 * 4 = 252.
inline constexpr std::size_t kHistogramBuckets = 252;

/// The calling thread's shard index (thread_local, assigned round-robin).
[[nodiscard]] std::size_t currentMetricShard();

/// Bucket index for a recorded value (exposed for the percentile tests).
[[nodiscard]] std::size_t histogramBucketIndex(std::uint64_t value);
/// Inclusive lower bound of a bucket's value range.
[[nodiscard]] std::uint64_t histogramBucketLowerBound(std::size_t bucket);
/// Exclusive upper bound of a bucket's value range (saturates at u64 max).
[[nodiscard]] std::uint64_t histogramBucketUpperBound(std::size_t bucket);

namespace detail {

struct alignas(64) PaddedU64 {
  std::atomic<std::uint64_t> value{0};
};
struct alignas(64) PaddedI64 {
  std::atomic<std::int64_t> value{0};
};

struct CounterCells {
  std::array<PaddedU64, kMetricShards> shards;
};

struct GaugeCells {
  std::array<PaddedI64, kMetricShards> shards;
};

struct HistogramCells {
  /// buckets[shard * kHistogramBuckets + bucket].
  std::array<std::atomic<std::uint64_t>, kMetricShards * kHistogramBuckets>
      buckets{};
  std::array<PaddedU64, kMetricShards> sum;
  /// CAS min/max across all shards (rare updates, so contention is fine).
  std::atomic<std::uint64_t> minValue{~0ull};
  std::atomic<std::uint64_t> maxValue{0};
};

}  // namespace detail

/// Monotone event counter handle. Default-constructed handles are inert
/// no-ops, so members can be declared before wiring.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n = 1) const;
  void inc() const { add(1); }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::CounterCells* cells) : cells_(cells) {}
  detail::CounterCells* cells_ = nullptr;
};

/// Up/down integer level (queue depths, resident entries). The current
/// value is the sum of per-shard deltas.
class Gauge {
 public:
  Gauge() = default;
  void add(std::int64_t delta) const;
  void sub(std::int64_t delta) const { add(-delta); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::GaugeCells* cells) : cells_(cells) {}
  detail::GaugeCells* cells_ = nullptr;
};

/// Fixed-bucket log-scale histogram handle. By convention the recorded unit
/// is nanoseconds for every `*_ns` metric.
class Histogram {
 public:
  Histogram() = default;
  void record(std::uint64_t value) const;
  /// Convenience for wall-clock phases: records round(seconds * 1e9).
  void recordSeconds(double seconds) const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(detail::HistogramCells* cells) : cells_(cells) {}
  detail::HistogramCells* cells_ = nullptr;
};

/// Shard-merged histogram state with quantile extraction.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< 0 when count == 0
  std::uint64_t max = 0;
  std::vector<std::uint64_t> buckets;  ///< kHistogramBuckets entries

  /// Nearest-rank quantile (q in [0, 1]) interpolated linearly inside its
  /// bucket; the result always lies in the same bucket as the exact
  /// sorted-vector quantile would. Returns 0 when empty.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double p50() const { return percentile(0.50); }
  [[nodiscard]] double p90() const { return percentile(0.90); }
  [[nodiscard]] double p99() const { return percentile(0.99); }
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Shard-merged view of every metric, name-sorted (deterministic order).
/// Concurrent writers keep running while a snapshot is taken; per-metric
/// totals are merged with relaxed loads, so a snapshot racing an add may
/// split it across two snapshots but never loses it.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// 0 / nullptr when the name was never registered.
  [[nodiscard]] std::uint64_t counterValue(std::string_view name) const;
  [[nodiscard]] const HistogramSnapshot* histogram(
      std::string_view name) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry: la:: kernels record into it; engines do
  /// not (each records into its injected or owned registry).
  [[nodiscard]] static MetricsRegistry& global();

  /// Find-or-create handles; repeated calls with one name return handles to
  /// the same storage. Registration takes the registry mutex — resolve once
  /// and cache the handle on hot paths.
  [[nodiscard]] Counter counter(std::string_view name);
  [[nodiscard]] Gauge gauge(std::string_view name);
  [[nodiscard]] Histogram histogram(std::string_view name);

  /// Merged view of everything registered so far.
  [[nodiscard]] MetricsSnapshot snapshot() const;
  /// Merged view of one histogram (empty snapshot when unregistered).
  [[nodiscard]] HistogramSnapshot histogramSnapshot(
      std::string_view name) const;

  /// Zero every value (tests). Storage — and existing handles — stay valid.
  void reset();

 private:
  mutable util::Mutex mutex_;
  // std::map: snapshot iteration must be name-ordered, never hash-ordered.
  std::map<std::string, std::unique_ptr<detail::CounterCells>, std::less<>>
      counters_ MIMOSTAT_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<detail::GaugeCells>, std::less<>>
      gauges_ MIMOSTAT_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<detail::HistogramCells>, std::less<>>
      histograms_ MIMOSTAT_GUARDED_BY(mutex_);
};

}  // namespace mimostat::obs
