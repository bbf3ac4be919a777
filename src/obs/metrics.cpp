#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace mimostat::obs {

namespace {

/// Round-robin shard assignment: each new thread gets the next slot.
std::atomic<std::size_t> g_nextShard{0};

std::size_t assignShard() {
  return g_nextShard.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
}

}  // namespace

std::size_t currentMetricShard() {
  thread_local const std::size_t shard = assignShard();
  return shard;
}

std::size_t histogramBucketIndex(std::uint64_t value) {
  if (value < 4) return static_cast<std::size_t>(value);
  const auto octave = static_cast<std::size_t>(std::bit_width(value)) - 1;
  const auto sub = static_cast<std::size_t>((value >> (octave - 2)) & 3u);
  const std::size_t bucket = 4 + (octave - 2) * 4 + sub;
  return std::min(bucket, kHistogramBuckets - 1);
}

std::uint64_t histogramBucketLowerBound(std::size_t bucket) {
  if (bucket < 4) return bucket;
  const std::size_t octave = 2 + (bucket - 4) / 4;
  const std::size_t sub = (bucket - 4) % 4;
  return (4ull + sub) << (octave - 2);
}

std::uint64_t histogramBucketUpperBound(std::size_t bucket) {
  if (bucket + 1 >= kHistogramBuckets) return ~0ull;
  return histogramBucketLowerBound(bucket + 1);
}

void Counter::add(std::uint64_t n) const {
  if (cells_ == nullptr) return;
  cells_->shards[currentMetricShard()].value.fetch_add(
      n, std::memory_order_relaxed);
}

void Gauge::add(std::int64_t delta) const {
  if (cells_ == nullptr) return;
  cells_->shards[currentMetricShard()].value.fetch_add(
      delta, std::memory_order_relaxed);
}

void Histogram::record(std::uint64_t value) const {
  if (cells_ == nullptr) return;
  const std::size_t shard = currentMetricShard();
  cells_->buckets[shard * kHistogramBuckets + histogramBucketIndex(value)]
      .fetch_add(1, std::memory_order_relaxed);
  cells_->sum[shard].value.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = cells_->minValue.load(std::memory_order_relaxed);
  while (value < seen && !cells_->minValue.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
  seen = cells_->maxValue.load(std::memory_order_relaxed);
  while (value > seen && !cells_->maxValue.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

void Histogram::recordSeconds(double seconds) const {
  if (seconds < 0.0) seconds = 0.0;
  record(static_cast<std::uint64_t>(std::llround(seconds * 1e9)));
}

double HistogramSnapshot::percentile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: the k-th smallest recorded value, 1-based.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    if (seen + buckets[b] >= rank) {
      const auto lo = static_cast<double>(histogramBucketLowerBound(b));
      // Interpolate within the bucket by the rank's position among the
      // bucket's own samples; clamp the top end to the observed max so a
      // p99 never exceeds the largest recorded value.
      double hi = static_cast<double>(histogramBucketUpperBound(b));
      hi = std::min(hi, static_cast<double>(max) + 1.0);
      const double frac = static_cast<double>(rank - seen) /
                          static_cast<double>(buckets[b]);
      return lo + (hi - lo) * frac;
    }
    seen += buckets[b];
  }
  return static_cast<double>(max);
}

std::uint64_t MetricsSnapshot::counterValue(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    std::string_view name) const {
  for (const auto& [n, v] : histograms) {
    if (n == name) return &v;
  }
  return nullptr;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter MetricsRegistry::counter(std::string_view name) {
  util::MutexLock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::make_unique<detail::CounterCells>())
             .first;
  }
  return Counter(it->second.get());
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  util::MutexLock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name), std::make_unique<detail::GaugeCells>())
             .first;
  }
  return Gauge(it->second.get());
}

Histogram MetricsRegistry::histogram(std::string_view name) {
  util::MutexLock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<detail::HistogramCells>())
             .first;
  }
  return Histogram(it->second.get());
}

namespace {

HistogramSnapshot mergeHistogram(const detail::HistogramCells& cells) {
  HistogramSnapshot snap;
  snap.buckets.assign(kHistogramBuckets, 0);
  for (std::size_t shard = 0; shard < kMetricShards; ++shard) {
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      snap.buckets[b] += cells.buckets[shard * kHistogramBuckets + b].load(
          std::memory_order_relaxed);
    }
    snap.sum += cells.sum[shard].value.load(std::memory_order_relaxed);
  }
  for (const std::uint64_t c : snap.buckets) snap.count += c;
  if (snap.count > 0) {
    snap.min = cells.minValue.load(std::memory_order_relaxed);
    snap.max = cells.maxValue.load(std::memory_order_relaxed);
  }
  return snap;
}

}  // namespace

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  util::MutexLock lock(mutex_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, cells] : counters_) {
    std::uint64_t total = 0;
    for (const auto& shard : cells->shards) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    snap.counters.emplace_back(name, total);
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, cells] : gauges_) {
    std::int64_t total = 0;
    for (const auto& shard : cells->shards) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    snap.gauges.emplace_back(name, total);
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, cells] : histograms_) {
    snap.histograms.emplace_back(name, mergeHistogram(*cells));
  }
  return snap;
}

HistogramSnapshot MetricsRegistry::histogramSnapshot(
    std::string_view name) const {
  util::MutexLock lock(mutex_);
  const auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    HistogramSnapshot empty;
    empty.buckets.assign(kHistogramBuckets, 0);
    return empty;
  }
  return mergeHistogram(*it->second);
}

void MetricsRegistry::reset() {
  util::MutexLock lock(mutex_);
  for (auto& [name, cells] : counters_) {
    for (auto& shard : cells->shards) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }
  for (auto& [name, cells] : gauges_) {
    for (auto& shard : cells->shards) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }
  for (auto& [name, cells] : histograms_) {
    for (auto& bucket : cells->buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
    for (auto& shard : cells->sum) {
      shard.value.store(0, std::memory_order_relaxed);
    }
    cells->minValue.store(~0ull, std::memory_order_relaxed);
    cells->maxValue.store(0, std::memory_order_relaxed);
  }
}

}  // namespace mimostat::obs
