#ifndef X100_COMMON_METRICS_H_
#define X100_COMMON_METRICS_H_

// Engine-wide metrics registry: named counters, gauges and log-bucketed
// histograms. The engine's subsystems (ColumnBM, joins, aggregation, dbgen)
// register what they observe here; benches and the EXPLAIN ANALYZE runner
// snapshot the registry and render it to JSON so every run leaves
// machine-readable evidence. Complements the trace tree (common/profiling.h),
// which traces one query's operators and primitives — the registry
// accumulates process-wide.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace x100 {

/// Monotonically increasing count. Relaxed atomics: per-event overhead is a
/// single uncontended RMW, cheap enough for per-vector (not per-tuple) use.
class Counter {
 public:
  void Add(uint64_t v) { v_.fetch_add(v, std::memory_order_relaxed); }
  void Inc() { Add(1); }
  uint64_t Get() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  double Get() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<double> v_{0};
};

/// Log2-bucketed histogram for non-negative integer observations (sizes,
/// durations). Bucket i counts values in [2^(i-1), 2^i); bucket 0 counts
/// zeros. 64 buckets cover the full uint64 range with ~2x resolution —
/// enough to tell "4K-row build side" from "4M-row build side" at a fixed
/// 64-word footprint.
class Histogram {
 public:
  static constexpr int kNumBuckets = 65;

  void Record(uint64_t v);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t Min() const;  // 0 if empty
  uint64_t Max() const { return max_.load(std::memory_order_relaxed); }
  double Mean() const;
  uint64_t BucketCount(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Upper bound of the bucket containing the p-th percentile (p in [0,100]).
  uint64_t ApproxPercentile(double p) const;
  void Reset();

  /// Inclusive upper bound of bucket i (0, 1, 3, 7, 15, ...).
  static uint64_t BucketUpperBound(int i);

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~uint64_t{0}};
  std::atomic<uint64_t> max_{0};
};

/// Point-in-time copy of the registry, decoupled from live updates.
struct MetricsSnapshot {
  struct HistogramRow {
    uint64_t count = 0, sum = 0, min = 0, max = 0;
    double mean = 0, p50 = 0, p99 = 0;
  };
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramRow> histograms;

  /// Renders {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string ToJson() const;
};

/// Process-wide named-metric registry. Get*() registers on first use and
/// returns a pointer that stays valid for the process lifetime, so hot paths
/// look up once (at Open/setup time) and bump through the pointer.
class MetricsRegistry {
 public:
  static MetricsRegistry& Get();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;
  std::string ToJson() const { return Snapshot().ToJson(); }

  /// Zeroes every registered metric (names stay registered). Benches call
  /// this between phases to attribute I/O and join activity to one section.
  void ResetAll();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;  // guards the maps, not the metric values
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace x100

#endif  // X100_COMMON_METRICS_H_
