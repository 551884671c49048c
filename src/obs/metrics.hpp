// Process-wide telemetry metrics — the always-on observability core
// (docs/OBSERVABILITY.md).
//
// Three metric kinds, all safe to update from any thread with no
// coordination beyond a relaxed atomic add:
//
//   Counter    monotonic event count (pool.chunks_claimed, cache.*.hits)
//   Gauge      point-in-time level (pool.threads, cache.*.current_bytes)
//   Histogram  log2-bucketed latency/size distribution (engine.epoch_ns)
//
// Hot-path cost model: a Counter::add is one relaxed fetch_add on a
// per-thread-shard cache line — no lock, no false sharing between the
// pool's workers. Registration (MetricsRegistry::counter("name")) takes a
// mutex and is meant to happen once, at construction or via a
// function-local static; hot loops hold the returned reference.
//
// Snapshot model: MetricsRegistry::snapshot() merges the shards of every
// registered metric into a MetricsSnapshot — plain maps, comparable and
// subtractable (delta_since) and serializable as JSON. Snapshots are
// consistent per metric, not across metrics (no stop-the-world).
//
// Objects with per-instance views (a cache's CacheStats, an engine's
// RecoveryStats, a stream's Epoch::stats) keep plain counts for the view
// and add the same events to the registry metrics they looked up at
// construction. A registry metric outlives every object that feeds it, so
// its totals never go backwards when an object is destroyed.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace tiv::obs {

/// Number of per-thread shards a Counter/Histogram spreads its updates
/// over. Threads hash to a shard by a stable per-thread ordinal, so up to
/// kShards threads update distinct cache lines.
inline constexpr std::size_t kShards = 16;

/// Stable per-thread shard index in [0, kShards).
inline std::uint32_t thread_shard() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

/// Monotonic event counter. Default-constructed at zero; add() is wait-free
/// and value() sums the shards (racing adds may or may not be included —
/// exact once updaters quiesce).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t delta) {
    cells_[thread_shard()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() { add(1); }

  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const auto& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, kShards> cells_;
};

/// Point-in-time level. set/add are relaxed atomics on one unsharded cell
/// — gauges are updated from slow paths (pool resize, a cache's tile
/// loads), not hot loops.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Raises the gauge to `v` if above the current value (high-water marks).
  void max_of(std::int64_t v) {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Merged view of one histogram: bucket b counts values in
/// [bucket_lower_bound(b), bucket_lower_bound(b + 1)).
struct HistogramSnapshot {
  /// Bucket count: value 0 -> bucket 0, otherwise bucket = bit_width(v)
  /// (so bucket b >= 1 spans [2^(b-1), 2^b)). 64-bit values need
  /// bit_width up to 64, hence 65 buckets.
  static constexpr std::size_t kBucketCount = 65;

  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kBucketCount> buckets{};

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Quantile estimate (q in [0, 1]) by linear interpolation within the
  /// containing log2 bucket.
  double quantile(double q) const;
};

/// Log2-bucket histogram for latencies (ns) and sizes (bytes). record() is
/// a bit_width plus two relaxed adds on the caller's shard.
class Histogram {
 public:
  static constexpr std::size_t kBucketCount = HistogramSnapshot::kBucketCount;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  static constexpr unsigned bucket_of(std::uint64_t v) {
    return static_cast<unsigned>(std::bit_width(v));  // 0 -> 0, else 1..64
  }
  /// Smallest value landing in bucket b (inclusive lower edge); the
  /// exclusive upper edge of the last bucket saturates to uint64 max.
  static constexpr std::uint64_t bucket_lower_bound(unsigned b) {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }

  void record(std::uint64_t v) {
    Cell& c = cells_[thread_shard()];
    c.count[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    c.sum.fetch_add(v, std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const;

 private:
  struct alignas(64) Cell {
    std::array<std::atomic<std::uint64_t>, kBucketCount> count{};
    std::atomic<std::uint64_t> sum{0};
  };
  std::array<Cell, kShards> cells_;
};

/// One merged snapshot of every registered metric. Plain data: compare,
/// subtract, serialize.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Counters/histograms as increments since `base` (names absent from
  /// base count from zero; regressions clamp at zero). Gauges stay
  /// point-in-time values.
  MetricsSnapshot delta_since(const MetricsSnapshot& base) const;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}
  /// with per-histogram count/sum/mean/p50/p90/p99 and its occupied log2
  /// buckets, keyed by inclusive lower bound ({"buckets":{"8":3,"64":1}}),
  /// which keeps a mostly-idle metric's delta line a few bytes.
  void write_json(std::ostream& out) const;
  /// The same fields without the surrounding braces, for embedding in a
  /// larger object (the JSONL reporter's per-line records).
  void write_json_fields(std::ostream& out) const;
};

/// The process-wide registry. Metrics are created on first lookup and live
/// for the process (stable addresses — hot paths cache the reference).
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  MetricsSnapshot snapshot() const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace tiv::obs
