// Telemetry layer (src/obs/): counter exactness under concurrent update,
// log2 histogram bucket boundaries, snapshot/delta semantics, the registry
// totals of objects that feed one prefix (two tile caches add up, a dead
// one's counts stay, its bytes leave), span-tracer ring wraparound and
// totals since a mark, and the pipeline contract — a ShardStreamEngine
// epoch records an "epoch" span that nests its epoch-screen / epoch-journal /
// tile-repack / band-pair-stream / sink-commit child phases with non-zero
// durations.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "matrix_test_utils.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "shard/tile_cache.hpp"
#include "shard/tile_file.hpp"
#include "shard/tile_store.hpp"
#include "stream/delay_stream.hpp"
#include "stream/shard_stream.hpp"
#include "util/parallel.hpp"

namespace tiv::obs {
namespace {

// --- Counter ----------------------------------------------------------------

TEST(ObsCounter, ConcurrentAddsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.increment();
    });
  }
  for (auto& t : threads) t.join();
  // Shards merge without loss once updaters quiesce.
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsGauge, SetAddMax) {
  Gauge g;
  g.set(10);
  EXPECT_EQ(g.value(), 10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.max_of(5);  // below current: no-op
  EXPECT_EQ(g.value(), 7);
  g.max_of(19);
  EXPECT_EQ(g.value(), 19);
}

// --- Histogram --------------------------------------------------------------

TEST(ObsHistogram, BucketBoundaries) {
  // bucket 0 holds only 0; bucket b >= 1 spans [2^(b-1), 2^b).
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Histogram::bucket_of(8), 4u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64u);

  EXPECT_EQ(Histogram::bucket_lower_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_lower_bound(1), 1u);
  EXPECT_EQ(Histogram::bucket_lower_bound(2), 2u);
  EXPECT_EQ(Histogram::bucket_lower_bound(3), 4u);
  EXPECT_EQ(Histogram::bucket_lower_bound(64), std::uint64_t{1} << 63);

  Histogram h;
  for (const std::uint64_t v : {0, 1, 2, 3, 4, 7, 8}) h.record(v);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 7u);
  EXPECT_EQ(s.sum, 25u);
  EXPECT_EQ(s.buckets[0], 1u);  // {0}
  EXPECT_EQ(s.buckets[1], 1u);  // {1}
  EXPECT_EQ(s.buckets[2], 2u);  // {2, 3}
  EXPECT_EQ(s.buckets[3], 2u);  // {4, 7}
  EXPECT_EQ(s.buckets[4], 1u);  // {8}
}

TEST(ObsHistogram, ConcurrentRecordsAreExact) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) h.record(i % 7);
    });
  }
  for (auto& t : threads) t.join();
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  std::uint64_t per_thread_sum = 0;
  for (std::uint64_t i = 0; i < kPerThread; ++i) per_thread_sum += i % 7;
  EXPECT_EQ(s.sum, kThreads * per_thread_sum);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
}

TEST(ObsHistogram, QuantileStaysInBucket) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(5);  // all in bucket [4, 8)
  const HistogramSnapshot s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_GE(s.quantile(q), 4.0);
    EXPECT_LE(s.quantile(q), 8.0);
  }
  EXPECT_EQ(HistogramSnapshot{}.quantile(0.5), 0.0);
}

// --- Snapshot / delta -------------------------------------------------------

TEST(ObsSnapshot, DeltaCountsIncrementsGaugesStayLevels) {
  auto& reg = MetricsRegistry::instance();
  Counter& c = reg.counter("test.delta.counter");
  Gauge& g = reg.gauge("test.delta.gauge");
  Histogram& h = reg.histogram("test.delta.hist");

  c.add(5);
  g.set(42);
  h.record(100);
  const MetricsSnapshot base = reg.snapshot();
  ASSERT_EQ(base.counters.at("test.delta.counter"), 5u);
  ASSERT_EQ(base.gauges.at("test.delta.gauge"), 42);
  ASSERT_EQ(base.histograms.at("test.delta.hist").count, 1u);

  c.add(7);
  g.set(17);
  h.record(200);
  h.record(300);
  const MetricsSnapshot delta = reg.snapshot().delta_since(base);
  EXPECT_EQ(delta.counters.at("test.delta.counter"), 7u);
  EXPECT_EQ(delta.gauges.at("test.delta.gauge"), 17);  // point-in-time
  EXPECT_EQ(delta.histograms.at("test.delta.hist").count, 2u);
  EXPECT_EQ(delta.histograms.at("test.delta.hist").sum, 500u);
}

TEST(ObsSnapshot, DeltaClampsRegressionsAtZero) {
  // Synthesized snapshots: a counter that "went backwards" (an unlinked
  // non-retained source) must not produce a wrapped-around delta.
  MetricsSnapshot base;
  base.counters["x"] = 10;
  MetricsSnapshot cur;
  cur.counters["x"] = 4;
  EXPECT_EQ(cur.delta_since(base).counters.at("x"), 0u);
}

TEST(ObsSnapshot, JsonHasAllSections) {
  auto& reg = MetricsRegistry::instance();
  reg.counter("test.json.counter").add(3);
  reg.gauge("test.json.gauge").set(-2);
  reg.histogram("test.json.hist").record(9);
  std::ostringstream out;
  reg.snapshot().write_json(out);
  const std::string j = out.str();
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"test.json.counter\":3"), std::string::npos);
  EXPECT_NE(j.find("\"test.json.gauge\":-2"), std::string::npos);
  EXPECT_NE(j.find("\"test.json.hist\""), std::string::npos);
  EXPECT_NE(j.find("\"p99\""), std::string::npos);
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
}

// --- Registry totals of instance-owned counts --------------------------------

std::string scratch_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("tiv_test_obs_" + tag + "_" +
           std::to_string(
               ::testing::UnitTest::GetInstance()->random_seed()) +
           ".tiles"))
      .string();
}

TEST(ObsRegistryTotals, TileCachesUnderOnePrefixAddUpAndOutliveTheirCaches) {
  // Two caches over one input file report under one prefix: the registry's
  // counters and current_bytes are their sums, peak_bytes the larger
  // cache's peak. A destroyed cache's counts stay in the totals; its bytes
  // leave current_bytes. Counters are compared as deltas over the test, so
  // earlier use of the prefix in the process does not show.
  const std::string path = scratch_path("cache_pair");
  shard::write_matrix(path, tiv::test::random_matrix(64, 0.1, 78), 16);
  const shard::TileFile file = shard::TileFile::open(shard::kInputFormat, path);
  const std::size_t tile = file.tile_bytes();
  const char* prefix = "test.cache_pair";
  auto& reg = MetricsRegistry::instance();
  const MetricsSnapshot base = reg.snapshot();
  const auto counter = [&](const char* name) {
    return reg.snapshot().delta_since(base).counters.at(std::string(prefix) +
                                                        "." + name);
  };
  const auto gauge = [&](const char* name) {
    return reg.snapshot().gauges.at(std::string(prefix) + "." + name);
  };
  const auto expect_sums = [&](const shard::CacheStats& a,
                               const shard::CacheStats& b) {
    EXPECT_EQ(counter("hits"), a.hits + b.hits);
    EXPECT_EQ(counter("misses"), a.misses + b.misses);
    EXPECT_EQ(counter("evictions"), a.evictions + b.evictions);
    EXPECT_EQ(counter("invalidations"), a.invalidations + b.invalidations);
    EXPECT_EQ(counter("slot_allocs"), a.slot_allocs + b.slot_allocs);
  };

  shard::CacheStats small_final;
  {
    shard::TileCache big(file, 6 * tile, prefix);
    {
      shard::TileCache small(file, 2 * tile, prefix);
      for (std::uint32_t r = 0; r < 4; ++r) {
        for (std::uint32_t c = 0; c < 4; ++c) {
          small.acquire(r, c);
          if (c < 2) big.acquire(r, c);
        }
      }
      big.acquire(3, 0);
      big.invalidate(3, 1);
      const shard::CacheStats s = small.stats();
      const shard::CacheStats b = big.stats();
      EXPECT_GT(s.evictions, 0u);
      EXPECT_GT(b.hits, 0u);
      expect_sums(s, b);
      EXPECT_EQ(static_cast<std::size_t>(gauge("current_bytes")),
                s.current_bytes + b.current_bytes);
      ASSERT_GT(b.peak_bytes, s.peak_bytes);
      EXPECT_EQ(static_cast<std::size_t>(gauge("peak_bytes")), b.peak_bytes);
      small_final = s;
    }
    const shard::CacheStats b = big.stats();
    expect_sums(small_final, b);
    EXPECT_EQ(static_cast<std::size_t>(gauge("current_bytes")),
              b.current_bytes);
    EXPECT_EQ(static_cast<std::size_t>(gauge("peak_bytes")), b.peak_bytes);
    EXPECT_EQ(b.current_bytes, 5 * tile);
  }
  EXPECT_EQ(gauge("current_bytes"), 0);
  EXPECT_EQ(static_cast<std::size_t>(gauge("peak_bytes")), 6 * tile);
  std::filesystem::remove(path);
}

// --- SpanTracer -------------------------------------------------------------

/// One span as write_chrome_trace renders it, read back to nanoseconds.
struct TracedSpan {
  std::string name;
  std::uint32_t tid = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// Reads the microsecond value after `key` (three decimals) as ns.
std::uint64_t read_us_as_ns(const std::string& j, std::size_t& pos,
                            std::string_view key) {
  pos = j.find(key, pos) + key.size();
  char* end = nullptr;
  const std::uint64_t whole = std::strtoull(j.c_str() + pos, &end, 10);
  EXPECT_EQ(*end, '.');
  const std::uint64_t frac = std::strtoull(end + 1, &end, 10);
  pos = static_cast<std::size_t>(end - j.c_str());
  return whole * 1000 + frac;
}

/// The tracer's retained spans, in write_chrome_trace order.
std::vector<TracedSpan> read_chrome_trace(const SpanTracer& t) {
  std::ostringstream out;
  t.write_chrome_trace(out);
  const std::string j = out.str();
  constexpr std::string_view kOpen = "{\"name\":\"";
  std::vector<TracedSpan> spans;
  for (std::size_t pos = j.find(kOpen); pos != std::string::npos;
       pos = j.find(kOpen, pos)) {
    TracedSpan s;
    pos += kOpen.size();
    const std::size_t name_end = j.find('"', pos);
    s.name = j.substr(pos, name_end - pos);
    pos = j.find("\"tid\":", name_end) + 6;
    s.tid = static_cast<std::uint32_t>(
        std::strtoul(j.c_str() + pos, nullptr, 10));
    s.start_ns = read_us_as_ns(j, pos, "\"ts\":");
    s.dur_ns = read_us_as_ns(j, pos, "\"dur\":");
    spans.push_back(s);
  }
  return spans;
}

TEST(ObsSpanTracer, RingWraparoundKeepsNewestOldestFirst) {
  SpanTracer t(8);
  EXPECT_EQ(t.capacity(), 8u);
  for (std::uint64_t i = 0; i < 20; ++i) t.record("w", i, i + 1);
  EXPECT_EQ(t.recorded(), 20u);
  EXPECT_EQ(t.dropped(), 12u);
  EXPECT_EQ(t.count("w"), 8u);
  const std::vector<TracedSpan> evs = read_chrome_trace(t);
  ASSERT_EQ(evs.size(), 8u);
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].start_ns, 12 + i);  // spans 12..19 survive, oldest first
    EXPECT_EQ(evs[i].dur_ns, 1u);
  }
  t.clear();
  EXPECT_EQ(t.recorded(), 0u);
  EXPECT_EQ(t.count("w"), 0u);
  EXPECT_TRUE(read_chrome_trace(t).empty());
}

TEST(ObsSpanTracer, CapacityRoundsUpToPowerOfTwo) {
  SpanTracer t(5);
  EXPECT_EQ(t.capacity(), 8u);
}

TEST(ObsSpanTracer, TotalsAndCountsByName) {
  SpanTracer t(16);
  t.record("alpha", 100, 350);
  t.record("beta", 400, 500);
  t.record("alpha", 600, 610);
  EXPECT_EQ(t.total_ns("alpha"), 260u);
  EXPECT_EQ(t.total_ns("beta"), 100u);
  EXPECT_EQ(t.count("alpha"), 2u);
  EXPECT_EQ(t.count("gamma"), 0u);
}

TEST(ObsSpanTracer, TotalsSinceAMark) {
  SpanTracer t(8);
  for (std::uint64_t i = 0; i < 5; ++i) t.record("old", 0, 1);
  const std::uint64_t before_wrap = t.recorded();  // 5
  t.record("a", 0, 100);
  t.record("b", 0, 1000);
  t.record("a", 0, 100);
  EXPECT_EQ(t.total_ns("a", before_wrap), 200u);
  EXPECT_EQ(t.count("a", before_wrap), 2u);
  EXPECT_EQ(t.total_ns("b", before_wrap), 1000u);
  EXPECT_EQ(t.count("old", before_wrap), 0u);

  // Four more spans wrap the ring over spans 0..3; the mark's spans
  // (5 onward) are all still retained, so its sums stay exact.
  for (int i = 0; i < 4; ++i) t.record("a", 0, 7);
  ASSERT_EQ(t.dropped(), 4u);
  EXPECT_EQ(t.total_ns("a", before_wrap), 228u);
  EXPECT_EQ(t.count("a", before_wrap), 6u);
  EXPECT_EQ(t.total_ns("a", t.recorded()), 0u);  // empty window

  // A mark taken after the wrap sees only what follows it.
  const std::uint64_t after_wrap = t.recorded();  // 12
  for (int i = 0; i < 3; ++i) t.record("b", 10, 13);
  EXPECT_EQ(t.total_ns("b", after_wrap), 9u);
  EXPECT_EQ(t.count("b", after_wrap), 3u);
  EXPECT_EQ(t.count("a", after_wrap), 0u);

  // Spans 0..6 are overwritten now: older marks throw.
  EXPECT_THROW(t.total_ns("a", before_wrap), std::out_of_range);
  EXPECT_THROW(t.count("a", before_wrap), std::out_of_range);
  EXPECT_THROW(t.total_ns("a", 0), std::out_of_range);
  EXPECT_EQ(t.count("a", t.dropped()), 5u);  // the oldest retained mark

  // The one-argument forms keep summing the retained spans (7..14).
  EXPECT_EQ(t.total_ns("a"), 128u);
  EXPECT_EQ(t.count("a"), 5u);
  EXPECT_EQ(t.total_ns("b"), 9u);  // span 6's 1000 ns was overwritten
  EXPECT_EQ(t.count("b"), 3u);
  EXPECT_EQ(t.count("old"), 0u);
}

TEST(ObsSpanTracer, DetachedSpanIsNoOp) {
  ASSERT_EQ(SpanTracer::current(), nullptr);
  { Span s("nobody-listening"); }  // must not crash or allocate a tracer
  EXPECT_EQ(SpanTracer::current(), nullptr);
}

TEST(ObsSpanTracer, AttachedSpanRecordsAndDetachesOnDestruction) {
  {
    SpanTracer t(16);
    SpanTracer::attach(&t);
    { Span s("attached-phase"); }
    EXPECT_EQ(t.count("attached-phase"), 1u);
  }  // tracer destructor self-detaches
  EXPECT_EQ(SpanTracer::current(), nullptr);
}

TEST(ObsSpanTracer, ChromeTraceJsonShape) {
  SpanTracer t(16);
  t.record("phase-a", 1000, 3000);
  t.record("phase-b", 4000, 9000);
  std::ostringstream out;
  t.write_chrome_trace(out);
  const std::string j = out.str();
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"phase-a\""), std::string::npos);
  // Timestamps and durations are microseconds: 1000 ns -> 1 us, 2000 -> 2.
  EXPECT_NE(j.find("\"ts\":1.000,\"dur\":2.000"), std::string::npos) << j;
  EXPECT_EQ(j.front(), '{');
}

TEST(ObsSpanTracer, ChromeTraceKeepsNanosecondsPastOneSecond) {
  SpanTracer t(4);
  t.record("late", 1'234'567'891, 1'234'567'999);
  std::ostringstream out;
  t.write_chrome_trace(out);
  EXPECT_NE(out.str().find("\"ts\":1234567.891,\"dur\":0.108"),
            std::string::npos)
      << out.str();
}

// --- Pipeline span nesting --------------------------------------------------

TEST(ObsPipeline, EngineEpochSpanNestsItsPhases) {
  set_parallel_thread_count(2);
  SpanTracer tracer(1 << 10);
  SpanTracer::attach(&tracer);

  stream::DelayStream ds(tiv::test::random_matrix(24, 0.2, 77));
  stream::ShardStreamConfig cfg;
  cfg.tile_dim = 16;
  cfg.input_path = scratch_path("nest_in");
  cfg.sink_path = scratch_path("nest_out");
  stream::ShardStreamEngine engine(ds.matrix(), cfg);
  // The initial build records band-pair-stream spans of its own; start the
  // epoch-nesting check from a clean ring.
  tracer.clear();

  const std::vector<stream::DelaySample> batch = {{0, 1, 50.0f, 0.0},
                                                  {2, 19, 60.0f, 0.0}};
  ds.ingest(std::span<const stream::DelaySample>(batch));
  const stream::Epoch epoch = ds.commit_epoch();
  ASSERT_FALSE(epoch.dirty_hosts.empty());
  engine.apply_epoch(ds.matrix(), epoch.dirty_hosts);
  SpanTracer::attach(nullptr);

  const std::vector<TracedSpan> evs = read_chrome_trace(tracer);
  const TracedSpan* epoch_ev = nullptr;
  for (const TracedSpan& e : evs) {
    if (e.name == "epoch") epoch_ev = &e;
  }
  ASSERT_NE(epoch_ev, nullptr);
  EXPECT_GT(epoch_ev->dur_ns, 0u);

  EXPECT_EQ(tracer.count("ingest"), 1u);  // the one batch ingested above
  EXPECT_EQ(tracer.count("epoch-screen"), 1u);
  EXPECT_EQ(tracer.count("epoch-journal"), 1u);
  EXPECT_GE(tracer.count("tile-repack"), 1u);
  EXPECT_GE(tracer.count("band-pair-stream"), 1u);
  EXPECT_GE(tracer.count("sink-commit"), 1u);

  // RAII containment: every child phase ran on the epoch's thread, inside
  // the epoch span's [start, start + dur] window, and took measurable time.
  const std::uint64_t epoch_end = epoch_ev->start_ns + epoch_ev->dur_ns;
  const TracedSpan* band_ev = nullptr;
  for (const TracedSpan& e : evs) {
    const std::string_view name(e.name);
    if (name == "band-pair-stream") band_ev = &e;
    if (name != "epoch-screen" && name != "epoch-journal" &&
        name != "tile-repack" && name != "band-pair-stream" &&
        name != "sink-commit") {
      continue;
    }
    EXPECT_EQ(e.tid, epoch_ev->tid) << name;
    EXPECT_GE(e.start_ns, epoch_ev->start_ns) << name;
    EXPECT_LE(e.start_ns + e.dur_ns, epoch_end) << name;
    EXPECT_GT(e.dur_ns, 0u) << name;
  }
  // The repair pass's two phases nest inside its band-pair-stream span.
  ASSERT_NE(band_ev, nullptr);
  const std::uint64_t band_end = band_ev->start_ns + band_ev->dur_ns;
  for (const char* phase : {"edge-repair", "sink-merge"}) {
    std::size_t seen = 0;
    for (const TracedSpan& e : evs) {
      if (e.name != phase) continue;
      ++seen;
      EXPECT_EQ(e.tid, band_ev->tid) << phase;
      EXPECT_GE(e.start_ns, band_ev->start_ns) << phase;
      EXPECT_LE(e.start_ns + e.dur_ns, band_end) << phase;
    }
    EXPECT_EQ(seen, 1u) << phase;
  }
  set_parallel_thread_count(0);
}

// --- Histogram JSON buckets --------------------------------------------------

TEST(ObsSnapshot, SparseBucketsSkipEmptyAndKeyByLowerBound) {
  MetricsSnapshot s;
  auto& h = s.histograms["h"];
  h.count = 3;
  h.sum = 18;
  h.buckets[0] = 1;  // value 0
  h.buckets[4] = 2;  // values in [8, 16)
  std::ostringstream out;
  s.write_json(out);
  // Only the two occupied buckets appear, keyed by inclusive lower bound.
  EXPECT_NE(out.str().find("\"buckets\":{\"0\":1,\"8\":2}"),
            std::string::npos)
      << out.str();
}

}  // namespace
}  // namespace tiv::obs
