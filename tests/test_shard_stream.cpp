// Out-of-core live pipeline (core/shard_severity + stream/shard_stream):
// the severity tile sink round-trips (its corruption and read-only cases
// run on both formats in test_tile_store), the sink-fed
// streaming driver matches the in-memory kernel bit for bit, and the tile
// store's own side of the live engine (its bit-identity cases shared with
// the in-memory store run in test_stream_engine's LiveEngine suite): the
// caches stay within budget over randomized epochs, tile slots are
// recycled, every per-instance view equals its registry delta over a rot
// soak, and the epoch repair pass's edges — dirty hosts packed into
// one band or spread over adjacent ones, ragged last bands, dirty-dirty
// edges that lose their measurement, host groups forced by a small
// budget, pool widths, the screen as the epoch's only input reader, and
// input corruption — and the screened repair's: multi-edge epochs against
// a rebuild and against an unscreened sink, a heal during the screen, and
// the narrowed sink-cache invalidation. Every engine is checked against a
// from-scratch all_severities (tests/engine_harness.hpp).
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/epoch_screen.hpp"
#include "core/severity.hpp"
#include "core/shard_severity.hpp"
#include "engine_harness.hpp"
#include "matrix_test_utils.hpp"
#include "obs/metrics.hpp"
#include "reference/oracles.hpp"
#include "shard/checksum.hpp"
#include "shard/fault_injector.hpp"
#include "shard/tile_cache.hpp"
#include "shard/tile_file.hpp"
#include "shard/tile_store.hpp"
#include "stream/delay_stream.hpp"
#include "stream/epoch_manifest.hpp"
#include "stream/shard_stream.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace tiv::stream {
namespace {

using core::SeverityMatrix;
using core::TivAnalyzer;
using delayspace::DelayMatrix;
using delayspace::HostId;
using shard::kInputFormat;
using shard::kSinkFormat;
using shard::TileCache;
using shard::TileFile;

using tiv::test::engine_matches;
using tiv::test::file_bytes;
using tiv::test::random_matrix;

std::string scratch_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("tiv_test_sink_" + tag + "_" +
           std::to_string(
               ::testing::UnitTest::GetInstance()->random_seed()) +
           ".tiles"))
      .string();
}

/// Flips one byte at `offset` (from the end when negative) of `path`.
void corrupt_byte_at(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, offset < 0 ? SEEK_END : SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
  std::fputc(c ^ 0x5a, f);
  std::fclose(f);
}

// --- Severity sink file -----------------------------------------------------

TEST(SinkTileFile, CreateReopenRoundTrip) {
  const std::string path = scratch_path("roundtrip");
  // 37 = 2*16 + 5: ragged last band.
  shard::create_sink(path, 37, 16);
  std::vector<float> tile(16 * 16);
  {
    auto store = TileFile::open(kSinkFormat, path, /*writable=*/true);
    EXPECT_EQ(store.size(), 37u);
    EXPECT_EQ(store.tiles_per_side(), 3u);
    EXPECT_EQ(store.tile_count(), 6u);
    EXPECT_EQ(store.band_rows(0), 16u);
    EXPECT_EQ(store.band_rows(2), 5u);
    EXPECT_EQ(store.tile_index(0, 0), 0u);
    EXPECT_EQ(store.tile_index(0, 2), 2u);
    EXPECT_EQ(store.tile_index(1, 1), 3u);
    EXPECT_EQ(store.tile_index(2, 2), 5u);

    store.read_tile(1, 2, tile.data());  // fresh stores are all zero
    for (const float v : tile) EXPECT_EQ(v, 0.0f);

    for (std::size_t i = 0; i < tile.size(); ++i) {
      tile[i] = static_cast<float>(i) * 0.25f;
    }
    store.write_tile(1, 2, tile.data());
  }  // closed
  {
    const auto store = TileFile::open(kSinkFormat, path);
    std::vector<float> got(16 * 16);
    store.read_tile(1, 2, got.data());
    EXPECT_EQ(got, tile);  // survives reopen-after-close, checksum included
    store.read_tile(0, 1, got.data());
    for (const float v : got) EXPECT_EQ(v, 0.0f);
  }
  std::filesystem::remove(path);
}

// --- Sink-fed streaming driver ---------------------------------------------

/// Full sink build of `m` through an input cache of `budget_bytes`, read
/// back bit for bit against the in-memory kernel. Budgets here always
/// dominate the pinned working set, so the cache's accounting invariant
/// tightens to peak_bytes <= budget.
void expect_sink_build_matches_in_memory(
    const DelayMatrix& m, std::uint32_t tile_dim,
    std::size_t budget_bytes = std::size_t{1} << 22,
    bool expect_evictions = false) {
  const std::string in_path = scratch_path(
      "sinkbuild_in_n" + std::to_string(m.size()) + "_t" +
      std::to_string(tile_dim));
  const std::string out_path = scratch_path(
      "sinkbuild_out_n" + std::to_string(m.size()) + "_t" +
      std::to_string(tile_dim));
  shard::write_matrix(in_path, m, tile_dim);
  const auto store = TileFile::open(kInputFormat, in_path);
  TileCache cache(store, budget_bytes, "cache.input");
  shard::create_sink(out_path, m.size(), tile_dim);
  auto sink = TileFile::open(kSinkFormat, out_path, /*writable=*/true);
  core::all_severities_to_sink(cache, sink);

  const auto stats = cache.stats();
  EXPECT_GT(stats.misses, 0u);
  EXPECT_LE(stats.peak_bytes, budget_bytes);
  if (expect_evictions) {
    EXPECT_GT(stats.evictions, 0u);
  }

  const SeverityMatrix want = TivAnalyzer(m).all_severities();
  TileCache reader(sink, std::size_t{1} << 22, "cache.sink");
  const HostId n = m.size();
  std::vector<float> row(n);
  for (HostId a = 0; a < n; ++a) {
    core::sink_severity_row(reader, a, row);
    for (HostId b = 0; b < n; ++b) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(row[b]),
                std::bit_cast<std::uint32_t>(want.at(a, b)))
          << "(" << a << ", " << b << ")";
      // Point reads agree with row reads (they address the same tiles).
      ASSERT_EQ(core::sink_severity(reader, a, b), row[b]);
    }
  }
  // The whole-matrix read, over a cold cache of its own.
  TileCache scan_reader(sink, std::size_t{1} << 22, "cache.sink");
  SeverityMatrix got(n);
  core::sink_severities(scan_reader, got);
  for (HostId a = 0; a < n; ++a) {
    for (HostId b = 0; b < n; ++b) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(got.at(a, b)),
                std::bit_cast<std::uint32_t>(want.at(a, b)))
          << "scan (" << a << ", " << b << ")";
    }
  }
  // One load per upper-triangle tile, none twice.
  const std::size_t bands = sink.tiles_per_side();
  EXPECT_EQ(scan_reader.stats().misses, bands * (bands + 1) / 2);
  EXPECT_EQ(scan_reader.stats().hits, 0u);
  std::filesystem::remove(in_path);
  std::filesystem::remove(out_path);
}

TEST(SinkSeverity, FullBuildMatchesInMemoryDense) {
  expect_sink_build_matches_in_memory(random_matrix(96, 0.0, 31), 32);
}

TEST(SinkSeverity, FullBuildMatchesInMemoryMissingAndRagged) {
  expect_sink_build_matches_in_memory(random_matrix(96, 0.3, 12), 32);
  expect_sink_build_matches_in_memory(random_matrix(37, 0.3, 32), 16);
  expect_sink_build_matches_in_memory(random_matrix(70, 0.9, 33), 16);
}

TEST(SinkSeverity, TileSizeNotDividingN) {
  // 133 = 8*16 + 5 = 2*48 + 37: a ragged last band in both grids.
  expect_sink_build_matches_in_memory(random_matrix(133, 0.3, 13), 16);
  expect_sink_build_matches_in_memory(random_matrix(133, 0.2, 14), 48);
}

TEST(SinkSeverity, TinyBudgetForcesEvictionAndStaysWithinIt) {
  // 8x8 bands of 16-wide tiles; a budget of 8 tiles cannot hold the 36
  // upper-triangle band pairs' worth of working set, so the LRU must evict
  // — and the accounting must keep peak bytes within the budget. Two
  // workers pin at most 3 tiles each, inside the 8.
  set_parallel_thread_count(2);
  expect_sink_build_matches_in_memory(random_matrix(128, 0.1, 15), 16,
                                      8 * shard::tile_size_bytes(16), true);
  set_parallel_thread_count(0);
}

TEST(SinkSeverity, TileReadFailurePropagatesAsException) {
  // Tile I/O runs on pool workers, where an escaped exception would
  // terminate the process; the band-pair driver must capture it and
  // rethrow on the calling thread as a catchable error.
  set_parallel_thread_count(2);
  const DelayMatrix m = random_matrix(96, 0.1, 20);
  const std::string in_path = scratch_path("truncated_in");
  const std::string out_path = scratch_path("truncated_out");
  shard::write_matrix(in_path, m, 16);
  const auto store = TileFile::open(kInputFormat, in_path);
  std::filesystem::resize_file(in_path, 512);  // header survives, tiles gone
  TileCache cache(store, std::size_t{1} << 20, "cache.input");
  shard::create_sink(out_path, m.size(), 16);
  auto sink = TileFile::open(kSinkFormat, out_path, /*writable=*/true);
  EXPECT_THROW(core::all_severities_to_sink(cache, sink), std::runtime_error);
  std::filesystem::remove(in_path);
  std::filesystem::remove(out_path);
  set_parallel_thread_count(0);
}

TEST(SinkSeverity, GeometryMismatchRejected) {
  const DelayMatrix m = random_matrix(32, 0.1, 34);
  const std::string in_path = scratch_path("geom_in");
  const std::string out_path = scratch_path("geom_out");
  shard::write_matrix(in_path, m, 16);
  const auto store = TileFile::open(kInputFormat, in_path);
  TileCache cache(store, std::size_t{1} << 20, "cache.input");
  shard::create_sink(out_path, 48, 16);  // wrong n
  auto sink = TileFile::open(kSinkFormat, out_path, /*writable=*/true);
  EXPECT_THROW(core::all_severities_to_sink(cache, sink),
               std::invalid_argument);
  // The writable flag matters too.
  auto sink_ro = TileFile::open(kSinkFormat, out_path);
  EXPECT_THROW(core::repair_severities_to_sink(m, sink_ro, std::size_t{1} << 20,
                                               std::vector<HostId>{1},
                                               core::EpochEdges{}),
               std::invalid_argument);
  std::filesystem::remove(in_path);
  std::filesystem::remove(out_path);
}

// --- ShardStreamEngine --------------------------------------------------------

TEST(ShardStreamEngine, CachesStayWithinBudgetsOverRandomEpochs) {
  // Randomized epochs under tight-but-sane budgets — a handful of tiles
  // each, far below the tile grids, above the 2-thread pinned working set
  // (3*2 tiles in, one per worker out): the engine stays bit-identical and
  // its tracked working set within the configured budgets (the readback
  // loops pin one tile at a time; the band-pair drivers pin a handful per
  // worker — both dominated by these budgets).
  set_parallel_thread_count(2);
  for (const HostId n : {7u, 70u}) {
    DelayStream stream(random_matrix(n, 0.3, 40 + n));
    ShardStreamConfig cfg;
    cfg.tile_dim = 16;
    cfg.input_path = scratch_path("budget_in_n" + std::to_string(n));
    cfg.sink_path = scratch_path("budget_out_n" + std::to_string(n));
    const std::size_t tile_bytes = shard::tile_size_bytes(16);
    cfg.input_budget_bytes = 10 * tile_bytes;
    cfg.output_budget_bytes = 4 * tile_bytes;
    ShardStreamEngine engine(stream.matrix(), cfg);
    test::expect_epochs_match(engine, stream, test::random_epochs(n, n, 4),
                              /*screened=*/true,
                              "budget n=" + std::to_string(n));
    EXPECT_LE(engine.input_cache_stats().peak_bytes, cfg.input_budget_bytes);
    EXPECT_LE(engine.output_cache_stats().peak_bytes,
              cfg.output_budget_bytes);
  }
  set_parallel_thread_count(0);
}

TEST(ShardStreamEngine, TileSlotPoolsStopGrowingAfterWarmup) {
  // Both caches recycle evicted and invalidated tile slots, so once the
  // first epochs have filled them to budget, further epochs and reads
  // allocate no tile memory — what keeps a long-running monitor's RSS
  // flat (shard/tile_cache.hpp).
  set_parallel_thread_count(2);
  const HostId n = 96;
  const std::uint32_t tile_dim = 16;
  DelayStream stream(random_matrix(n, 0.2, 71));
  ShardStreamConfig cfg;
  cfg.tile_dim = tile_dim;
  cfg.input_path = scratch_path("slots_in");
  cfg.sink_path = scratch_path("slots_out");
  const std::size_t tile_bytes = shard::tile_size_bytes(tile_dim);
  cfg.input_budget_bytes = 10 * tile_bytes;  // of 36 input tiles
  cfg.output_budget_bytes = 4 * tile_bytes;  // of 21 sink tiles
  ShardStreamEngine engine(stream.matrix(), cfg);

  Rng rng(72);
  std::vector<float> row(n);
  double t = 0.0;
  auto run_epochs = [&](int epochs) {
    for (int e = 0; e < epochs; ++e, t += 1.0) {
      for (int u = 0; u < 8; ++u) {
        const auto a = static_cast<HostId>(rng.uniform_index(n));
        const auto b = static_cast<HostId>(rng.uniform_index(n));
        if (a == b) continue;
        test::ingest_one(
            stream, {a, b, static_cast<float>(rng.uniform(1.0, 400.0)), t});
      }
      const Epoch epoch = stream.commit_epoch();
      engine.apply_epoch(stream.matrix(), epoch.dirty_hosts);
      for (HostId a = 0; a < n; a += 7) engine.severity_row(a, row);
    }
  };
  run_epochs(3);
  const auto in_warm = engine.input_cache_stats();
  const auto out_warm = engine.output_cache_stats();
  EXPECT_LE(in_warm.slot_allocs, 10u);
  EXPECT_LE(out_warm.slot_allocs, 4u);

  run_epochs(10);
  const auto in_stats = engine.input_cache_stats();
  const auto out_stats = engine.output_cache_stats();
  EXPECT_EQ(in_stats.slot_allocs, in_warm.slot_allocs);
  EXPECT_EQ(out_stats.slot_allocs, out_warm.slot_allocs);
  // The loads kept coming; they were served from recycled slots.
  EXPECT_GT(in_stats.misses, in_warm.misses);
  EXPECT_GT(out_stats.misses, out_warm.misses);
  set_parallel_thread_count(0);
}

TEST(ShardStreamEngine, InputCacheCountsAreDeterministicOnOneThread) {
  // Input tiles are read only on demand, by the thread that acquires them:
  // on one thread, two engines replaying the same epochs under a budget
  // that forces eviction see the same hits, misses and evictions.
  set_parallel_thread_count(1);
  const HostId n = 96;
  const std::uint32_t tile_dim = 16;
  DelayStream stream(random_matrix(n, 0.2, 73));
  const auto make_config = [&](const std::string& tag) {
    ShardStreamConfig cfg;
    cfg.tile_dim = tile_dim;
    cfg.input_path = scratch_path(tag + "_in");
    cfg.sink_path = scratch_path(tag + "_out");
    cfg.input_budget_bytes = 6 * shard::tile_size_bytes(tile_dim);
    return cfg;
  };
  ShardStreamEngine a(stream.matrix(), make_config("det_a"));
  ShardStreamEngine b(stream.matrix(), make_config("det_b"));

  Rng rng(74);
  for (int e = 0; e < 6; ++e) {
    for (int u = 0; u < 12; ++u) {
      const auto x = static_cast<HostId>(rng.uniform_index(n));
      const auto y = static_cast<HostId>(rng.uniform_index(n));
      if (x == y) continue;
      test::ingest_one(stream, {x, y,
                                static_cast<float>(rng.uniform(1.0, 400.0)),
                                double(e)});
    }
    const Epoch epoch = stream.commit_epoch();
    a.apply_epoch(stream.matrix(), epoch.dirty_hosts);
    b.apply_epoch(stream.matrix(), epoch.dirty_hosts);
    const auto sa = a.input_cache_stats();
    const auto sb = b.input_cache_stats();
    EXPECT_EQ(sa.hits, sb.hits) << "epoch " << e;
    EXPECT_EQ(sa.misses, sb.misses) << "epoch " << e;
    EXPECT_EQ(sa.evictions, sb.evictions) << "epoch " << e;
  }
  EXPECT_GT(a.input_cache_stats().evictions, 0u);
  set_parallel_thread_count(0);
}

TEST(ShardStreamEngine, RemovesSpillFilesOnDestruction) {
  const std::string in_path = scratch_path("cleanup_in");
  const std::string out_path = scratch_path("cleanup_out");
  {
    ShardStreamConfig cfg;
    cfg.tile_dim = 16;
    cfg.input_path = in_path;
    cfg.sink_path = out_path;
    ShardStreamEngine engine(random_matrix(20, 0.1, 52), cfg);
    EXPECT_TRUE(std::filesystem::exists(in_path));
    EXPECT_TRUE(std::filesystem::exists(out_path));
    EXPECT_TRUE(std::filesystem::exists(EpochManifest::path_for(out_path)));
  }
  EXPECT_FALSE(std::filesystem::exists(in_path));
  EXPECT_FALSE(std::filesystem::exists(out_path));
  EXPECT_FALSE(std::filesystem::exists(EpochManifest::path_for(out_path)));
}

// --- Per-instance views and the registry --------------------------------------

TEST(ShardStreamEngine, EachViewEqualsItsRegistryDelta) {
  // One rot soak on one thread: a torn epoch replayed by recover(), on-disk
  // rot in input and sink tiles, and injected EIO on both stores, under
  // budgets small enough that tiles keep reloading. Over the run, the
  // stream's Epoch::stats, both caches' CacheStats and the engine's
  // RecoveryStats each equal the advance of their registry metrics; once
  // the engine is gone its counts stay and its caches' bytes leave.
  set_parallel_thread_count(1);
  const HostId n = 64;
  const std::uint32_t tile_dim = 16;
  const std::size_t tile_bytes = shard::tile_size_bytes(tile_dim);
  ShardStreamConfig cfg;
  cfg.tile_dim = tile_dim;
  cfg.input_path = scratch_path("views_in");
  cfg.sink_path = scratch_path("views_out");
  cfg.input_budget_bytes = 4 * tile_bytes;   // of 16 input tiles
  cfg.output_budget_bytes = 2 * tile_bytes;  // of 10 sink tiles
  cfg.keep_files = true;
  DelayStream stream(random_matrix(n, 0.2, 75));
  {  // an epoch killed before its first sink checksum lands
    ShardStreamEngine killed(stream.matrix(), cfg);
    shard::FaultInjector::Config kill;
    kill.fail_at_commit = 1;
    shard::FaultInjector injector(kill);
    killed.set_sink_fault_injector(&injector);
    test::ingest_one(stream, {3, 40, 7.0f, 0.0});
    const Epoch epoch = stream.commit_epoch();
    EXPECT_THROW(killed.apply_epoch(stream.matrix(), epoch.dirty_hosts),
                 shard::InjectedCrash);
    killed.set_sink_fault_injector(nullptr);
  }

  auto& reg = obs::MetricsRegistry::instance();
  const obs::MetricsSnapshot base = reg.snapshot();
  EXPECT_EQ(base.gauges.at("cache.input.current_bytes"), 0);
  EXPECT_EQ(base.gauges.at("cache.sink.current_bytes"), 0);
  EpochStats ingested;
  shard::CacheStats in_view;
  shard::CacheStats sink_view;
  ShardStreamEngine::RecoveryStats recovery;
  {
    ShardStreamEngine engine = ShardStreamEngine::recover(stream.matrix(), cfg);
    shard::FaultInjector::Config eio;
    eio.eio_read_rate = 0.1;
    shard::FaultInjector in_injector(eio);
    eio.seed = 2;
    shard::FaultInjector sink_injector(eio);
    engine.set_input_fault_injector(&in_injector);
    engine.set_sink_fault_injector(&sink_injector);
    Rng rng(76);
    std::vector<float> row(n);
    for (std::uint32_t e = 0; e < 6; ++e) {
      const auto input_tile = TileFile::open(kInputFormat, cfg.input_path)
                                  .tile_offset(e % 4, (e + 1) % 4);
      const auto sink_tile =
          TileFile::open(kSinkFormat, cfg.sink_path).tile_offset(e % 4, 3);
      corrupt_byte_at(cfg.input_path, static_cast<long>(input_tile + 8));
      corrupt_byte_at(cfg.sink_path, static_cast<long>(sink_tile + 8));
      std::vector<DelaySample> batch;
      for (int u = 0; u < 12; ++u) {
        batch.push_back({static_cast<HostId>(rng.uniform_index(n)),
                         static_cast<HostId>(rng.uniform_index(n)),
                         static_cast<float>(rng.uniform(1.0, 400.0)),
                         1.0 + e});
      }
      stream.ingest(batch);
      const Epoch epoch = stream.commit_epoch();
      test::add_stats(ingested, epoch.stats);
      engine.apply_epoch(stream.matrix(), epoch.dirty_hosts);
      for (HostId a = 0; a < n; a += 5) engine.severity_row(a, row);
    }
    engine.set_input_fault_injector(nullptr);
    engine.set_sink_fault_injector(nullptr);
    ASSERT_TRUE(
        engine_matches(engine, TivAnalyzer(stream.matrix()).all_severities()));
    in_view = engine.input_cache_stats();
    sink_view = engine.output_cache_stats();
    recovery = engine.recovery_stats();
    EXPECT_EQ(recovery.torn_epochs_replayed, 1u);
    EXPECT_GT(recovery.input_tiles_recovered, 0u);
    EXPECT_GT(recovery.sink_tiles_recovered, 0u);
    EXPECT_GT(recovery.io_retries, 0u);
    EXPECT_GT(in_view.evictions, 0u);
    EXPECT_GT(sink_view.evictions, 0u);

    const obs::MetricsSnapshot live = reg.snapshot();
    const auto bytes = [&](const char* name) {
      return static_cast<std::size_t>(live.gauges.at(name));
    };
    EXPECT_EQ(bytes("cache.input.current_bytes"), in_view.current_bytes);
    EXPECT_EQ(bytes("cache.sink.current_bytes"), sink_view.current_bytes);
  }

  test::expect_registry_stream_stats(base, ingested);
  const obs::MetricsSnapshot d = reg.snapshot().delta_since(base);
  const auto c = [&](const std::string& name) { return d.counters.at(name); };
  for (const auto& [prefix, view] :
       {std::pair{std::string("cache.input."), in_view},
        std::pair{std::string("cache.sink."), sink_view}}) {
    EXPECT_EQ(c(prefix + "hits"), view.hits) << prefix;
    EXPECT_EQ(c(prefix + "misses"), view.misses) << prefix;
    EXPECT_EQ(c(prefix + "evictions"), view.evictions) << prefix;
    EXPECT_EQ(c(prefix + "invalidations"), view.invalidations) << prefix;
    EXPECT_EQ(c(prefix + "slot_allocs"), view.slot_allocs) << prefix;
    EXPECT_EQ(d.gauges.at(prefix + "current_bytes"), 0) << prefix;
    EXPECT_GE(static_cast<std::size_t>(d.gauges.at(prefix + "peak_bytes")),
              view.peak_bytes)
        << prefix;
  }
  EXPECT_EQ(c("engine.recovery.input_tiles_recovered"),
            recovery.input_tiles_recovered);
  EXPECT_EQ(c("engine.recovery.sink_tiles_recovered"),
            recovery.sink_tiles_recovered);
  EXPECT_EQ(c("engine.recovery.io_retries"), recovery.io_retries);
  EXPECT_EQ(c("engine.recovery.torn_epochs_replayed"),
            recovery.torn_epochs_replayed);
  std::filesystem::remove(cfg.input_path);
  std::filesystem::remove(cfg.sink_path);
  std::filesystem::remove(EpochManifest::path_for(cfg.sink_path));
  set_parallel_thread_count(0);
}

// --- Dirty-row repair pass ---------------------------------------------------

ShardStreamConfig repair_config(const std::string& tag,
                                std::uint32_t tile_dim) {
  ShardStreamConfig cfg;
  cfg.tile_dim = tile_dim;
  cfg.input_path = scratch_path(tag + "_in");
  cfg.sink_path = scratch_path(tag + "_out");
  return cfg;
}

/// The shared harness (tests/engine_harness.hpp) on a tile engine over
/// `initial` with `tile_dim`-wide tiles: bit-identity against a rebuild,
/// the changed-entry count, and exactly the reachable edges recomputed.
void expect_epochs_match(DelayMatrix initial, std::uint32_t tile_dim,
                         const std::vector<std::vector<DelaySample>>& epochs,
                         const std::string& tag) {
  DelayStream stream(std::move(initial));
  ShardStreamEngine engine(stream.matrix(), repair_config(tag, tile_dim));
  test::expect_epochs_match(engine, stream, epochs, /*screened=*/true, tag);
}

constexpr float kLost = DelayMatrix::kMissing;

TEST(DirtyRowRepair, DirtyHostsInOneBandAndAdjacentBands) {
  // 4 bands of 16. Epoch 0 dirties {17, 20, 30}, all in band 1: every
  // dirty-dirty edge lands on diagonal sink tile (1, 1). Epoch 1 spreads
  // {18, 30, 33, 40} over adjacent bands 1 and 2: dirty-dirty edges on the
  // off-diagonal tile (1, 2) and on the diagonal tile (2, 2), where (33, 40)
  // is recomputed though not itself re-measured. Epoch 2 loses two of them.
  set_parallel_thread_count(2);
  expect_epochs_match(random_matrix(64, 0.2, 81), 16,
                      {{{17, 20, 31.0f}, {20, 30, 7.0f}, {17, 30, 250.0f}},
                       {{18, 33, 12.0f}, {30, 40, 390.0f}, {18, 40, 3.0f}},
                       {{30, 40, kLost}, {17, 20, kLost}, {33, 41, 2.0f}}},
                      "oneband");
  set_parallel_thread_count(0);
}

TEST(DirtyRowRepair, DirtyHostInRaggedLastBand) {
  // 133 = 8*16 + 5 = 2*48 + 37: hosts 130 and 132 sit in the ragged last
  // band of both grids, and (130, 132) is a dirty-dirty edge on its
  // diagonal tile.
  for (const std::uint32_t tile : {16u, 48u}) {
    expect_epochs_match(
        random_matrix(133, 0.3, 82), tile,
        {{{130, 5, 44.0f}, {132, 130, 9.0f}, {132, 64, 301.0f}},
         {{132, 130, kLost}, {131, 0, 17.0f}}},
        "ragged_t" + std::to_string(tile));
  }
}

TEST(DirtyRowRepair, DirtyDirtyEdgeLosingItsMeasurementCommitsItsTile) {
  // Hosts 1 and 5 (band 0) are measured only to each other, at 100 ms, and
  // to witnesses 33..35 (band 2), at 10 ms each, so (1, 5) violates through
  // all three and has a nonzero severity. When (1, 5) goes missing, the
  // stale (1, 5) value must be reset to 0 in diagonal tile (0, 0) — both
  // of its cells. Its other incident edges (1|5, w) keep their severities
  // (no detour through the 100 ms edge violates them), so the screen flags
  // only (1, 5) itself and sink tile (0, 2) is left alone: exactly one
  // tile commits. With every incident edge flagged, the measured (1|5, w)
  // edges commit (0, 2) as well.
  const HostId n = 48;
  DelayMatrix m = random_matrix(n, 0.1, 83);
  for (const HostId h : {1u, 5u}) {
    for (HostId x = 0; x < n; ++x) {
      if (x != h) m.set_missing(h, x);
    }
    for (const HostId w : {33u, 34u, 35u}) m.set(h, w, 10.0f);
  }
  m.set(1, 5, 100.0f);

  DelayStream stream(m);
  ShardStreamEngine engine(stream.matrix(), repair_config("lost", 16));
  ASSERT_GT(engine.severity(1, 5), 0.0f);
  ASSERT_GT(engine.severity(5, 1), 0.0f);

  test::ingest_one(stream, {1, 5, kLost, 1.0});
  const Epoch epoch = stream.commit_epoch();
  ASSERT_EQ(epoch.dirty_hosts, (std::vector<HostId>{1, 5}));
  const auto stats = engine.apply_epoch(stream.matrix(), epoch.dirty_hosts);
  EXPECT_EQ(stats.edges_changed, 1u);
  EXPECT_EQ(stats.edges_recomputed, 1u);
  EXPECT_EQ(stats.severity_tiles_committed, 1u);
  EXPECT_EQ(engine.severity(1, 5), 0.0f);
  EXPECT_EQ(engine.severity(5, 1), 0.0f);
  EXPECT_TRUE(engine_matches(engine, TivAnalyzer(stream.matrix()).all_severities()));

  // The unscreened pass over a fresh copy of the pre-epoch sink.
  const std::string in_path = scratch_path("lost_all_in");
  const std::string out_path = scratch_path("lost_all_out");
  shard::write_matrix(in_path, m, 16);
  shard::create_sink(out_path, n, 16);
  {
    const auto store = TileFile::open(kInputFormat, in_path);
    TileCache cache(store, std::size_t{1} << 20, "cache.input");
    auto sink = TileFile::open(kSinkFormat, out_path, /*writable=*/true);
    core::all_severities_to_sink(cache, sink);
    core::EpochEdges all;
    all.reset(epoch.dirty_hosts, n);
    all.flag_all();
    const auto full = core::repair_severities_to_sink(
        stream.matrix(), sink, std::size_t{1} << 20, epoch.dirty_hosts, all);
    EXPECT_EQ(full.edges_recomputed, 2u * (n - 1) - 1u);
    EXPECT_EQ(full.tiles_committed, 2u);
  }
  EXPECT_EQ(file_bytes(out_path), file_bytes(engine.sink_path()));
  std::filesystem::remove(in_path);
  std::filesystem::remove(out_path);
}

/// Randomized epoch `e` of `updates` samples over n hosts (value updates
/// and measured<->missing toggles), timestamped e.
std::vector<DelaySample> random_epoch(Rng& rng, HostId n, std::size_t updates,
                                      int e) {
  std::vector<DelaySample> batch;
  for (std::size_t u = 0; u < updates; ++u) {
    const auto a = static_cast<HostId>(rng.uniform_index(n));
    const auto b = static_cast<HostId>(rng.uniform_index(n));
    if (a == b) continue;
    const float value = rng.bernoulli(0.2)
                            ? kLost
                            : static_cast<float>(rng.uniform(1.0, 400.0));
    batch.push_back({a, b, value, double(e)});
  }
  return batch;
}

TEST(DirtyRowRepair, HostGroupsMatchOnePass) {
  // An 8-tile input budget holds the packed and result rows of only
  // repair_group_hosts() = 10 hosts, so ~30 dirty hosts per epoch run in
  // several ascending groups. The sink must come out byte-identical to a
  // one-group engine's, with the same edge and commit counts.
  set_parallel_thread_count(2);
  const HostId n = 96;
  const std::uint32_t tile = 16;
  const std::size_t small_budget = 8 * shard::tile_size_bytes(tile);
  const std::size_t group = core::repair_group_hosts(n, tile, small_budget);
  ASSERT_EQ(group, 10u);

  DelayStream stream(random_matrix(n, 0.2, 84));
  ShardStreamEngine one(stream.matrix(), repair_config("group_one", tile));
  ShardStreamConfig cfg = repair_config("group_many", tile);
  cfg.input_budget_bytes = small_budget;
  ShardStreamEngine many(stream.matrix(), cfg);

  Rng rng(85);
  for (int e = 0; e < 4; ++e) {
    stream.ingest(random_epoch(rng, n, 16, e));
    const Epoch epoch = stream.commit_epoch();
    ASSERT_GT(epoch.dirty_hosts.size(), 2 * group) << "epoch " << e;
    const auto a = one.apply_epoch(stream.matrix(), epoch.dirty_hosts);
    const auto b = many.apply_epoch(stream.matrix(), epoch.dirty_hosts);
    EXPECT_EQ(a.edges_recomputed, b.edges_recomputed) << "epoch " << e;
    EXPECT_EQ(a.severity_tiles_committed, b.severity_tiles_committed)
        << "epoch " << e;
    EXPECT_EQ(file_bytes(one.sink_path()), file_bytes(many.sink_path()))
        << "epoch " << e;
    ASSERT_TRUE(engine_matches(many, TivAnalyzer(stream.matrix()).all_severities())) << "epoch " << e;
  }
  set_parallel_thread_count(0);
}

/// Input-tile acquires of `engine`'s cache so far: every acquire is one hit
/// or one miss.
std::size_t input_acquires(const ShardStreamEngine& engine) {
  const auto s = engine.input_cache_stats();
  return s.hits + s.misses;
}

TEST(DirtyRowRepair, PoolWidthDoesNotChangeSinkBytes) {
  // 1, 2 and 4 pool threads: identical sink files and identical
  // (deterministic) work counts, input-tile acquires included.
  const HostId n = 80;
  std::vector<std::string> sinks;
  std::vector<std::vector<std::size_t>> counts;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    set_parallel_thread_count(threads);
    DelayStream stream(random_matrix(n, 0.25, 86));
    ShardStreamEngine engine(stream.matrix(),
                             repair_config("width" + std::to_string(threads),
                                           16));
    Rng rng(87);
    std::vector<std::size_t> c;
    for (int e = 0; e < 4; ++e) {
      stream.ingest(random_epoch(rng, n, 6, e));
      const std::size_t acquires = input_acquires(engine);
      const auto stats = engine.apply_epoch(stream);
      c.insert(c.end(), {stats.edges_recomputed,
                         stats.severity_tiles_committed,
                         input_acquires(engine) - acquires});
    }
    sinks.push_back(file_bytes(engine.sink_path()));
    counts.push_back(c);
  }
  set_parallel_thread_count(0);
  EXPECT_EQ(sinks[0], sinks[1]);
  EXPECT_EQ(sinks[0], sinks[2]);
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(counts[0], counts[2]);
}

TEST(DirtyRowRepair, EpochReadsOnlyTheScreensInputTiles) {
  // 5 bands of 16. The repair packs its rows from the live matrix, so an
  // epoch's only input-tile acquires are the screen's: one per dirty band
  // and column band K. On one pool thread every acquire is counted once.
  set_parallel_thread_count(1);
  DelayStream stream(random_matrix(70, 0.1, 88));
  ShardStreamEngine engine(stream.matrix(), repair_config("loads", 16));
  // Dirty hosts {3, 40, 41}: bands 0 and 2, so 2 * 5 acquires.
  stream.ingest(std::vector<DelaySample>{{3, 40, 5.0f, 0.0}, {40, 41, 6.0f, 0.0}});
  std::size_t before = input_acquires(engine);
  auto stats = engine.apply_epoch(stream);
  EXPECT_GT(stats.edges_recomputed, 0u);
  EXPECT_EQ(input_acquires(engine) - before, 2u * 5u);
  // Dirty hosts {1, 20, 50, 69}: bands 0, 1, 3 and 4, so 4 * 5 acquires.
  stream.ingest(std::vector<DelaySample>{{1, 50, 7.0f, 1.0}, {20, 69, kLost, 1.0}});
  before = input_acquires(engine);
  stats = engine.apply_epoch(stream);
  EXPECT_GT(stats.edges_recomputed, 0u);
  EXPECT_EQ(input_acquires(engine) - before, 4u * 5u);
  set_parallel_thread_count(0);
}

/// The tiles (r, c) whose stored bytes differ between two snapshots of the
/// tile file `file` describes — every tile of a square (input) file, the
/// upper band triangle of a triangular (sink) one.
std::vector<std::pair<std::uint32_t, std::uint32_t>> changed_tiles(
    const TileFile& file, const std::string& before, const std::string& after) {
  const std::uint32_t tiles = file.tiles_per_side();
  const bool square = file.tile_count() == std::size_t{tiles} * tiles;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> changed;
  for (std::uint32_t r = 0; r < tiles; ++r) {
    for (std::uint32_t c = square ? 0 : r; c < tiles; ++c) {
      const std::size_t off = file.tile_offset(r, c);
      if (before.compare(off, file.tile_bytes(), after, off,
                         file.tile_bytes()) != 0) {
        changed.emplace_back(r, c);
      }
    }
  }
  return changed;
}

TEST(DirtyRowRepair, RepacksOnlyTheTilesOfChangedEntries) {
  // 5 bands of 16. With exact flags the epoch repacks the input tiles that
  // hold a changed entry and no other: tile (x/T, w/T) and its mirror, or
  // the one diagonal-band tile when both endpoints share a band.
  DelayStream stream(random_matrix(70, 0.1, 92));
  ShardStreamEngine engine(stream.matrix(), repair_config("repackset", 16));
  const auto file = TileFile::open(kInputFormat, engine.input_path());
  using Tiles = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

  std::string before = file_bytes(engine.input_path());
  test::ingest_one(stream, {3, 40, 5.0f, 0.0});  // bands 0 and 2
  auto stats = engine.apply_epoch(stream);
  std::string after = file_bytes(engine.input_path());
  EXPECT_EQ(stats.input_tiles_repacked, 2u);
  EXPECT_EQ(changed_tiles(file, before, after), (Tiles{{0, 2}, {2, 0}}));
  EXPECT_TRUE(engine_matches(engine, TivAnalyzer(stream.matrix()).all_severities()));

  before = after;
  test::ingest_one(stream, {17, 30, 9.0f, 1.0});  // both in band 1
  stats = engine.apply_epoch(stream);
  after = file_bytes(engine.input_path());
  EXPECT_EQ(stats.input_tiles_repacked, 1u);
  EXPECT_EQ(changed_tiles(file, before, after), (Tiles{{1, 1}}));
  EXPECT_TRUE(engine_matches(engine, TivAnalyzer(stream.matrix()).all_severities()));
}

TEST(DirtyRowRepair, InputCorruptionHealsWhenTheScreenReadsIt) {
  // Rot input tile (2, 3) on disk, then reopen cold. The repair reads no
  // input tile, so an epoch dirtying bands 0 and 4 only never meets it and
  // heals nothing. The first epoch with a dirty host in band 2 reads the
  // tile in its screen: the engine must repack it from the live matrix,
  // fall back to every incident edge, and stay bit-identical over later
  // epochs. The screened epochs repack only the tiles of changed entries;
  // the healed one repacks every dirty band x dirty band tile.
  set_parallel_thread_count(2);
  const HostId n = 70;
  DelayStream stream(random_matrix(n, 0.2, 89));
  ShardStreamConfig cfg = repair_config("screenrot", 16);
  cfg.keep_files = true;
  { ShardStreamEngine build(stream.matrix(), cfg); }
  corrupt_byte_at(cfg.input_path,
                  static_cast<long>(
                      TileFile::open(kInputFormat, cfg.input_path)
                              .tile_offset(2, 3) +
                          64));
  {
    ShardStreamEngine engine = ShardStreamEngine::recover(stream.matrix(), cfg);
    Rng rng(90);
    for (int e = 0; e < 4; ++e) {
      if (e == 0) {
        stream.ingest(
            std::vector<DelaySample>{{2, 66, 13.0f, 0.0}, {9, 69, kLost, 0.0}});
      } else if (e == 1) {
        test::ingest_one(stream, {33, 50, 21.0f, 1.0});
      } else {
        stream.ingest(random_epoch(rng, n, 10, e));
      }
      const Epoch epoch = stream.commit_epoch();
      const auto stats = engine.apply_epoch(stream.matrix(), epoch.dirty_hosts);
      ASSERT_TRUE(engine_matches(engine, TivAnalyzer(stream.matrix()).all_severities()))
          << "epoch " << e;
      if (e == 0) {
        EXPECT_EQ(engine.recovery_stats().input_tiles_recovered, 0u);
        // (2, 66) and (9, 69) share tile (0, 4) and its mirror.
        EXPECT_EQ(stats.input_tiles_repacked, 2u);
      } else if (e == 1) {
        EXPECT_EQ(stats.edges_recomputed, 2u * (n - 1) - 1u);
        // Hosts 33 and 50: dirty bands 2 and 3, 2 x 2 tiles.
        EXPECT_EQ(stats.input_tiles_repacked, 4u);
      }
    }
    EXPECT_EQ(engine.recovery_stats().input_tiles_recovered, 1u);
  }
  std::filesystem::remove(cfg.input_path);
  std::filesystem::remove(cfg.sink_path);
  std::filesystem::remove(EpochManifest::path_for(cfg.sink_path));
  set_parallel_thread_count(0);
}

TEST(DirtyRowRepair, CorePassRejectsMalformedHostLists) {
  // The engine's rejections run on both stores in LiveEngine; the core
  // pass validates on its own, too, before any sink tile is written.
  const DelayMatrix m = random_matrix(40, 0.2, 91);
  ShardStreamEngine engine(m, repair_config("badlist", 16));
  const std::string sink_before = file_bytes(engine.sink_path());
  auto sink =
      TileFile::open(kSinkFormat, engine.sink_path(), /*writable=*/true);
  EXPECT_THROW(core::repair_severities_to_sink(m, sink, std::size_t{1} << 20,
                                               std::vector<HostId>{4, 2},
                                               core::EpochEdges{}),
               std::invalid_argument);
  EXPECT_EQ(file_bytes(engine.sink_path()), sink_before);
}

// --- Screened repair ---------------------------------------------------------

/// The repair as it ran before the screen, over its own sink: every epoch
/// recomputes every edge incident to a dirty host (EpochEdges::flag_all).
class UnscreenedShadow {
 public:
  UnscreenedShadow(const DelayMatrix& m, std::uint32_t tile_dim,
                   std::size_t budget, const std::string& tag)
      : out_path_(scratch_path(tag + "_shadow_out")), budget_(budget) {
    const std::string in_path = scratch_path(tag + "_shadow_in");
    shard::write_matrix(in_path, m, tile_dim);
    shard::create_sink(out_path_, m.size(), tile_dim);
    sink_ = TileFile::open(kSinkFormat, out_path_, /*writable=*/true);
    {
      const auto store = TileFile::open(kInputFormat, in_path);
      TileCache cache(store, budget, "cache.input");
      core::all_severities_to_sink(cache, sink_);
    }
    std::filesystem::remove(in_path);
  }
  ~UnscreenedShadow() { std::filesystem::remove(out_path_); }

  void apply(const DelayMatrix& m, std::span<const HostId> dirty) {
    if (dirty.empty()) return;
    core::EpochEdges all;
    all.reset(dirty, m.size());
    all.flag_all();
    core::repair_severities_to_sink(m, sink_, budget_, dirty, all);
  }

  const std::string& sink_path() const { return out_path_; }

 private:
  std::string out_path_;
  std::size_t budget_;
  TileFile sink_;
};

TEST(ScreenedRepair, MultiEdgeEpochsMatchRebuildAndUnscreenedSink) {
  // n = 75 = 4*16 + 11: a ragged last band. Every epoch changes several
  // edges per host (dirty-dirty edges, loss toggles, id neighbours, the
  // last host). After each one, the engine equals all_severities bit for
  // bit, and the screened sink file equals an unscreened repair's byte for
  // byte. The small budget splits the dirty hosts into groups.
  set_parallel_thread_count(2);
  const HostId n = 75;
  const std::uint32_t tile = 16;
  for (const std::size_t budget :
       {std::size_t{4} << 20, 6 * shard::tile_size_bytes(tile)}) {
    const std::size_t group = core::repair_group_hosts(n, tile, budget);
    const std::string tag = "screened_b" + std::to_string(budget);
    DelayStream stream(random_matrix(n, 0.2, 95));
    ShardStreamConfig cfg = repair_config(tag, tile);
    cfg.input_budget_bytes = budget;
    ShardStreamEngine engine(stream.matrix(), cfg);
    UnscreenedShadow shadow(stream.matrix(), tile, budget, tag);
    Rng rng(96);
    std::size_t screened = 0;
    std::size_t incident = 0;
    std::size_t multi_group = 0;
    for (int e = 0; e < 10; ++e) {
      const DelayMatrix before = stream.matrix();
      stream.ingest(test::multi_edge_epoch(rng, n, e));
      const Epoch epoch = stream.commit_epoch();
      const auto got = engine.apply_epoch(stream.matrix(), epoch.dirty_hosts);
      shadow.apply(stream.matrix(), epoch.dirty_hosts);
      EXPECT_EQ(
          got.edges_recomputed,
          reference::reachable_edges_scalar(before, stream.matrix()).size())
          << "epoch " << e;
      ASSERT_TRUE(engine_matches(engine,
                                 TivAnalyzer(stream.matrix()).all_severities()))
          << tag << " epoch " << e;
      ASSERT_EQ(file_bytes(engine.sink_path()), file_bytes(shadow.sink_path()))
          << tag << " epoch " << e;
      const std::size_t h = epoch.dirty_hosts.size();
      screened += got.edges_recomputed;
      incident += h * (n - 1) - h * (h - 1) / 2;
      multi_group += h > group;
    }
    EXPECT_LT(screened, incident);
    if (budget < (std::size_t{1} << 20)) {
      EXPECT_GT(multi_group, 0u);
    }
  }
  set_parallel_thread_count(0);
}

TEST(ScreenedRepair, HealDuringScreenFallsBackToEveryIncidentEdge) {
  // A bit of input tile (0, 0) flips on disk. The epoch changes (2, 9),
  // inside that tile, so the screen's read of the pre-epoch rows meets the
  // corrupt tile first. The heal repacks it from the post-epoch matrix —
  // the old value of (2, 9) is gone — so the epoch must recompute every
  // edge incident to hosts 2 and 9, and still converge.
  set_parallel_thread_count(2);
  const HostId n = 70;
  DelayStream stream(random_matrix(n, 0.2, 97));
  ShardStreamConfig cfg = repair_config("screenheal", 16);
  cfg.keep_files = true;
  { ShardStreamEngine build(stream.matrix(), cfg); }
  {
    const auto offset =
        TileFile::open(kInputFormat, cfg.input_path).tile_offset(0, 0) + 40;
    std::FILE* f = std::fopen(cfg.input_path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    const int c = std::fgetc(f);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);
  }
  {
    ShardStreamEngine engine = ShardStreamEngine::recover(stream.matrix(), cfg);
    test::ingest_one(stream, {2, 9, 3.0f, 0.0});
    const Epoch epoch = stream.commit_epoch();
    ASSERT_EQ(epoch.dirty_hosts, (std::vector<HostId>{2, 9}));
    const auto stats = engine.apply_epoch(stream.matrix(), epoch.dirty_hosts);
    EXPECT_EQ(engine.recovery_stats().input_tiles_recovered, 1u);
    EXPECT_EQ(stats.edges_recomputed, 2u * (n - 1) - 1u);
    ASSERT_TRUE(engine_matches(engine, TivAnalyzer(stream.matrix()).all_severities()));

    // The next epoch screens again.
    const DelayMatrix before = stream.matrix();
    test::ingest_one(stream, {2, 9, 250.0f, 1.0});
    const Epoch next = stream.commit_epoch();
    const auto got = engine.apply_epoch(stream.matrix(), next.dirty_hosts);
    EXPECT_EQ(got.edges_recomputed,
              reference::reachable_edges_scalar(before, stream.matrix()).size());
    EXPECT_LT(got.edges_recomputed, 2u * (n - 1) - 1u);
    EXPECT_TRUE(engine_matches(engine, TivAnalyzer(stream.matrix()).all_severities()));
  }
  std::filesystem::remove(cfg.input_path);
  std::filesystem::remove(cfg.sink_path);
  std::filesystem::remove(EpochManifest::path_for(cfg.sink_path));
  set_parallel_thread_count(0);
}

TEST(ScreenedRepair, SinkCacheDropsOnlyRewrittenTiles) {
  // With every tile a row read loads cached, an epoch invalidates exactly
  // the cached tiles its repair committed — fewer than the tiles touching a
  // dirty band — and the rest keep serving reads from the cache.
  const HostId n = 96;
  ShardStreamConfig cfg = repair_config("narrow", 16);
  DelayStream stream(random_matrix(n, 0.1, 99));
  ShardStreamEngine engine(stream.matrix(), cfg);
  const auto sink = TileFile::open(kSinkFormat, engine.sink_path());
  std::vector<float> row(n);
  for (HostId a = 0; a < n; ++a) engine.severity_row(a, row);  // warm
  // Row reads load the column tiles (c, band(a)), c < band(a): every
  // off-diagonal tile, 15 of 21. Diagonal tiles are read a segment at a
  // time and never cached.
  ASSERT_EQ(engine.output_cache_stats().current_bytes,
            15 * shard::tile_size_bytes(16));

  test::ingest_one(stream, {10, 70, 150.0f, 0.0});
  const Epoch epoch = stream.commit_epoch();
  const std::string bytes_before = file_bytes(engine.sink_path());
  const auto before = engine.output_cache_stats();
  const auto stats = engine.apply_epoch(stream.matrix(), epoch.dirty_hosts);
  const auto after = engine.output_cache_stats();
  // Every committed tile's bytes changed here, so the byte diff is the
  // committed set.
  const auto committed =
      changed_tiles(sink, bytes_before, file_bytes(engine.sink_path()));
  ASSERT_EQ(committed.size(), stats.severity_tiles_committed);
  // Bands 0 and 4 of 6 are dirty: 6 + 6 - 1 tiles touch one of them. The
  // cache drops exactly the committed off-diagonal tiles; a committed
  // diagonal tile can only be (0, 0) or (4, 4), and was never cached.
  std::size_t off_diagonal = 0;
  for (const auto& [r, c] : committed) {
    if (r != c) {
      ++off_diagonal;
    } else {
      EXPECT_TRUE(r == 0 || r == 4) << "committed diagonal tile " << r;
    }
  }
  ASSERT_GT(off_diagonal, 0u);
  EXPECT_EQ(after.invalidations - before.invalidations, off_diagonal);
  EXPECT_EQ(before.current_bytes - after.current_bytes,
            off_diagonal * shard::tile_size_bytes(16));
  EXPECT_LT(stats.severity_tiles_committed, 11u);
  EXPECT_TRUE(engine_matches(engine, TivAnalyzer(stream.matrix()).all_severities()));
  EXPECT_GT(engine.output_cache_stats().hits, after.hits);
}

// --- The counts bench_shard_stream --quick reports -------------------------

/// bench_shard_stream --quick: 128 hosts, 16-wide tiles, 10% missing, seed
/// 29, the default cache budgets. Built from the bench's own inputs
/// (bench/bench_workloads.hpp), so every count its records report is
/// pinned here exactly.
constexpr HostId kQuickHosts = 128;
constexpr std::uint32_t kQuickTile = 16;
constexpr double kQuickMissing = 0.1;
constexpr std::uint64_t kQuickSeed = 29;

TEST(BenchShardStreamQuick, ChurnCountsAreExact) {
  // Per churn point, summed over its two epochs: the repack, the commit,
  // the repair and the screen's input-tile reads.
  struct Point {
    double dirty_fraction;
    std::size_t repacked, committed, recomputed, input_tile_loads;
  };
  for (const Point& p :
       {Point{0.02, 4, 14, 21, 32}, Point{0.2, 36, 70, 969, 128}}) {
    DelayStream stream(random_matrix(kQuickHosts, kQuickMissing, kQuickSeed));
    Rng rng(kQuickSeed ^ 0x0c1ull);
    ShardStreamConfig cfg = repair_config("bench_churn", kQuickTile);
    cfg.input_budget_bytes = std::size_t{512} << 10;
    cfg.output_budget_bytes = std::size_t{256} << 10;
    ShardStreamEngine engine(stream.matrix(), cfg);
    const auto acquires = [&] {
      const auto s = engine.input_cache_stats();
      return s.hits + s.misses;
    };
    const std::size_t acquires0 = acquires();
    const auto dirty = std::max<std::size_t>(
        2, static_cast<std::size_t>(kQuickHosts * p.dirty_fraction));
    SeverityEngine::EpochStats sum;
    for (int e = 0; e < 2; ++e) {
      bench::replay_churn_epoch(stream, rng, dirty, double(e));
      const Epoch epoch = stream.commit_epoch();
      const auto stats = engine.apply_epoch(stream.matrix(), epoch.dirty_hosts);
      sum.input_tiles_repacked += stats.input_tiles_repacked;
      sum.severity_tiles_committed += stats.severity_tiles_committed;
      sum.edges_recomputed += stats.edges_recomputed;
    }
    const std::string at = "dirty fraction " + std::to_string(p.dirty_fraction);
    EXPECT_EQ(sum.input_tiles_repacked, p.repacked) << at;
    EXPECT_EQ(sum.severity_tiles_committed, p.committed) << at;
    EXPECT_EQ(sum.edges_recomputed, p.recomputed) << at;
    EXPECT_EQ(acquires() - acquires0, p.input_tile_loads) << at;
    EXPECT_TRUE(engine_matches(engine,
                               TivAnalyzer(stream.matrix()).all_severities()))
        << at;
  }
}

TEST(BenchShardStreamQuick, SinkReadBytesAreExact) {
  // The sink_reads leg: warm with the row reads, then the point reads and
  // the row reads again, all on this thread from an empty sink cache of a
  // quarter of the sink's tiles.
  Rng rng(kQuickSeed ^ 0x5eadull);
  const auto plan =
      bench::sink_read_plan(rng, kQuickHosts, kQuickTile, 4096, 256);
  ShardStreamConfig cfg = repair_config("bench_reads", kQuickTile);
  cfg.input_budget_bytes = std::size_t{512} << 10;
  cfg.output_budget_bytes = plan.budget_bytes;
  ShardStreamEngine engine(
      random_matrix(kQuickHosts, kQuickMissing, kQuickSeed), cfg);
  std::vector<float> row(kQuickHosts);
  for (const HostId a : plan.rows) engine.severity_row(a, row);
  auto& reg = obs::MetricsRegistry::instance();
  const obs::MetricsSnapshot before = reg.snapshot();
  for (const auto& [a, b] : plan.points) engine.severity(a, b);
  for (const HostId a : plan.rows) engine.severity_row(a, row);
  const obs::MetricsSnapshot d = reg.snapshot().delta_since(before);
  EXPECT_EQ(d.counters.at("shard.sink.read_bytes"), 910208u);
}

}  // namespace
}  // namespace tiv::stream
