// Out-of-core live pipeline (src/sink/ + stream/shard_stream): the
// severity tile sink round-trips and rejects corruption, the sink-fed
// streaming driver matches the in-memory kernel bit for bit, and the
// headline contract — after every randomized epoch the ShardStreamEngine's
// on-disk severities, read back through the budgeted sink cache, are
// bit-identical to the in-memory streaming path (and hence to a
// from-scratch TivAnalyzer::all_severities rebuild) — across densities,
// measured<->missing churn, tile sizes that do not divide n, and n < 8.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/severity.hpp"
#include "core/shard_severity.hpp"
#include "matrix_test_utils.hpp"
#include "shard/checksum.hpp"
#include "shard/tile_cache.hpp"
#include "shard/tile_store.hpp"
#include "sink/severity_cache.hpp"
#include "sink/severity_tile_store.hpp"
#include "stream/delay_stream.hpp"
#include "stream/incremental_severity.hpp"
#include "stream/shard_stream.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace tiv::stream {
namespace {

using core::SeverityMatrix;
using core::TivAnalyzer;
using delayspace::DelayMatrix;
using delayspace::HostId;
using shard::CorruptTileError;
using sink::SeverityCache;
using sink::SeverityTileStore;

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

/// Engine severities (read back through the sink cache, row by row) agree
/// bit for bit with `want` on every cell, unmeasured pairs and the
/// diagonal included.
::testing::AssertionResult engine_matches(ShardStreamEngine& engine,
                                          const SeverityMatrix& want) {
  const HostId n = engine.size();
  if (want.size() != n) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  std::vector<float> row(n);
  for (HostId a = 0; a < n; ++a) {
    engine.severity_row(a, row);
    for (HostId b = 0; b < n; ++b) {
      const auto g = std::bit_cast<std::uint32_t>(row[b]);
      const auto w = std::bit_cast<std::uint32_t>(want.at(a, b));
      if (g != w) {
        return ::testing::AssertionFailure()
               << "severity (" << a << ", " << b << "): bits " << g
               << " != " << w << " (" << row[b] << " vs " << want.at(a, b)
               << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// --- SeverityTileStore ------------------------------------------------------

TEST(SeverityTileStore, CreateReopenRoundTrip) {
  const std::string path = scratch_path("roundtrip");
  // 37 = 2*16 + 5: ragged last band.
  SeverityTileStore::create(path, 37, 16);
  std::vector<float> tile(16 * 16);
  {
    auto store = SeverityTileStore::open(path, /*writable=*/true);
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
    const auto store = SeverityTileStore::open(path);
    std::vector<float> got(16 * 16);
    store.read_tile(1, 2, got.data());
    EXPECT_EQ(got, tile);  // survives reopen-after-close, checksum included
    store.read_tile(0, 1, got.data());
    for (const float v : got) EXPECT_EQ(v, 0.0f);
  }
  std::filesystem::remove(path);
}

TEST(SeverityTileStore, WriteOnReadOnlyStoreThrows) {
  const std::string path = scratch_path("readonly");
  SeverityTileStore::create(path, 16, 16);
  auto store = SeverityTileStore::open(path);
  const std::vector<float> tile(16 * 16, 1.0f);
  EXPECT_THROW(store.write_tile(0, 0, tile.data()), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(SeverityTileStore, CorruptTileIsRejectedLoudly) {
  const std::string path = scratch_path("corrupt");
  SeverityTileStore::create(path, 37, 16);
  {
    auto store = SeverityTileStore::open(path, /*writable=*/true);
    std::vector<float> tile(16 * 16, 2.5f);
    store.write_tile(2, 2, tile.data());
  }
  corrupt_byte_at(path, -5);  // inside the last tile's payload (2, 2)
  const auto store = SeverityTileStore::open(path);
  std::vector<float> tile(16 * 16);
  EXPECT_THROW(store.read_tile(2, 2, tile.data()), CorruptTileError);
  store.read_tile(0, 1, tile.data());  // other tiles unaffected
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
  shard::TileStore::write_matrix(in_path, m, tile_dim);
  const auto store = shard::TileStore::open(in_path);
  shard::TileCache cache(store, budget_bytes);
  SeverityTileStore::create(out_path, m.size(), tile_dim);
  auto sink = SeverityTileStore::open(out_path, /*writable=*/true);
  core::all_severities_to_sink(store, cache, sink);

  const auto stats = cache.stats();
  EXPECT_GT(stats.misses, 0u);
  EXPECT_LE(stats.peak_bytes, budget_bytes);
  if (expect_evictions) {
    EXPECT_GT(stats.evictions, 0u);
  }

  const SeverityMatrix want = TivAnalyzer(m).all_severities();
  SeverityCache reader(sink, std::size_t{1} << 22);
  const HostId n = m.size();
  std::vector<float> row(n);
  for (HostId a = 0; a < n; ++a) {
    reader.read_row(a, row);
    for (HostId b = 0; b < n; ++b) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(row[b]),
                std::bit_cast<std::uint32_t>(want.at(a, b)))
          << "(" << a << ", " << b << ")";
      // Point reads agree with row reads (they address the same tiles).
      ASSERT_EQ(reader.at(a, b), row[b]);
    }
  }
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
  // workers pin at most 3 tiles each plus a prefetch, inside the 8.
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
  shard::TileStore::write_matrix(in_path, m, 16);
  const auto store = shard::TileStore::open(in_path);
  std::filesystem::resize_file(in_path, 512);  // header survives, tiles gone
  shard::TileCache cache(store, std::size_t{1} << 20);
  SeverityTileStore::create(out_path, m.size(), 16);
  auto sink = SeverityTileStore::open(out_path, /*writable=*/true);
  EXPECT_THROW(core::all_severities_to_sink(store, cache, sink),
               std::runtime_error);
  std::filesystem::remove(in_path);
  std::filesystem::remove(out_path);
  set_parallel_thread_count(0);
}

TEST(SinkSeverity, GeometryMismatchRejected) {
  const DelayMatrix m = random_matrix(32, 0.1, 34);
  const std::string in_path = scratch_path("geom_in");
  const std::string out_path = scratch_path("geom_out");
  shard::TileStore::write_matrix(in_path, m, 16);
  const auto store = shard::TileStore::open(in_path);
  shard::TileCache cache(store, std::size_t{1} << 20);
  SeverityTileStore::create(out_path, 48, 16);  // wrong n
  auto sink = SeverityTileStore::open(out_path, /*writable=*/true);
  EXPECT_THROW(core::all_severities_to_sink(store, cache, sink),
               std::invalid_argument);
  auto sink_ro = SeverityTileStore::open(out_path);  // right flag matters too
  EXPECT_THROW(core::repair_severities_to_sink(store, cache, sink_ro,
                                               std::vector<HostId>{1}),
               std::invalid_argument);
  std::filesystem::remove(in_path);
  std::filesystem::remove(out_path);
}

// --- ShardStreamEngine: the bit-identity contract ---------------------------

/// Replays randomized epochs through one DelayStream feeding BOTH streaming
/// engines — the in-memory IncrementalSeverity and the out-of-core
/// ShardStreamEngine — and asserts the sink readback is bit-identical to
/// the in-memory maintained matrix (itself bit-identical to a full
/// rebuild, enforced by test_stream_engine) after every commit. Epochs mix
/// value updates, measured<->missing toggles, and intra-epoch re-updates.
void replay_and_check_engine(HostId n, double missing, std::uint32_t tile_dim,
                             std::uint64_t seed, int epochs) {
  // Pin the pool width: the peak-vs-budget assertions below only hold when
  // the tight budgets dominate the pinned working set (3 input tiles per
  // band-pair worker + one prefetch), which an unbounded many-core pool
  // would exceed. Same pattern as the sink build's tiny-budget test.
  set_parallel_thread_count(2);
  DelayStream stream(random_matrix(n, missing, seed));
  IncrementalSeverity in_memory(stream.matrix());

  ShardStreamConfig cfg;
  cfg.tile_dim = tile_dim;
  cfg.input_path = scratch_path("engine_in_n" + std::to_string(n) + "_s" +
                                std::to_string(seed));
  cfg.sink_path = scratch_path("engine_out_n" + std::to_string(n) + "_s" +
                               std::to_string(seed));
  // Tight-but-sane budgets: a handful of tiles each, far below the whole
  // tile grid, above the 2-thread pinned working set (3*2 + 2 tiles in,
  // one per worker out).
  const std::size_t tile_bytes = shard::tile_size_bytes(tile_dim);
  cfg.input_budget_bytes = 10 * tile_bytes;
  cfg.output_budget_bytes = 4 * tile_bytes;
  ShardStreamEngine engine(stream.matrix(), cfg);

  ASSERT_TRUE(engine_matches(engine, in_memory.severities()))
      << "initial build, n=" << n;

  Rng rng(seed ^ 0x5117u);
  for (int e = 0; e < epochs; ++e) {
    const std::size_t updates = 1 + rng.uniform_index(2 * n);
    for (std::size_t u = 0; u < updates; ++u) {
      const auto a = static_cast<HostId>(rng.uniform_index(n));
      const auto b = static_cast<HostId>(rng.uniform_index(n));
      if (a == b) continue;
      const float value =
          rng.bernoulli(0.2) ? DelayMatrix::kMissing
                             : static_cast<float>(rng.uniform(1.0, 400.0));
      stream.ingest({a, b, value, double(e)});
    }
    const Epoch epoch = stream.commit_epoch();
    in_memory.apply_epoch(stream.matrix(), epoch.dirty_hosts);
    const auto stats = engine.apply_epoch(stream.matrix(), epoch.dirty_hosts);
    if (!epoch.dirty_hosts.empty()) {
      EXPECT_GT(stats.input_tiles_repacked, 0u);
    }
    ASSERT_TRUE(engine_matches(engine, in_memory.severities()))
        << "n=" << n << " missing=" << missing << " tile=" << tile_dim
        << " seed=" << seed << " epoch=" << e;
  }

  // The tracked working set stayed within the configured budgets (the
  // readback loops pin one tile at a time; the band-pair drivers pin a
  // handful per worker — both dominated by these budgets).
  EXPECT_LE(engine.input_cache_stats().peak_bytes, cfg.input_budget_bytes);
  EXPECT_LE(engine.output_cache_stats().peak_bytes, cfg.output_budget_bytes);
  set_parallel_thread_count(0);
}

TEST(ShardStreamEngine, BitIdenticalTinyMatrices) {
  // n < 8: a single ragged tile pair; empty witness sets and fully-missing
  // rows all occur.
  for (const HostId n : {4, 7}) {
    for (const double missing : {0.0, 0.3, 0.9}) {
      replay_and_check_engine(n, missing, 16, 2 * n + 1, 4);
    }
  }
}

TEST(ShardStreamEngine, BitIdenticalNonDividingTileSizes) {
  // 70 = 4*16 + 6 and 37 = 2*16 + 5: ragged last bands, multi-band dirty
  // sets, heavy eviction under the 8-tile input budget.
  replay_and_check_engine(70, 0.3, 16, 41, 4);
  replay_and_check_engine(37, 0.0, 16, 42, 4);
}

TEST(ShardStreamEngine, BitIdenticalDenseAndMostlyMissing) {
  replay_and_check_engine(48, 0.0, 16, 43, 4);
  replay_and_check_engine(48, 0.9, 16, 44, 4);
}

TEST(ShardStreamEngine, TileSlotPoolsStopGrowingAfterWarmup) {
  // Both caches recycle evicted and invalidated tile slots, so once the
  // first epochs have filled them to budget, further epochs and reads
  // allocate no tile memory — what keeps a long-running monitor's RSS
  // flat (shard/lru_tile_cache.hpp).
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
        stream.ingest({a, b, static_cast<float>(rng.uniform(1.0, 400.0)), t});
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

TEST(ShardStreamEngine, CleanEpochRepairsNothing) {
  const DelayMatrix m = random_matrix(24, 0.2, 51);
  ShardStreamConfig cfg;
  cfg.tile_dim = 16;
  cfg.input_path = scratch_path("clean_in");
  cfg.sink_path = scratch_path("clean_out");
  ShardStreamEngine engine(m, cfg);
  const auto stats = engine.apply_epoch(m, std::vector<HostId>{});
  EXPECT_EQ(stats.input_tiles_repacked, 0u);
  EXPECT_EQ(stats.severity_tiles_committed, 0u);
  EXPECT_EQ(stats.edges_recomputed, 0u);
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
  }
  EXPECT_FALSE(std::filesystem::exists(in_path));
  EXPECT_FALSE(std::filesystem::exists(out_path));
}

TEST(ShardStreamEngine, MatrixSizeChangeRejected) {
  ShardStreamConfig cfg;
  cfg.tile_dim = 16;
  ShardStreamEngine engine(random_matrix(20, 0.1, 53), cfg);
  const DelayMatrix wrong = random_matrix(24, 0.1, 53);
  EXPECT_THROW(engine.apply_epoch(wrong, std::vector<HostId>{1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace tiv::stream
