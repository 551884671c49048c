// Survivable storage (shard/fault_injector + stream/epoch_manifest +
// ShardStreamEngine self-healing): deterministic fault injection flips
// bits, tears commits, and kills the process mid-epoch, and the engine
// must converge back to severities bit-identical to a from-scratch
// all_severities — plus the crash-consistency and geometry-check contracts of
// the tile files themselves.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/severity.hpp"
#include "engine_harness.hpp"
#include "matrix_test_utils.hpp"
#include "shard/checksum.hpp"
#include "shard/fault_injector.hpp"
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
using delayspace::DelayMatrix;
using delayspace::HostId;
using shard::CorruptTileError;
using shard::FaultInjector;
using shard::InjectedCrash;
using shard::InjectedIoError;
using shard::kInputFormat;
using shard::kSinkFormat;
using shard::TileFile;
using shard::TileFormatError;

using tiv::test::engine_matches;
using tiv::test::random_matrix;

std::string scratch_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("tiv_test_fault_" + tag + "_" +
           std::to_string(
               ::testing::UnitTest::GetInstance()->random_seed()) +
           ".tiles"))
      .string();
}

/// XORs one byte at absolute `offset` of `path` — persistent disk rot, as
/// opposed to the injector's in-flight read flips.
void rot_byte_at(const std::string& path, std::uint64_t offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
  std::fputc(c ^ 0x5a, f);
  std::fclose(f);
}

ShardStreamConfig engine_config(const std::string& tag, bool keep_files) {
  ShardStreamConfig cfg;
  cfg.tile_dim = 16;
  cfg.input_path = scratch_path(tag + "_in");
  cfg.sink_path = scratch_path(tag + "_out");
  cfg.keep_files = keep_files;
  return cfg;
}

void remove_store_files(const ShardStreamConfig& cfg) {
  std::filesystem::remove(cfg.input_path);
  std::filesystem::remove(cfg.sink_path);
  std::filesystem::remove(EpochManifest::path_for(cfg.sink_path));
}

// --- FaultInjector ----------------------------------------------------------

TEST(FaultInjector, EveryKthReadFlipsDeterministically) {
  FaultInjector::Config cfg;
  cfg.seed = 7;
  cfg.bitflip_every_kth_read = 3;
  FaultInjector a(cfg);
  FaultInjector b(cfg);
  int flips = 0;
  for (int i = 0; i < 9; ++i) {
    a.before_read();
    b.before_read();
    std::size_t byte_a = 0, byte_b = 0;
    unsigned bit_a = 0, bit_b = 0;
    const bool fa = a.corrupt_read(1024, &byte_a, &bit_a);
    const bool fb = b.corrupt_read(1024, &byte_b, &bit_b);
    EXPECT_EQ(fa, fb);  // pure function of (seed, ordinal)
    if (fa) {
      ++flips;
      EXPECT_EQ(byte_a, byte_b);
      EXPECT_EQ(bit_a, bit_b);
      EXPECT_LT(byte_a, 1024u);
      EXPECT_LT(bit_a, 8u);
    }
  }
  EXPECT_EQ(flips, 3);  // reads 3, 6, 9
  EXPECT_EQ(a.stats().reads, 9u);
  EXPECT_EQ(a.stats().bitflips, 3u);
}

TEST(FaultInjector, EioRateAlwaysFiresAtOne) {
  FaultInjector::Config cfg;
  cfg.eio_read_rate = 1.0;
  FaultInjector inj(cfg);
  EXPECT_THROW(inj.before_read(), InjectedIoError);
  EXPECT_EQ(inj.stats().eio_errors, 1u);
}

TEST(FaultInjector, AttachedInjectorCorruptsStoreReads) {
  const DelayMatrix m = random_matrix(20, 0.1, 61);
  const std::string path = scratch_path("inj_store");
  shard::write_matrix(path, m, 16);
  auto store = TileFile::open(kInputFormat, path);
  FaultInjector::Config cfg;
  cfg.bitflip_every_kth_read = 1;  // every read flips
  FaultInjector inj(cfg);
  store.set_fault_injector(&inj);
  std::vector<float> payload(store.payload_floats());
  EXPECT_THROW(store.read_tile(0, 0, payload.data()), CorruptTileError);
  store.set_fault_injector(nullptr);  // disk untouched: clean read now
  store.read_tile(0, 0, payload.data());
  EXPECT_GE(inj.stats().bitflips, 1u);
  std::filesystem::remove(path);
}

// --- Geometry checks on reopen ----------------------------------------------

TEST(GeometryCheck, ReopenRejectsMismatchedStores) {
  const DelayMatrix m = random_matrix(32, 0.1, 62);
  const std::string in_path = scratch_path("geom_in");
  const std::string out_path = scratch_path("geom_out");
  shard::write_matrix(in_path, m, 16);
  shard::create_sink(out_path, 32, 16);

  // Matching expectations open fine; nonzero mismatched n or tile_dim is
  // rejected in both formats, as a TileFormatError.
  TileFile::open(kInputFormat, in_path, false, 32, 16);
  TileFile::open(kSinkFormat, out_path, false, 32, 16);
  EXPECT_THROW(TileFile::open(kInputFormat, in_path, false, 48, 16),
               std::runtime_error);
  EXPECT_THROW(TileFile::open(kInputFormat, in_path, false, 32, 32),
               TileFormatError);
  EXPECT_THROW(TileFile::open(kSinkFormat, out_path, false, 48, 16),
               std::runtime_error);
  EXPECT_THROW(TileFile::open(kSinkFormat, out_path, false, 32, 32),
               TileFormatError);

  // recover() routes the same check: a config whose geometry does not
  // match the files is rejected before any tile is served.
  ShardStreamConfig cfg;
  cfg.input_path = in_path;
  cfg.sink_path = out_path;
  cfg.tile_dim = 32;  // files were built with 16
  cfg.keep_files = true;
  EXPECT_THROW(ShardStreamEngine::recover(m, cfg), std::runtime_error);

  std::filesystem::remove(in_path);
  std::filesystem::remove(out_path);
}

// --- EpochManifest ----------------------------------------------------------

TEST(EpochManifest, RoundTripAndClear) {
  const std::string path = scratch_path("manifest");
  EpochManifest m;
  m.generation = 42;
  m.input_tiles = {{0, 0}, {0, 2}, {2, 0}};
  m.sink_tiles = {{0, 1}, {1, 2}};
  m.write(path);

  const auto got = EpochManifest::load(path);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->generation, 42u);
  EXPECT_EQ(got->input_tiles, m.input_tiles);
  EXPECT_EQ(got->sink_tiles, m.sink_tiles);

  EpochManifest::clear(path);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(EpochManifest::load(path).has_value());
  EpochManifest::clear(path);  // idempotent
}

TEST(EpochManifest, TornManifestLoadsAsClean) {
  const std::string path = scratch_path("manifest_torn");
  EpochManifest m;
  m.generation = 7;
  m.input_tiles = {{1, 1}};
  m.sink_tiles = {{0, 1}};
  m.write(path);
  // A crash mid-manifest-write leaves a short or checksum-broken file:
  // both must read as "no torn epoch" (the stores were not touched yet).
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 3);
  EXPECT_FALSE(EpochManifest::load(path).has_value());
  m.write(path);
  rot_byte_at(path, 9);
  EXPECT_FALSE(EpochManifest::load(path).has_value());
  std::filesystem::remove(path);
}

// --- Self-healing reads ------------------------------------------------------

TEST(FaultRecovery, DiskRotInSinkTileHealsOnRead) {
  const DelayMatrix m = random_matrix(37, 0.3, 63);
  const SeverityMatrix want = core::TivAnalyzer(m).all_severities();
  auto cfg = engine_config("sinkrot", /*keep_files=*/true);
  { ShardStreamEngine build(m, cfg); }  // build stores, keep files

  {  // rot one byte inside sink tile (1, 2), then reopen cold
    const auto sink = TileFile::open(kSinkFormat, cfg.sink_path);
    rot_byte_at(cfg.sink_path, sink.tile_offset(1, 2) + 100);
  }
  ShardStreamEngine engine = ShardStreamEngine::recover(m, cfg);
  EXPECT_TRUE(engine_matches(engine, want));
  EXPECT_GE(engine.recovery_stats().sink_tiles_recovered, 1u);
  EXPECT_EQ(engine.recovery_stats().torn_epochs_replayed, 0u);
  // Healed on disk, not just in cache: a second cold open reads clean.
  {
    const auto sink = TileFile::open(kSinkFormat, cfg.sink_path);
    std::vector<float> tile(sink.payload_floats());
    sink.read_tile(1, 2, tile.data());
  }
  remove_store_files(cfg);
}

TEST(FaultRecovery, DiskRotInInputTileHealsFromLiveMatrix) {
  const DelayMatrix m = random_matrix(37, 0.2, 64);
  auto cfg = engine_config("inrot", /*keep_files=*/true);
  { ShardStreamEngine build(m, cfg); }

  {  // rot input tile (0, 2) — in the dirty band, but not repacked below
    const auto in = TileFile::open(kInputFormat, cfg.input_path);
    rot_byte_at(cfg.input_path, in.tile_offset(0, 2) + 64);
  }
  DelayStream stream(m);
  ShardStreamEngine engine = ShardStreamEngine::recover(stream.matrix(), cfg);

  // An epoch dirtying band 0 screens every input tile of that band,
  // including the rotten (0, 2), which it does not repack: the engine must
  // repack it from the live matrix and finish the epoch bit-identically.
  stream.ingest({0, 5, 17.0f, 0.0});
  const Epoch epoch = stream.commit_epoch();
  engine.apply_epoch(stream.matrix(), epoch.dirty_hosts);
  EXPECT_TRUE(engine_matches(engine, core::TivAnalyzer(stream.matrix()).all_severities()));
  EXPECT_GE(engine.recovery_stats().input_tiles_recovered, 1u);
  remove_store_files(cfg);
}

TEST(FaultRecovery, TruncatedSinkTailHealsOnRead) {
  const DelayMatrix m = random_matrix(37, 0.3, 65);
  const SeverityMatrix want = core::TivAnalyzer(m).all_severities();
  auto cfg = engine_config("trunc", /*keep_files=*/true);
  { ShardStreamEngine build(m, cfg); }

  const auto full_size = std::filesystem::file_size(cfg.sink_path);
  std::filesystem::resize_file(cfg.sink_path, full_size - 10);

  ShardStreamEngine engine = ShardStreamEngine::recover(m, cfg);
  EXPECT_TRUE(engine_matches(engine, want));
  EXPECT_GE(engine.recovery_stats().sink_tiles_recovered, 1u);
  // The heal rewrote the lost tail in place.
  EXPECT_EQ(std::filesystem::file_size(cfg.sink_path), full_size);
  remove_store_files(cfg);
}

TEST(FaultRecovery, InjectedEioRetriesUntilClean) {
  const DelayMatrix m = random_matrix(48, 0.1, 66);
  const SeverityMatrix want = core::TivAnalyzer(m).all_severities();
  auto cfg = engine_config("eio", false);
  // One-tile sink budget: every readback row misses, so the injector sees
  // real preads (a fully-cached sink would never call it).
  cfg.output_budget_bytes = 16 * 16 * sizeof(float);
  ShardStreamEngine engine(m, cfg);
  FaultInjector::Config icfg;
  icfg.eio_read_rate = 0.4;
  FaultInjector inj(icfg);
  engine.set_sink_fault_injector(&inj);
  EXPECT_TRUE(engine_matches(engine, want));
  engine.set_sink_fault_injector(nullptr);
  EXPECT_GE(engine.recovery_stats().io_retries, 1u);
  EXPECT_EQ(engine.recovery_stats().sink_tiles_recovered, 0u);
}

// --- Kill-mid-commit + recover ----------------------------------------------

/// Runs one epoch that dies mid-commit under `make_fault`, then recovers
/// from the on-disk state and asserts bit-identity with a from-scratch
/// rebuild of the post-epoch matrix.
void kill_and_recover(std::uint32_t torn_at, bool fault_on_input,
                      const std::string& tag) {
  set_parallel_thread_count(2);
  DelayStream stream(random_matrix(37, 0.3, 67));
  auto cfg = engine_config(tag, /*keep_files=*/true);

  FaultInjector::Config icfg;
  icfg.torn_write_at_commit = torn_at;
  FaultInjector inj(icfg);
  {
    ShardStreamEngine engine(stream.matrix(), cfg);
    // Attach after the initial build so the ordinal counts epoch commits.
    if (fault_on_input) {
      engine.set_input_fault_injector(&inj);
    } else {
      engine.set_sink_fault_injector(&inj);
    }
    for (int u = 0; u < 40; ++u) {
      const auto a = static_cast<HostId>(u % 37);
      const auto b = static_cast<HostId>((u * 7 + 3) % 37);
      if (a != b) stream.ingest({a, b, float(10 + u), 0.0});
    }
    const Epoch epoch = stream.commit_epoch();
    EXPECT_THROW(engine.apply_epoch(stream.matrix(), epoch.dirty_hosts),
                 InjectedCrash);
    EXPECT_EQ(inj.stats().torn_writes, 1u);
  }  // "process dies": engine destroyed, stores + manifest survive

  ASSERT_TRUE(std::filesystem::exists(EpochManifest::path_for(cfg.sink_path)))
      << "a torn epoch must leave its journal behind";

  // Reopen-after-kill: the journaled tiles replay from the post-epoch
  // matrix and the result is bit-identical to the clean in-memory path.
  ShardStreamEngine engine =
      ShardStreamEngine::recover(stream.matrix(), cfg);
  EXPECT_EQ(engine.recovery_stats().torn_epochs_replayed, 1u);
  EXPECT_EQ(engine.epochs_applied(), 1u);
  EXPECT_FALSE(std::filesystem::exists(EpochManifest::path_for(cfg.sink_path)));
  EXPECT_TRUE(engine_matches(engine, core::TivAnalyzer(stream.matrix()).all_severities()));

  // The recovered engine keeps working: another clean epoch stays
  // bit-identical.
  stream.ingest({3, 30, 99.0f, 1.0});
  const Epoch epoch2 = stream.commit_epoch();
  engine.apply_epoch(stream.matrix(), epoch2.dirty_hosts);
  EXPECT_TRUE(engine_matches(engine, core::TivAnalyzer(stream.matrix()).all_severities()));

  remove_store_files(cfg);
  set_parallel_thread_count(0);
}

TEST(FaultRecovery, KillOnFirstInputRepackRecovers) {
  kill_and_recover(1, /*fault_on_input=*/true, "kill_in1");
}

TEST(FaultRecovery, KillMidInputRepackBatchRecovers) {
  kill_and_recover(3, /*fault_on_input=*/true, "kill_in3");
}

TEST(FaultRecovery, KillOnFirstSinkCommitRecovers) {
  kill_and_recover(1, /*fault_on_input=*/false, "kill_out1");
}

TEST(FaultRecovery, KillMidSinkCommitBatchRecovers) {
  kill_and_recover(2, /*fault_on_input=*/false, "kill_out2");
}

TEST(FaultRecovery, FailBeforeChecksumRecovers) {
  // The other half of the torn-commit window: tile bytes land, checksum
  // does not. Identical recovery contract.
  set_parallel_thread_count(2);
  DelayStream stream(random_matrix(37, 0.2, 68));
  auto cfg = engine_config("failck", /*keep_files=*/true);
  FaultInjector::Config icfg;
  icfg.fail_at_commit = 2;
  FaultInjector inj(icfg);
  {
    ShardStreamEngine engine(stream.matrix(), cfg);
    engine.set_sink_fault_injector(&inj);
    for (int u = 0; u < 30; ++u) {
      stream.ingest({static_cast<HostId>(u % 37),
                     static_cast<HostId>((u * 11 + 5) % 37), float(20 + u),
                     0.0});
    }
    const Epoch epoch = stream.commit_epoch();
    EXPECT_THROW(engine.apply_epoch(stream.matrix(), epoch.dirty_hosts),
                 InjectedCrash);
    EXPECT_EQ(inj.stats().commit_fails, 1u);
  }
  ShardStreamEngine engine =
      ShardStreamEngine::recover(stream.matrix(), cfg);
  EXPECT_EQ(engine.recovery_stats().torn_epochs_replayed, 1u);
  EXPECT_TRUE(engine_matches(engine, core::TivAnalyzer(stream.matrix()).all_severities()));
  remove_store_files(cfg);
  set_parallel_thread_count(0);
}

TEST(FaultRecovery, OutOfRangeManifestTileIsRejectedBeforeAnyRepack) {
  // A manifest with a valid checksum is still untrusted input: a tile
  // coordinate outside the stores must throw, never reach a tile offset.
  const DelayMatrix m = random_matrix(64, 0.2, 69);  // 4 bands of 16
  const SeverityMatrix want = core::TivAnalyzer(m).all_severities();
  auto cfg = engine_config("bad_manifest", /*keep_files=*/true);
  { ShardStreamEngine engine(m, cfg); }
  const std::string manifest_path = EpochManifest::path_for(cfg.sink_path);

  using Tiles = std::vector<std::pair<std::uint32_t, std::uint32_t>>;
  const auto recover_with = [&](const Tiles& input, const Tiles& sink) {
    EpochManifest bad;
    bad.generation = 1;
    bad.input_tiles = input;
    bad.sink_tiles = sink;
    bad.write(manifest_path);
    return ShardStreamEngine::recover(m, cfg);
  };
  EXPECT_THROW(recover_with({{0, 0}, {4000000, 7}}, {}), std::runtime_error);
  EXPECT_THROW(recover_with({{4, 0}}, {{0, 0}}), std::runtime_error);
  EXPECT_THROW(recover_with({{0, 4}}, {}), std::runtime_error);
  EXPECT_THROW(recover_with({}, {{0, 4}}), std::runtime_error);
  EXPECT_THROW(recover_with({}, {{2, 1}}), std::runtime_error);

  // The stores still hold the build's severities, and an in-range
  // manifest replays as before.
  ShardStreamEngine engine = recover_with({{3, 3}}, {{0, 3}, {3, 3}});
  EXPECT_EQ(engine.recovery_stats().torn_epochs_replayed, 1u);
  EXPECT_TRUE(engine_matches(engine, want));
  remove_store_files(cfg);
}

// --- The soak: randomized epochs under sustained bit-flips -------------------

TEST(FaultRecovery, BitflipSoakStaysBitIdentical) {
  set_parallel_thread_count(2);
  const HostId n = 70;  // 5 bands: 25 input tiles, 15 sink tiles
  DelayStream stream(random_matrix(n, 0.3, 69));
  auto cfg = engine_config("soak", false);
  // Budgets far below the tile grids (just above the 2-thread pinned
  // working set): constant eviction keeps the injectors on the read path —
  // a fully-cached store would never exercise them.
  cfg.input_budget_bytes = 8 * shard::tile_size_bytes(16);
  cfg.output_budget_bytes = 3 * shard::tile_size_bytes(16);
  ShardStreamEngine engine(stream.matrix(), cfg);

  // Flip one bit on every ~40th read of either store — well inside the
  // ISSUE's <= 5%-of-reads envelope, hot enough that every epoch and most
  // readbacks trip at least one heal.
  FaultInjector::Config in_cfg;
  in_cfg.seed = 11;
  in_cfg.bitflip_every_kth_read = 40;
  FaultInjector in_inj(in_cfg);
  FaultInjector::Config out_cfg;
  out_cfg.seed = 13;
  out_cfg.bitflip_every_kth_read = 40;
  FaultInjector out_inj(out_cfg);
  engine.set_input_fault_injector(&in_inj);
  engine.set_sink_fault_injector(&out_inj);
  engine.attach_source(&stream.matrix());

  Rng rng(0xf417u);
  for (int e = 0; e < 5; ++e) {
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
    engine.apply_epoch(stream.matrix(), epoch.dirty_hosts);
    // Full readback under injection after every epoch: zero bit mismatches
    // tolerated, ever.
    ASSERT_TRUE(engine_matches(engine, core::TivAnalyzer(stream.matrix()).all_severities()))
        << "epoch " << e;
  }
  // In-flight flips are *transient*: the tile-file layer absorbs them with
  // a clean re-read (read_retries) instead of escalating to a rebuild —
  // the soak must show the faults were really hit and really absorbed.
  const auto rec = engine.recovery_stats();
  EXPECT_GE(rec.input_read_retries + rec.sink_read_retries, 1u)
      << "the soak must actually exercise the transient-retry path "
      << "(flips injected: " << in_inj.stats().bitflips << " + "
      << out_inj.stats().bitflips << ")";
  engine.set_input_fault_injector(nullptr);
  engine.set_sink_fault_injector(nullptr);
  set_parallel_thread_count(0);
}

}  // namespace
}  // namespace tiv::stream
