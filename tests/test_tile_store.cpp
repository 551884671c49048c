// Tests for the out-of-core shard subsystem: input tile files round-
// tripping the packed-view representation (and repacking tiles in place
// byte-identically to a fresh build), what both formats share (corrupt
// tiles, read-only opens, the cache's budget/eviction accounting under
// either metric prefix), the formats kept apart, the tile checksum's
// detection power over real tiles, and typed rejection of foreign, stale
// and hostile headers. The band-pair severity driver's bit-identity to the
// in-memory kernel is tested through its sink in test_shard_stream.cpp.
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/epoch_screen.hpp"
#include "core/shard_severity.hpp"
#include "delayspace/delay_matrix.hpp"
#include "matrix_test_utils.hpp"
#include "obs/metrics.hpp"
#include "shard/checksum.hpp"
#include "shard/fault_injector.hpp"
#include "shard/tile_cache.hpp"
#include "shard/tile_file.hpp"
#include "shard/tile_store.hpp"
#include "util/rng.hpp"

namespace tiv::core {
namespace {

using delayspace::DelayMatrix;
using delayspace::DelayMatrixView;
using delayspace::HostId;
using shard::kInputFormat;
using shard::kSinkFormat;
using shard::TileCache;
using shard::TileFile;
using shard::TileFileParams;
using shard::TileFormatError;

using tiv::test::random_matrix;

/// Unique scratch path; removed by the fixture-less tests themselves.
std::string scratch_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("tiv_test_" + tag + "_" + std::to_string(::testing::UnitTest::
                                                        GetInstance()
                                                            ->random_seed()) +
           ".tiles"))
      .string();
}

TEST(TileStore, RoundTripsPackedViewBlocks) {
  const HostId n = 37;  // does not divide the 16-wide tile
  const DelayMatrix m = random_matrix(n, 0.25, 5);
  const std::string path = scratch_path("roundtrip");
  shard::write_matrix(path, m, 16);
  const TileFile store = TileFile::open(kInputFormat, path);
  EXPECT_EQ(store.size(), n);
  EXPECT_EQ(store.tile_dim(), 16u);
  EXPECT_EQ(store.tiles_per_side(), 3u);
  EXPECT_EQ(store.band_rows(0), 16u);
  EXPECT_EQ(store.band_rows(2), 5u);

  const DelayMatrixView view(m);
  std::vector<float> payload(store.payload_floats());
  for (std::uint32_t tr = 0; tr < store.tiles_per_side(); ++tr) {
    for (std::uint32_t tc = 0; tc < store.tiles_per_side(); ++tc) {
      store.read_tile(tr, tc, payload.data());
      for (std::uint32_t lr = 0; lr < 16; ++lr) {
        const HostId i = tr * 16 + lr;
        for (std::uint32_t lb = 0; lb < 16; ++lb) {
          const HostId b = tc * 16 + lb;
          const float got = payload[lr * 16 + lb];
          if (i >= n || b >= n) {
            EXPECT_EQ(got, DelayMatrixView::kMaskedDelay);  // edge padding
          } else {
            EXPECT_EQ(got, view.row(i)[b]) << "(" << i << ", " << b << ")";
          }
        }
      }
    }
  }
  std::filesystem::remove(path);
}

TEST(TileStore, OutOfRangeBandsAndTilesThrowTyped) {
  // Range checks at the file's index are exceptions, not asserts, so they
  // hold in release builds too.
  const std::string in_path = scratch_path("range_in");
  shard::write_matrix(in_path, random_matrix(37, 0.25, 5), 16);
  const TileFile store = TileFile::open(kInputFormat, in_path);
  EXPECT_EQ(store.band_rows(2), 5u);
  EXPECT_THROW(store.band_rows(3), std::out_of_range);
  EXPECT_NO_THROW(store.tile_offset(2, 0));  // square index: any (r, c)
  EXPECT_THROW(store.tile_offset(3, 0), std::out_of_range);
  EXPECT_THROW(store.tile_offset(0, 3), std::out_of_range);
  std::vector<float> payload(store.payload_floats());
  EXPECT_THROW(store.read_tile(0, 7, payload.data()), std::out_of_range);

  const std::string sink_path = scratch_path("range_sink");
  shard::create_sink(sink_path, 37, 16);
  const auto sink = TileFile::open(kSinkFormat, sink_path);
  EXPECT_EQ(sink.tile_index(1, 2), 4u);  // upper triangle, row-major
  EXPECT_THROW(sink.tile_index(2, 1), std::out_of_range);
  EXPECT_THROW(sink.tile_index(0, 3), std::out_of_range);
  EXPECT_THROW(sink.band_rows(0xffffffffu), std::out_of_range);
  std::filesystem::remove(in_path);
  std::filesystem::remove(sink_path);
}

TEST(TileStore, RejectsBadTileDim) {
  const DelayMatrix m = random_matrix(8, 0.0, 6);
  EXPECT_THROW(shard::write_matrix(scratch_path("bad"), m, 0),
               std::invalid_argument);
  EXPECT_THROW(shard::write_matrix(scratch_path("bad"), m, 24),
               std::invalid_argument);
  EXPECT_THROW(shard::create_sink(scratch_path("bad"), 8, 24),
               std::invalid_argument);
}

TEST(TileStore, OpenRejectsMissingAndMalformed) {
  EXPECT_THROW(TileFile::open(kInputFormat, "/nonexistent/tiv_tiles"),
               std::runtime_error);
  const std::string path = scratch_path("garbage");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a tile store", f);
    std::fclose(f);
  }
  EXPECT_THROW(TileFile::open(kInputFormat, path), std::runtime_error);
  EXPECT_THROW(TileFile::open(kInputFormat, path), TileFormatError);
  std::filesystem::remove(path);
}

TEST(TileStore, RepackTileIsByteIdenticalToFreshBuild) {
  // Mutate a few edges (values and missing toggles), repack exactly the
  // dirty hosts' row-band tiles in place, and demand the whole store file
  // equals a from-scratch write_matrix of the mutated matrix byte for byte
  // — tiles and the checksum table included.
  DelayMatrix m = random_matrix(70, 0.3, 21);  // 70 = 4*16 + 6: ragged band
  const std::string path = scratch_path("repack");
  shard::write_matrix(path, m, 16);

  Rng rng(99);
  std::vector<std::uint8_t> band_dirty((70 + 15) / 16, 0);
  for (int u = 0; u < 8; ++u) {
    const auto a = static_cast<HostId>(rng.uniform_index(70));
    const auto b = static_cast<HostId>(rng.uniform_index(70));
    if (a == b) continue;
    if (rng.bernoulli(0.3)) {
      m.set_missing(a, b);
    } else {
      m.set(a, b, static_cast<float>(rng.uniform(1.0, 400.0)));
    }
    band_dirty[a / 16] = 1;
    band_dirty[b / 16] = 1;
  }
  {
    auto store = TileFile::open(kInputFormat, path, /*writable=*/true);
    EXPECT_TRUE(store.writable());
    for (std::uint32_t r = 0; r < store.tiles_per_side(); ++r) {
      if (!band_dirty[r]) continue;
      for (std::uint32_t c = 0; c < store.tiles_per_side(); ++c) {
        shard::repack_tile(store, m, r, c);
      }
    }
  }
  const std::string fresh_path = scratch_path("repack_fresh");
  shard::write_matrix(fresh_path, m, 16);
  std::ifstream repacked(path, std::ios::binary);
  std::ifstream fresh(fresh_path, std::ios::binary);
  const std::vector<char> got((std::istreambuf_iterator<char>(repacked)),
                              std::istreambuf_iterator<char>());
  const std::vector<char> want((std::istreambuf_iterator<char>(fresh)),
                               std::istreambuf_iterator<char>());
  EXPECT_EQ(got, want);
  std::filesystem::remove(path);
  std::filesystem::remove(fresh_path);
}

// --- What both formats share ------------------------------------------------

const char* format_name(const TileFileParams* format) {
  return format == &kInputFormat ? "Input" : "Sink";
}

/// A 37-host, 16-wide tile file of each format (3 bands; the input one
/// holds a random matrix, the sink one is fresh) — one fixture for the
/// cases both formats must pass alike.
class TileFileFormat : public ::testing::TestWithParam<const TileFileParams*> {
 protected:
  void SetUp() override {
    path_ = scratch_path(std::string("format_") + format_name(GetParam()));
    if (is_input()) {
      shard::write_matrix(path_, matrix_, 16);
    } else {
      shard::create_sink(path_, matrix_.size(), 16);
    }
  }
  void TearDown() override { std::filesystem::remove(path_); }

  bool is_input() const { return GetParam() == &kInputFormat; }
  /// The cache prefix an engine gives a cache over this format.
  const char* cache_prefix() const {
    return is_input() ? "cache.input" : "cache.sink";
  }
  TileFile open(bool writable = false) const {
    return TileFile::open(*GetParam(), path_, writable);
  }

  const DelayMatrix matrix_ = random_matrix(37, 0.2, 23);
  std::string path_;
};

TEST_P(TileFileFormat, CorruptTileIsRejectedLoudly) {
  // Flip one byte inside the last tile's payload.
  const std::uint32_t last = open().tiles_per_side() - 1;
  const auto at = static_cast<std::streamoff>(open().tile_offset(last, last));
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(at + 64);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(at + 64);
    byte ^= 0x5a;
    f.write(&byte, 1);
  }
  const TileFile store = open();
  std::vector<float> payload(store.payload_floats());
  EXPECT_THROW(store.read_tile(last, last, payload.data()),
               shard::CorruptTileError);
  // CorruptTileError is still a runtime_error for coarse-grained handlers,
  // and other tiles stay readable.
  EXPECT_THROW(store.read_tile(last, last, payload.data()),
               std::runtime_error);
  store.read_tile(0, 1, payload.data());
}

TEST_P(TileFileFormat, WriteOnReadOnlyFileThrows) {
  TileFile store = open();
  const std::vector<float> tile(store.payload_floats(), 1.0f);
  EXPECT_THROW(store.write_tile(0, 0, tile.data()), std::runtime_error);
  if (is_input()) {
    EXPECT_THROW(shard::repack_tile(store, matrix_, 0, 0), std::runtime_error);
  }
}

TEST_P(TileFileFormat, CacheCountsHitsMissesAndReusesResidentTiles) {
  const TileFile store = open();
  auto& reg = obs::MetricsRegistry::instance();
  const obs::MetricsSnapshot before = reg.snapshot();
  TileCache cache(store, 1u << 20, cache_prefix());

  const auto t1 = cache.acquire(0, 0);
  const auto t2 = cache.acquire(0, 0);
  EXPECT_EQ(t1.get(), t2.get());  // same resident tile, no duplicate load
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.current_bytes, store.tile_bytes());

  cache.acquire(1, 2);
  stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.current_bytes, 2 * store.tile_bytes());
  EXPECT_EQ(stats.peak_bytes, 2 * store.tile_bytes());

  // The same counts reach the registry under the cache's prefix.
  const obs::MetricsSnapshot delta = reg.snapshot().delta_since(before);
  const std::string prefix = cache_prefix();
  EXPECT_EQ(delta.counters.at(prefix + ".misses"), 2u);
  EXPECT_EQ(delta.counters.at(prefix + ".hits"), 1u);
  EXPECT_EQ(delta.counters.at(prefix + ".slot_allocs"), 2u);
}

TEST_P(TileFileFormat, CacheEvictsLeastRecentlyUsedButNeverPinned) {
  const TileFile store = open();
  // Room for exactly two resident tiles.
  TileCache cache(store, 2 * store.tile_bytes(), cache_prefix());

  auto pinned = cache.acquire(0, 0);
  cache.acquire(0, 1);          // unpinned once the ref drops
  cache.acquire(0, 2);          // must evict (0, 1), not the pinned (0, 0)
  auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.current_bytes, cache.budget_bytes());

  const auto again = cache.acquire(0, 0);
  EXPECT_EQ(again.get(), pinned.get());  // survived eviction: was pinned
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_LE(stats.peak_bytes, cache.budget_bytes());
}

INSTANTIATE_TEST_SUITE_P(
    BothFormats, TileFileFormat, ::testing::Values(&kInputFormat, &kSinkFormat),
    [](const ::testing::TestParamInfo<const TileFileParams*>& info) {
      return std::string(format_name(info.param));
    });

TEST(TileFile, InputAndSinkAreNotInterchangeable) {
  // Both formats are one TileFile type, so the functions check the index
  // shape they are handed: a sink where the input is expected, and the
  // reverse, is an std::invalid_argument before any tile moves.
  const DelayMatrix m = random_matrix(37, 0.2, 25);
  const std::string in_path = scratch_path("swap_in");
  const std::string sink_path = scratch_path("swap_sink");
  shard::write_matrix(in_path, m, 16);
  shard::create_sink(sink_path, m.size(), 16);
  TileFile in = TileFile::open(kInputFormat, in_path, /*writable=*/true);
  TileFile sink = TileFile::open(kSinkFormat, sink_path, /*writable=*/true);
  TileCache in_cache(in, 1u << 20, "cache.input");
  TileCache sink_cache(sink, 1u << 20, "cache.sink");
  const std::vector<HostId> dirty{3, 20};
  EpochScreen screen;
  EpochEdges edges;
  std::vector<float> row(m.size());

  // The sink where an input is expected.
  EXPECT_THROW(all_severities_to_sink(sink_cache, sink), std::invalid_argument);
  EXPECT_THROW(rebuild_sink_tile(sink_cache, sink, 0, 0),
               std::invalid_argument);
  EXPECT_THROW(diff_dirty_rows(sink_cache, dirty, screen),
               std::invalid_argument);
  EXPECT_THROW(shard::repack_tile(sink, m, 0, 0), std::invalid_argument);
  // The input where a sink is expected.
  EXPECT_THROW(all_severities_to_sink(in_cache, in), std::invalid_argument);
  EXPECT_THROW(rebuild_sink_tile(in_cache, in, 0, 0), std::invalid_argument);
  EXPECT_THROW(repair_severities_to_sink(m, in, 1u << 20, dirty, edges),
               std::invalid_argument);
  EXPECT_THROW(sink_severity(in_cache, 0, 1), std::invalid_argument);
  EXPECT_THROW(sink_severity_row(in_cache, 0, row), std::invalid_argument);
  EXPECT_EQ(in_cache.stats().misses + sink_cache.stats().misses, 0u);
  // Opened under the other format, each file is foreign.
  EXPECT_THROW(TileFile::open(kSinkFormat, in_path), TileFormatError);
  EXPECT_THROW(TileFile::open(kInputFormat, sink_path), TileFormatError);
  std::filesystem::remove(in_path);
  std::filesystem::remove(sink_path);
}

// --- Tile checksum detection -------------------------------------------------

/// One serialized input tile and one sink tile (16 384 B each at T = 64)
/// of a 30%-missing matrix, read back through the stores so the bytes are
/// exactly what the checksums cover.
struct TileBytes {
  std::vector<unsigned char> input;
  std::vector<unsigned char> sink;
};

TileBytes real_tile_bytes() {
  const DelayMatrix m = random_matrix(64, 0.3, 61);
  const std::string in_path = scratch_path("bytes_in");
  const std::string out_path = scratch_path("bytes_out");
  shard::write_matrix(in_path, m, 64);
  const TileFile store = TileFile::open(kInputFormat, in_path);
  TileCache cache(store, 1u << 20, "cache.input");
  shard::create_sink(out_path, 64, 64);
  auto sink = TileFile::open(kSinkFormat, out_path, /*writable=*/true);
  all_severities_to_sink(cache, sink);

  TileBytes t;
  std::vector<float> payload(store.payload_floats());
  store.read_tile(0, 0, payload.data());
  t.input.resize(store.tile_bytes());
  std::memcpy(t.input.data(), payload.data(), t.input.size());
  std::vector<float> sev(sink.payload_floats());
  sink.read_tile(0, 0, sev.data());
  t.sink.resize(sink.tile_bytes());
  std::memcpy(t.sink.data(), sev.data(), t.sink.size());
  std::filesystem::remove(in_path);
  std::filesystem::remove(out_path);
  return t;
}

/// The tile checksum exactly as shard::TileFile computes it.
std::uint64_t tile_hash(const std::vector<unsigned char>& bytes) {
  return shard::checksum64(bytes.data(), bytes.size());
}

/// The rejected design, kept as the control that proves the flip tests
/// have teeth: the same four-lane structure with XOR-then-multiply
/// (word-FNV) lanes. Bit 63 of a word passes through such a lane
/// linearly, so two sign-bit flips in one lane cancel.
std::uint64_t word_fnv_tile_hash(const std::vector<unsigned char>& bytes) {
  constexpr std::uint64_t kBasis = 14695981039346656037ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t v[4] = {kBasis, kBasis, kBasis, kBasis};
  for (std::size_t i = 0; i + 32 <= bytes.size(); i += 32) {
    for (std::size_t l = 0; l < 4; ++l) {
      std::uint64_t w;
      std::memcpy(&w, bytes.data() + i + 8 * l, sizeof(w));
      v[l] = (v[l] ^ w) * kPrime;
    }
  }
  std::uint64_t h = std::rotl(v[0], 1) + std::rotl(v[1], 7) +
                    std::rotl(v[2], 12) + std::rotl(v[3], 18);
  h ^= h >> 33;
  h *= kPrime;
  h ^= h >> 29;
  return h;
}

void flip_bit(std::vector<unsigned char>& bytes, std::size_t bit) {
  bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
}

TEST(TileChecksum, EverySingleBitFlipChangesTheHash) {
  TileBytes t = real_tile_bytes();
  ASSERT_EQ(t.input.size(), 16384u);
  ASSERT_EQ(t.sink.size(), 16384u);
  for (auto* tile : {&t.input, &t.sink}) {
    const std::uint64_t clean = tile_hash(*tile);
    std::size_t missed = 0;
    for (std::size_t bit = 0; bit < tile->size() * 8; ++bit) {
      flip_bit(*tile, bit);
      missed += tile_hash(*tile) == clean;
      flip_bit(*tile, bit);
    }
    EXPECT_EQ(missed, 0u) << "tile of " << tile->size() << " bytes";
  }
}

TEST(TileChecksum, InjectedReadFlipsSurfaceAsCorruptTileAfterRetries) {
  const DelayMatrix m = random_matrix(64, 0.3, 62);
  const std::string in_path = scratch_path("flip_in");
  const std::string out_path = scratch_path("flip_out");
  shard::write_matrix(in_path, m, 64);
  TileFile store = TileFile::open(kInputFormat, in_path);
  shard::create_sink(out_path, 64, 64);
  auto sink = TileFile::open(kSinkFormat, out_path);
  std::vector<float> payload(store.payload_floats());
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    // Every read attempt flips one (seeded) bit, so each retry fails too:
    // the flip is indistinguishable from persistent rot.
    shard::FaultInjector::Config cfg;
    cfg.seed = seed;
    cfg.bitflip_every_kth_read = 1;
    shard::FaultInjector injector(cfg);
    store.set_fault_injector(&injector);
    sink.set_fault_injector(&injector);
    const std::uint64_t in_retries = store.read_retries();
    const std::uint64_t sink_retries = sink.read_retries();
    EXPECT_THROW(store.read_tile(0, 0, payload.data()),
                 shard::CorruptTileError);
    EXPECT_THROW(sink.read_tile(0, 0, payload.data()),
                 shard::CorruptTileError);
    EXPECT_EQ(store.read_retries() - in_retries,
              static_cast<std::uint64_t>(shard::TileFile::kReadRetries));
    EXPECT_EQ(sink.read_retries() - sink_retries,
              static_cast<std::uint64_t>(shard::TileFile::kReadRetries));
    EXPECT_EQ(injector.stats().bitflips,
              2u * (shard::TileFile::kReadRetries + 1));
    store.set_fault_injector(nullptr);
    sink.set_fault_injector(nullptr);
  }
  store.read_tile(0, 0, payload.data());  // disk is intact
  std::filesystem::remove(in_path);
  std::filesystem::remove(out_path);
}

TEST(TileChecksum, DetectsSameLaneSignBitPairsAndRandomTwoBitFlips) {
  std::vector<unsigned char> tile = real_tile_bytes().input;
  const std::uint64_t clean = tile_hash(tile);
  const std::uint64_t clean_fnv = word_fnv_tile_hash(tile);

  // Bit 63 of words i and j sharing a lane (i = j mod 4), first 256 words.
  std::size_t pairs = 0;
  std::size_t missed = 0;
  std::size_t missed_fnv = 0;
  for (std::size_t i = 0; i < 256; ++i) {
    for (std::size_t j = i + 4; j < 256; j += 4) {
      flip_bit(tile, 64 * i + 63);
      flip_bit(tile, 64 * j + 63);
      ++pairs;
      missed += tile_hash(tile) == clean;
      missed_fnv += word_fnv_tile_hash(tile) == clean_fnv;
      flip_bit(tile, 64 * i + 63);
      flip_bit(tile, 64 * j + 63);
    }
  }
  EXPECT_EQ(pairs, 4u * (64 * 63 / 2));
  EXPECT_EQ(missed, 0u);
  EXPECT_EQ(missed_fnv, pairs);  // the control misses every one

  Rng rng(0x2b17);
  const std::size_t bits = tile.size() * 8;
  missed = 0;
  missed_fnv = 0;
  for (int trial = 0; trial < 100000; ++trial) {
    const std::size_t a = rng.uniform_index(bits);
    std::size_t b = rng.uniform_index(bits - 1);
    b += b >= a;  // distinct from a
    flip_bit(tile, a);
    flip_bit(tile, b);
    missed += tile_hash(tile) == clean;
    missed_fnv += word_fnv_tile_hash(tile) == clean_fnv;
    flip_bit(tile, a);
    flip_bit(tile, b);
  }
  EXPECT_EQ(missed, 0u);
  EXPECT_GT(missed_fnv, 0u);
}

/// Writes a bare 40-byte tile-file header (the on-disk RawHeader layout)
/// claiming `tiles` bands, then 64 + tile_bytes zero bytes.
void write_raw_header(const std::string& path, const char (&magic)[9],
                      std::uint32_t version, std::uint32_t n,
                      std::uint32_t tile_dim, std::uint32_t tiles,
                      std::uint64_t tile_bytes) {
  std::ofstream f(path, std::ios::binary);
  const std::uint64_t data_offset = 64;
  f.write(magic, 8);
  f.write(reinterpret_cast<const char*>(&version), 4);
  f.write(reinterpret_cast<const char*>(&n), 4);
  f.write(reinterpret_cast<const char*>(&tile_dim), 4);
  f.write(reinterpret_cast<const char*>(&tiles), 4);
  f.write(reinterpret_cast<const char*>(&tile_bytes), 8);
  f.write(reinterpret_cast<const char*>(&data_offset), 8);
  const std::vector<char> rest(64 + tile_bytes, 0);  // index, sums, tile
  f.write(rest.data(), static_cast<std::streamsize>(rest.size()));
}

/// The same header with a consistent band count, ceil(n / tile_dim).
void write_raw_header(const std::string& path, const char (&magic)[9],
                      std::uint32_t version, std::uint32_t n,
                      std::uint32_t tile_dim, std::uint64_t tile_bytes) {
  write_raw_header(path, magic, version, n, tile_dim,
                   (n + tile_dim - 1) / tile_dim, tile_bytes);
}

/// The message of the TileFormatError `open` throws ("" if none; any
/// other exception escapes and fails the test).
std::string open_error(const std::function<void()>& open) {
  try {
    open();
  } catch (const TileFormatError& e) {
    return e.what();
  }
  return "";
}

TEST(TileChecksum, PreviousFormatGenerationsAreUnsupportedVersions) {
  const std::string path = scratch_path("old_version");
  // v3 input stores carried per-row bitmasks after each tile's floats.
  write_raw_header(path, "TIVSHRD3", 3, 16, 16, 16 * 16 * 4 + 16 * 8);
  EXPECT_NE(open_error([&] { TileFile::open(kInputFormat, path); })
                .find("unsupported version"),
            std::string::npos);
  write_raw_header(path, "TIVSSEV1", 1, 16, 16, 16 * 16 * 4);
  EXPECT_NE(open_error([&] { TileFile::open(kSinkFormat, path); })
                .find("unsupported version"),
            std::string::npos);
  // A foreign magic is still a foreign file.
  write_raw_header(path, "NOTATILE", 4, 16, 16, 16 * 16 * 4);
  EXPECT_NE(open_error([&] { TileFile::open(kInputFormat, path); })
                .find("bad magic"),
            std::string::npos);
  std::filesystem::remove(path);
}

TEST(TileStore, HostileHeadersThrowBeforeAllocating) {
  const std::string path = scratch_path("hostile");
  constexpr std::uint32_t kDim = 64;
  constexpr std::uint64_t kTileBytes = kDim * kDim * 4;
  // n + tile_dim - 1 wraps to 15 in 32 bits, so tiles = 0 once passed
  // for a store of 4 294 967 280 hosts.
  write_raw_header(path, "TIVSHRD4", 4, 0xFFFFFFF0u, kDim, 0, kTileBytes);
  EXPECT_THROW(TileFile::open(kInputFormat, path), TileFormatError);
  EXPECT_NE(open_error([&] { TileFile::open(kInputFormat, path); })
                .find("inconsistent header"),
            std::string::npos);
  // Consistent geometry whose index and checksum table (2^32 and 2^24
  // entries per table) cannot fit this ~16 KiB file: rejected before the
  // tables are sized from the header (32 GiB and 128 MiB before).
  for (const std::uint32_t tiles : {1u << 16, 1u << 12}) {
    write_raw_header(path, "TIVSHRD4", 4, tiles * kDim, kDim, tiles,
                     kTileBytes);
    EXPECT_THROW(TileFile::open(kInputFormat, path), TileFormatError)
        << "tiles=" << tiles;
    EXPECT_NE(open_error([&] { TileFile::open(kInputFormat, path); })
                  .find("does not fit the file"),
              std::string::npos)
        << "tiles=" << tiles;
  }
  // The sink format shares the check (its triangular index holds 2^31
  // entries here).
  write_raw_header(path, "TIVSSEV2", 2, (1u << 16) * kDim, kDim, 1u << 16,
                   kTileBytes);
  EXPECT_THROW(TileFile::open(kSinkFormat, path), TileFormatError);
  EXPECT_NE(open_error([&] { TileFile::open(kSinkFormat, path); })
                .find("does not fit the file"),
            std::string::npos);
  std::filesystem::remove(path);
}

TEST(TileStore, WritesVersion4PayloadOnlyTiles) {
  const DelayMatrix m = random_matrix(64, 0.3, 63);
  const std::string path = scratch_path("v4");
  shard::write_matrix(path, m, 64);
  EXPECT_EQ(TileFile::open(kInputFormat, path).tile_bytes(),
            16384u);  // 64 x 64 floats
  char magic[8];
  std::uint32_t version = 0;
  std::ifstream f(path, std::ios::binary);
  f.read(magic, sizeof(magic));
  f.read(reinterpret_cast<char*>(&version), sizeof(version));
  EXPECT_EQ(std::string(magic, sizeof(magic)), "TIVSHRD4");
  EXPECT_EQ(version, 4u);
  std::filesystem::remove(path);
}

TEST(TileChecksum, GoldenValuesArePinned) {
  // Every store, manifest and trace on disk carries these hashes: a change
  // here makes existing files unreadable and needs a format version bump.
  std::vector<unsigned char> bytes(1000);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<unsigned char>(i * 7 + 3);
  }
  EXPECT_EQ(shard::checksum64(bytes.data(), 0), 0x9090306c6e91ed59ull);
  EXPECT_EQ(shard::checksum64(bytes.data(), 5), 0x56f25f6298ebe7b1ull);
  EXPECT_EQ(shard::checksum64(bytes.data(), 32), 0x2644d7437bfec4c1ull);
  EXPECT_EQ(shard::checksum64(bytes.data(), 1000), 0xd72543d89a218b37ull);
  EXPECT_EQ(shard::checksum64(bytes.data() + 640, 360,
                              shard::checksum64(bytes.data(), 640)),
            0x9afafba09d4b17d6ull);
}

TEST(TileCache, InvalidateDropsResidentTileAndRereadsRepack) {
  DelayMatrix m = random_matrix(32, 0.0, 24);
  const std::string path = scratch_path("invalidate");
  shard::write_matrix(path, m, 16);
  auto store = TileFile::open(kInputFormat, path, /*writable=*/true);
  TileCache cache(store, 1u << 20, "cache.input");

  { const auto tile = cache.acquire(0, 1); }  // load, then unpin
  m.set(1, 20, 123.0f);  // row 1 (band 0), column 20 (band 1): tile (0, 1)
  shard::repack_tile(store, m, 0, 1);
  cache.invalidate(0, 1);

  auto stats = cache.stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.current_bytes, 0u);
  cache.invalidate(0, 1);  // absent: a no-op
  EXPECT_EQ(cache.stats().invalidations, 1u);

  const auto tile = cache.acquire(0, 1);  // re-read sees the repacked bytes
  EXPECT_EQ(tile->row(1)[4], 123.0f);     // local (1, 20-16)
  EXPECT_EQ(cache.stats().misses, 2u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace tiv::core
