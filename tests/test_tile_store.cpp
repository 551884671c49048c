// Tests for the out-of-core shard subsystem: TileStore round-tripping the
// packed-view representation, TileCache budget/eviction accounting, and the
// streaming severity driver's bit-identical equivalence to the in-memory
// kernel — on dense and 30%-missing matrices, across tile sizes that do and
// do not divide N, and under a tiny cache budget that forces eviction.
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/shard_severity.hpp"
#include "core/severity.hpp"
#include "delayspace/delay_matrix.hpp"
#include "matrix_test_utils.hpp"
#include "shard/checksum.hpp"
#include "shard/fault_injector.hpp"
#include "shard/tile_cache.hpp"
#include "shard/tile_store.hpp"
#include "sink/severity_tile_store.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace tiv::core {
namespace {

using delayspace::DelayMatrix;
using delayspace::DelayMatrixView;
using delayspace::HostId;
using shard::TileCache;
using shard::TileStore;

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

void expect_streamed_matches_in_memory(const DelayMatrix& m,
                                       std::uint32_t tile_dim,
                                       std::size_t budget_bytes,
                                       bool expect_evictions) {
  const std::string path = scratch_path(
      "equiv_n" + std::to_string(m.size()) + "_t" + std::to_string(tile_dim));
  TileStore::write_matrix(path, m, tile_dim);
  const TileStore store = TileStore::open(path);
  TileCache cache(store, budget_bytes);

  const SeverityMatrix streamed = all_severities_streamed(store, cache);
  const SeverityMatrix in_memory = TivAnalyzer(m).all_severities();
  const HostId n = m.size();
  for (HostId i = 0; i < n; ++i) {
    for (HostId j = i + 1; j < n; ++j) {
      // Bit-for-bit: the streamed driver feeds the same accumulator lanes
      // in the same order as the monolithic row scan.
      EXPECT_EQ(streamed.at(i, j), in_memory.at(i, j))
          << "edge (" << i << ", " << j << ")";
    }
  }

  const double streamed_frac = violating_triangle_fraction_streamed(
      store, cache);
  const double in_memory_frac = TivAnalyzer(m).violating_triangle_fraction();
  EXPECT_EQ(streamed_frac, in_memory_frac);

  const auto stats = cache.stats();
  EXPECT_GT(stats.misses, 0u);
  // Budgets in these tests always dominate the pinned working set, so the
  // accounting invariant tightens to a hard bound.
  EXPECT_LE(stats.peak_bytes, budget_bytes);
  if (expect_evictions) EXPECT_GT(stats.evictions, 0u);
  std::filesystem::remove(path);
}

TEST(TileStore, RoundTripsPackedViewBlocks) {
  const HostId n = 37;  // does not divide the 16-wide tile
  const DelayMatrix m = random_matrix(n, 0.25, 5);
  const std::string path = scratch_path("roundtrip");
  TileStore::write_matrix(path, m, 16);
  const TileStore store = TileStore::open(path);
  EXPECT_EQ(store.size(), n);
  EXPECT_EQ(store.tile_dim(), 16u);
  EXPECT_EQ(store.tiles_per_side(), 3u);
  EXPECT_EQ(store.band_rows(0), 16u);
  EXPECT_EQ(store.band_rows(2), 5u);

  const DelayMatrixView view(m);
  std::vector<float> payload(store.payload_floats());
  std::vector<std::uint64_t> masks(store.mask_words());
  for (std::uint32_t tr = 0; tr < store.tiles_per_side(); ++tr) {
    for (std::uint32_t tc = 0; tc < store.tiles_per_side(); ++tc) {
      store.read_tile(tr, tc, payload.data(), masks.data());
      for (std::uint32_t lr = 0; lr < 16; ++lr) {
        const HostId i = tr * 16 + lr;
        for (std::uint32_t lb = 0; lb < 16; ++lb) {
          const HostId b = tc * 16 + lb;
          const float got = payload[lr * 16 + lb];
          const bool mask_bit = (masks[lr * store.mask_words_per_row() +
                                       (lb >> 6)] >>
                                 (lb & 63)) &
                                1;
          if (i >= n || b >= n) {
            // Edge-tile padding: masked payload, zero mask bits.
            EXPECT_EQ(got, DelayMatrixView::kMaskedDelay);
            EXPECT_FALSE(mask_bit);
          } else {
            EXPECT_EQ(got, view.row(i)[b]) << "(" << i << ", " << b << ")";
            EXPECT_EQ(mask_bit, m.has(i, b)) << "(" << i << ", " << b << ")";
          }
        }
      }
    }
  }
  std::filesystem::remove(path);
}

TEST(TileStore, RejectsBadTileDim) {
  const DelayMatrix m = random_matrix(8, 0.0, 6);
  EXPECT_THROW(TileStore::write_matrix(scratch_path("bad"), m, 0),
               std::invalid_argument);
  EXPECT_THROW(TileStore::write_matrix(scratch_path("bad"), m, 24),
               std::invalid_argument);
}

TEST(TileStore, OpenRejectsMissingAndMalformed) {
  EXPECT_THROW(TileStore::open("/nonexistent/tiv_tiles"), std::runtime_error);
  const std::string path = scratch_path("garbage");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a tile store", f);
    std::fclose(f);
  }
  EXPECT_THROW(TileStore::open(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(ShardSeverity, StreamedMatchesInMemoryDense) {
  // 96 divides the 16- and 32-wide grids; generous budget (no eviction
  // pressure beyond capacity).
  expect_streamed_matches_in_memory(random_matrix(96, 0.0, 11), 32,
                                    1u << 22, false);
}

TEST(ShardSeverity, StreamedMatchesInMemoryThirtyPercentMissing) {
  expect_streamed_matches_in_memory(random_matrix(96, 0.3, 12), 32,
                                    1u << 22, false);
}

TEST(ShardSeverity, TileSizeNotDividingN) {
  // 133 = 8*16 + 5: ragged last band in both 16- and 48-wide grids.
  expect_streamed_matches_in_memory(random_matrix(133, 0.3, 13), 16,
                                    1u << 22, false);
  expect_streamed_matches_in_memory(random_matrix(133, 0.2, 14), 48,
                                    1u << 22, false);
}

TEST(ShardSeverity, TinyBudgetForcesEvictionAndStaysWithinIt) {
  // 8x8 bands of 16-wide tiles; a budget of 8 tiles cannot hold the 36
  // upper-triangle band pairs' worth of working set, so the LRU must evict
  // — and the accounting must keep peak bytes within the budget.
  set_parallel_thread_count(2);
  const HostId n = 128;
  const std::uint32_t tile_dim = 16;
  const std::size_t tile_bytes =
      tile_dim * tile_dim * sizeof(float) + tile_dim * sizeof(std::uint64_t);
  expect_streamed_matches_in_memory(random_matrix(n, 0.1, 15), tile_dim,
                                    8 * tile_bytes, true);
  set_parallel_thread_count(0);
}

TEST(ShardSeverity, BudgetedAutoSelection) {
  const DelayMatrix m = random_matrix(97, 0.2, 16);
  const SeverityMatrix reference = TivAnalyzer(m).all_severities();

  // Unbounded budget: in-memory path.
  OutOfCoreReport report;
  OutOfCoreConfig in_mem;
  const SeverityMatrix s1 = all_severities_budgeted(m, in_mem, &report);
  EXPECT_FALSE(report.out_of_core);

  // Budget below the packed view: spill-and-stream, same result.
  OutOfCoreConfig ooc;
  ooc.memory_budget_bytes = packed_view_bytes(m.size()) / 4;
  ooc.tile_dim = 16;
  ooc.spill_path = scratch_path("auto");
  const SeverityMatrix s2 = all_severities_budgeted(m, ooc, &report);
  EXPECT_TRUE(report.out_of_core);
  EXPECT_GT(report.cache.misses, 0u);
  EXPECT_FALSE(std::filesystem::exists(ooc.spill_path));  // spill cleaned up

  for (HostId i = 0; i < m.size(); ++i) {
    for (HostId j = i + 1; j < m.size(); ++j) {
      EXPECT_EQ(s1.at(i, j), reference.at(i, j));
      EXPECT_EQ(s2.at(i, j), reference.at(i, j));
    }
  }

  const double f_in = violating_triangle_fraction_budgeted(m, in_mem);
  const double f_ooc = violating_triangle_fraction_budgeted(m, ooc);
  EXPECT_EQ(f_in, TivAnalyzer(m).violating_triangle_fraction());
  EXPECT_EQ(f_ooc, f_in);
}

TEST(ShardSeverity, TileReadFailurePropagatesAsException) {
  // Tile I/O runs on pool workers, where an escaped exception would
  // terminate the process; the band-pair driver must capture it and
  // rethrow on the calling thread as a catchable error.
  set_parallel_thread_count(2);
  const DelayMatrix m = random_matrix(96, 0.1, 20);
  const std::string path = scratch_path("truncated");
  TileStore::write_matrix(path, m, 16);
  const TileStore store = TileStore::open(path);
  std::filesystem::resize_file(path, 512);  // header survives, tiles gone
  TileCache cache(store, 1u << 20);
  EXPECT_THROW(all_severities_streamed(store, cache), std::runtime_error);
  std::filesystem::remove(path);
  set_parallel_thread_count(0);
}

TEST(TileStore, RepackTileIsByteIdenticalToFreshBuild) {
  // Mutate a few edges (values and missing toggles), repack exactly the
  // dirty hosts' row-band tiles in place, and demand the whole store file
  // equals a from-scratch write_matrix of the mutated matrix byte for byte
  // — tile payloads, masks, and the checksum table included.
  DelayMatrix m = random_matrix(70, 0.3, 21);  // 70 = 4*16 + 6: ragged band
  const std::string path = scratch_path("repack");
  TileStore::write_matrix(path, m, 16);

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
    auto store = TileStore::open(path, /*writable=*/true);
    EXPECT_TRUE(store.writable());
    for (std::uint32_t r = 0; r < store.tiles_per_side(); ++r) {
      if (!band_dirty[r]) continue;
      for (std::uint32_t c = 0; c < store.tiles_per_side(); ++c) {
        store.repack_tile(m, r, c);
      }
    }
  }
  const std::string fresh_path = scratch_path("repack_fresh");
  TileStore::write_matrix(fresh_path, m, 16);
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

TEST(TileStore, RepackOnReadOnlyStoreThrows) {
  const DelayMatrix m = random_matrix(16, 0.0, 22);
  const std::string path = scratch_path("repack_ro");
  TileStore::write_matrix(path, m, 16);
  auto store = TileStore::open(path);
  EXPECT_THROW(store.repack_tile(m, 0, 0), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(TileStore, CorruptTileIsRejectedLoudly) {
  const DelayMatrix m = random_matrix(37, 0.2, 23);
  const std::string path = scratch_path("checksum");
  TileStore::write_matrix(path, m, 16);
  // Flip one byte inside the last tile's payload.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(-64, std::ios::end);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-64, std::ios::end);
    byte ^= 0x5a;
    f.write(&byte, 1);
  }
  const TileStore store = TileStore::open(path);
  std::vector<float> payload(store.payload_floats());
  std::vector<std::uint64_t> masks(store.mask_words());
  const std::uint32_t last = store.tiles_per_side() - 1;
  EXPECT_THROW(store.read_tile(last, last, payload.data(), masks.data()),
               shard::CorruptTileError);
  // CorruptTileError is still a runtime_error for coarse-grained handlers,
  // and other tiles stay readable.
  EXPECT_THROW(store.read_tile(last, last, payload.data(), masks.data()),
               std::runtime_error);
  store.read_tile(0, 0, payload.data(), masks.data());
  std::filesystem::remove(path);
}

// --- Tile checksum detection -------------------------------------------------

/// One serialized input tile (payload then masks, 16 896 B at T = 64) and
/// one sink tile (16 384 B) of a 30%-missing matrix, read back through the
/// stores so the bytes are exactly what the checksums cover.
struct TileBytes {
  std::vector<unsigned char> input;
  std::size_t input_payload_bytes = 0;
  std::vector<unsigned char> sink;
};

TileBytes real_tile_bytes() {
  const DelayMatrix m = random_matrix(64, 0.3, 61);
  const std::string in_path = scratch_path("bytes_in");
  const std::string out_path = scratch_path("bytes_out");
  TileStore::write_matrix(in_path, m, 64);
  const TileStore store = TileStore::open(in_path);
  TileCache cache(store, 1u << 20);
  sink::SeverityTileStore::create(out_path, 64, 64);
  auto sink = sink::SeverityTileStore::open(out_path, /*writable=*/true);
  all_severities_to_sink(store, cache, sink);

  TileBytes t;
  std::vector<float> payload(store.payload_floats());
  std::vector<std::uint64_t> masks(store.mask_words());
  store.read_tile(0, 0, payload.data(), masks.data());
  t.input_payload_bytes = payload.size() * sizeof(float);
  t.input.resize(store.tile_bytes());
  std::memcpy(t.input.data(), payload.data(), t.input_payload_bytes);
  std::memcpy(t.input.data() + t.input_payload_bytes, masks.data(),
              masks.size() * sizeof(std::uint64_t));
  std::vector<float> sev(sink.payload_floats());
  sink.read_tile(0, 0, sev.data());
  t.sink.resize(sink.tile_bytes());
  std::memcpy(t.sink.data(), sev.data(), t.sink.size());
  std::filesystem::remove(in_path);
  std::filesystem::remove(out_path);
  return t;
}

/// The tile checksum exactly as shard::TileFile chains it over sections.
std::uint64_t tile_hash(const std::vector<unsigned char>& bytes,
                        std::size_t first_section_bytes) {
  const std::uint64_t h = shard::checksum64(bytes.data(), first_section_bytes);
  return shard::checksum64(bytes.data() + first_section_bytes,
                           bytes.size() - first_section_bytes, h);
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
  ASSERT_EQ(t.input.size(), 16896u);
  ASSERT_EQ(t.sink.size(), 16384u);
  for (auto* tile : {&t.input, &t.sink}) {
    const std::size_t first =
        tile == &t.input ? t.input_payload_bytes : tile->size();
    const std::uint64_t clean = tile_hash(*tile, first);
    std::size_t missed = 0;
    for (std::size_t bit = 0; bit < tile->size() * 8; ++bit) {
      flip_bit(*tile, bit);
      missed += tile_hash(*tile, first) == clean;
      flip_bit(*tile, bit);
    }
    EXPECT_EQ(missed, 0u) << "tile of " << tile->size() << " bytes";
  }
}

TEST(TileChecksum, InjectedReadFlipsSurfaceAsCorruptTileAfterRetries) {
  const DelayMatrix m = random_matrix(64, 0.3, 62);
  const std::string in_path = scratch_path("flip_in");
  const std::string out_path = scratch_path("flip_out");
  TileStore::write_matrix(in_path, m, 64);
  TileStore store = TileStore::open(in_path);
  sink::SeverityTileStore::create(out_path, 64, 64);
  auto sink = sink::SeverityTileStore::open(out_path);
  std::vector<float> payload(store.payload_floats());
  std::vector<std::uint64_t> masks(store.mask_words());
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
    EXPECT_THROW(store.read_tile(0, 0, payload.data(), masks.data()),
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
  store.read_tile(0, 0, payload.data(), masks.data());  // disk is intact
  std::filesystem::remove(in_path);
  std::filesystem::remove(out_path);
}

TEST(TileChecksum, DetectsSameLaneSignBitPairsAndRandomTwoBitFlips) {
  std::vector<unsigned char> tile = real_tile_bytes().input;
  const std::size_t first = 16384;
  const std::uint64_t clean = tile_hash(tile, first);
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
      missed += tile_hash(tile, first) == clean;
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
    missed += tile_hash(tile, first) == clean;
    missed_fnv += word_fnv_tile_hash(tile) == clean_fnv;
    flip_bit(tile, a);
    flip_bit(tile, b);
  }
  EXPECT_EQ(missed, 0u);
  EXPECT_GT(missed_fnv, 0u);
}

/// Writes a bare 40-byte tile-file header (the on-disk RawHeader layout).
void write_raw_header(const std::string& path, const char (&magic)[9],
                      std::uint32_t version, std::uint32_t n,
                      std::uint32_t tile_dim, std::uint64_t tile_bytes) {
  std::ofstream f(path, std::ios::binary);
  const std::uint32_t tiles = (n + tile_dim - 1) / tile_dim;
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

std::string open_error(const std::function<void()>& open) {
  try {
    open();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(TileChecksum, PreviousFormatGenerationsAreUnsupportedVersions) {
  const std::string path = scratch_path("old_version");
  write_raw_header(path, "TIVSHRD2", 2, 16, 16, 16 * 16 * 4 + 16 * 8);
  EXPECT_NE(open_error([&] { TileStore::open(path); })
                .find("unsupported version"),
            std::string::npos);
  write_raw_header(path, "TIVSSEV1", 1, 16, 16, 16 * 16 * 4);
  EXPECT_NE(open_error([&] { sink::SeverityTileStore::open(path); })
                .find("unsupported version"),
            std::string::npos);
  // A foreign magic is still a foreign file.
  write_raw_header(path, "NOTATILE", 3, 16, 16, 16 * 16 * 4 + 16 * 8);
  EXPECT_NE(open_error([&] { TileStore::open(path); }).find("bad magic"),
            std::string::npos);
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
  TileStore::write_matrix(path, m, 16);
  auto store = TileStore::open(path, /*writable=*/true);
  TileCache cache(store, 1u << 20);

  { const auto tile = cache.acquire(0, 1); }  // load, then unpin
  m.set(1, 20, 123.0f);  // row 1 (band 0), column 20 (band 1): tile (0, 1)
  store.repack_tile(m, 0, 1);
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

TEST(TileCache, CountsHitsMissesAndReusesResidentTiles) {
  const DelayMatrix m = random_matrix(64, 0.1, 17);
  const std::string path = scratch_path("cache");
  TileStore::write_matrix(path, m, 16);
  const TileStore store = TileStore::open(path);
  TileCache cache(store, 1u << 20);

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
  std::filesystem::remove(path);
}

TEST(TileCache, EvictsLeastRecentlyUsedButNeverPinned) {
  const DelayMatrix m = random_matrix(64, 0.1, 18);
  const std::string path = scratch_path("evict");
  TileStore::write_matrix(path, m, 16);
  const TileStore store = TileStore::open(path);
  // Room for exactly two resident tiles.
  TileCache cache(store, 2 * store.tile_bytes());

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
  std::filesystem::remove(path);
}

TEST(TileCache, PrefetchLoadsInBackground) {
  const DelayMatrix m = random_matrix(64, 0.1, 19);
  const std::string path = scratch_path("prefetch");
  TileStore::write_matrix(path, m, 16);
  const TileStore store = TileStore::open(path);
  TileCache cache(store, 1u << 20);

  cache.prefetch(3, 3);
  // acquire() waits for an in-flight background load of the same tile (or
  // loads it itself if the hint was shed) — either way the tile arrives.
  const auto tile = cache.acquire(3, 3);
  EXPECT_NE(tile.get(), nullptr);
  const DelayMatrixView view(m);
  EXPECT_EQ(tile->row(0)[1], view.row(48)[49]);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace tiv::core
