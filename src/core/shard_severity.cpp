#include "core/shard_severity.hpp"

#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "core/triangle_schedule.hpp"
#include "core/witness_kernels.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace tiv::core {
namespace {

using delayspace::DelayMatrixView;
using shard::TileCache;
using shard::TileRef;
using shard::TileStore;

// ---------------------------------------------------------------------------
// Band-pair streaming.
//
// The matrix is stored as square tiles of T = store.tile_dim() rows. The
// driver walks unordered band pairs (I, J), I <= J, of the upper triangle —
// the same decomposition as the in-memory kernel's 16-row tiles, just at
// tile-store granularity — dynamically scheduled over the pool. For one
// band pair it pins the d_ac tile (I, J), then streams witness bands K in
// ascending column order, pinning tiles (I, K) and (J, K) and feeding each
// pair's kWitnessLanes accumulators. Ascending K plus lane-aligned tile
// widths is what makes the partial sums land in the same lanes, in the
// same order, as the monolithic in-memory row scan — hence bit-identical
// severities (see witness_kernels.hpp).
//
// Cache locality: band pairs are walked row-major within the band
// triangle, so consecutive pairs share band I and re-hit its (I, K) tiles;
// while band K computes, tiles for K+1 load on the cache's background I/O
// thread.
//
// One body, process_band_pair_to_sink, serves the full build (every pair),
// the dirty-epoch repair (pairs incident to dirty hosts) and the one-tile
// rebuild, writing tile-shaped results into the sink instead of filling an
// N^2 buffer.
// ---------------------------------------------------------------------------

/// Runs fn(I, J) over all band pairs I <= J, dynamically scheduled
/// (core/triangle_schedule.hpp, shared with the in-memory tile loop).
///
/// Unlike the in-memory kernels — noexcept in practice — the band body does
/// tile I/O, which can throw (truncated store file, disk error). The pool
/// contract terminates the process on a worker-thread exception, so the
/// body is wrapped: the first failure is captured, remaining pairs are
/// skipped, and the exception rethrows on the calling thread after the
/// parallel loop drains.
template <typename PairFn>
void for_each_band_pair(std::uint32_t bands, PairFn&& fn) {
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;
  for_each_triangle_pair(bands, [&](std::size_t bi, std::size_t bj) {
    if (failed.load(std::memory_order_relaxed)) return;
    try {
      fn(static_cast<std::uint32_t>(bi), static_cast<std::uint32_t>(bj));
    } catch (...) {
      std::lock_guard<std::mutex> lk(error_mutex);
      if (!error) error = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
    }
  });
  if (error) std::rethrow_exception(error);
}

/// Issues background loads for witness band k of row bands bi/bj.
void prefetch_band(TileCache& cache, std::uint32_t bi, std::uint32_t bj,
                   std::uint32_t k, std::uint32_t bands) {
  if (k >= bands) return;
  cache.prefetch(bi, k);
  if (bj != bi) cache.prefetch(bj, k);
}

/// One (a, c) pair of a band pair selected for recomputation, tile-local.
struct PairTask {
  std::uint32_t al;
  std::uint32_t cl;
  float dac;
};

struct BandPairResult {
  std::size_t recomputed = 0;  ///< pairs re-evaluated (incl. zero-resets)
  bool committed = false;      ///< sink tile rewritten
};

/// Per-thread working buffers of process_band_pair_to_sink — the sink tile
/// image, the selected pairs, and their accumulator lanes (O(T^2), outside
/// the cache budgets by design). Kept per pool worker and reused across
/// band pairs and epochs, so the repair loop allocates nothing once warm.
struct BandPairScratch {
  std::vector<float> buf;
  std::vector<PairTask> tasks;
  std::vector<double> acc;
};

BandPairScratch& band_pair_scratch() {
  thread_local BandPairScratch scratch;
  return scratch;
}

/// Recomputes the selected pairs of band pair (bi, bj) and commits the sink
/// tile. dirty_i/dirty_j flag dirty tile-local rows of the two bands
/// (ignored when full_build, which selects every pair and skips the
/// read-modify cycle — create() zeroed the tile). The witness walk scans
/// full tile widths in ascending k, so every stored float is bit-identical
/// to the in-memory kernel's.
BandPairResult process_band_pair_to_sink(
    const TileStore& store, TileCache& cache, sink::SeverityTileStore& sink,
    std::uint32_t bi, std::uint32_t bj, const std::uint8_t* dirty_i,
    const std::uint8_t* dirty_j, bool full_build) {
  const std::uint32_t T = store.tile_dim();
  const std::uint32_t bands = store.tiles_per_side();
  const std::uint32_t rows_i = store.band_rows(bi);
  const std::uint32_t rows_j = store.band_rows(bj);
  const auto nd = static_cast<double>(store.size());
  const TileRef dac_tile = cache.acquire(bi, bj);

  BandPairScratch& scratch = band_pair_scratch();
  std::vector<float>& buf = scratch.buf;
  std::vector<PairTask>& tasks = scratch.tasks;
  buf.assign(sink.payload_floats(), 0.0f);
  if (!full_build) sink.read_tile(bi, bj, buf.data());
  tasks.clear();

  BandPairResult res;
  bool zeroed = false;  ///< a stale value was reset to 0 in buf
  for (std::uint32_t al = 0; al < rows_i; ++al) {
    const float* dac_row = dac_tile->row(al);
    const std::uint32_t c_lo = bi == bj ? al + 1 : 0;
    for (std::uint32_t cl = c_lo; cl < rows_j; ++cl) {
      if (!full_build && !(dirty_i[al] | dirty_j[cl])) continue;
      ++res.recomputed;
      const float d_ac = dac_row[cl];
      if (d_ac >= DelayMatrixView::kMaskedDelay) {
        // Unmeasured — possibly a measured->missing transition this epoch:
        // a rebuild leaves 0 there, so the stale severity is reset.
        const std::size_t o = static_cast<std::size_t>(al) * T + cl;
        const std::size_t om = static_cast<std::size_t>(cl) * T + al;
        zeroed |= buf[o] != 0.0f || (bi == bj && buf[om] != 0.0f);
        buf[o] = 0.0f;
        if (bi == bj) buf[om] = 0.0f;
        continue;
      }
      tasks.push_back({al, cl, d_ac});
    }
  }
  if (!full_build && tasks.empty() && !zeroed) return res;  // tile untouched

  if (!tasks.empty()) {
    std::vector<double>& acc = scratch.acc;
    acc.assign(tasks.size() * kWitnessLanes, 0.0);
    for (std::uint32_t k = 0; k < bands; ++k) {
      prefetch_band(cache, bi, bj, k + 1, bands);
      const TileRef ta = cache.acquire(bi, k);
      const TileRef tc = bj == bi ? ta : cache.acquire(bj, k);
      for (std::size_t t = 0; t < tasks.size(); ++t) {
        witness_ratio_accumulate(ta->row(tasks[t].al), tc->row(tasks[t].cl),
                                 T, tasks[t].dac,
                                 acc.data() + t * kWitnessLanes);
      }
    }
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      const double ratio_sum =
          witness_ratio_reduce(acc.data() + t * kWitnessLanes);
      const float v = static_cast<float>(ratio_sum / nd);
      buf[static_cast<std::size_t>(tasks[t].al) * T + tasks[t].cl] = v;
      if (bi == bj) {
        buf[static_cast<std::size_t>(tasks[t].cl) * T + tasks[t].al] = v;
      }
    }
  }
  sink.write_tile(bi, bj, buf.data());
  res.committed = true;
  return res;
}

void check_sink_matches(const TileStore& store,
                        const sink::SeverityTileStore& sink) {
  if (sink.size() != store.size() || sink.tile_dim() != store.tile_dim()) {
    throw std::invalid_argument(
        "severity sink geometry (n, tile_dim) must match the input store");
  }
  if (!sink.writable()) {
    throw std::invalid_argument("severity sink must be opened writable");
  }
}

}  // namespace

void all_severities_to_sink(const TileStore& store, TileCache& cache,
                            sink::SeverityTileStore& sink) {
  check_sink_matches(store, sink);
  obs::Span span("band-pair-stream");
  for_each_band_pair(store.tiles_per_side(),
                     [&](std::uint32_t bi, std::uint32_t bj) {
                       process_band_pair_to_sink(store, cache, sink, bi, bj,
                                                 nullptr, nullptr, true);
                     });
}

void rebuild_sink_tile(const TileStore& store, TileCache& cache,
                       sink::SeverityTileStore& sink, std::uint32_t bi,
                       std::uint32_t bj) {
  check_sink_matches(store, sink);
  process_band_pair_to_sink(store, cache, sink, bi, bj, nullptr, nullptr,
                            true);
}

SinkRepairStats repair_severities_to_sink(
    const TileStore& store, TileCache& cache, sink::SeverityTileStore& sink,
    std::span<const HostId> dirty_hosts) {
  check_sink_matches(store, sink);
  SinkRepairStats stats;
  if (dirty_hosts.empty() || store.size() < 2) return stats;

  const std::uint32_t T = store.tile_dim();
  const std::uint32_t bands = store.tiles_per_side();
  // Tile-local dirty-row bitmaps; a band with no dirty host keeps an empty
  // vector and borrows the shared all-clean bitmap below.
  std::vector<std::vector<std::uint8_t>> dirty(bands);
  for (const HostId h : dirty_hosts) {
    auto& band = dirty[h / T];
    if (band.empty()) band.assign(T, 0);
    band[h % T] = 1;
  }
  const std::vector<std::uint8_t> clean(T, 0);

  obs::Span span("band-pair-stream");
  std::atomic<std::size_t> recomputed{0};
  std::atomic<std::size_t> committed{0};
  for_each_band_pair(bands, [&](std::uint32_t bi, std::uint32_t bj) {
    if (dirty[bi].empty() && dirty[bj].empty()) return;  // no dirty edge
    const BandPairResult r = process_band_pair_to_sink(
        store, cache, sink, bi, bj,
        (dirty[bi].empty() ? clean : dirty[bi]).data(),
        (dirty[bj].empty() ? clean : dirty[bj]).data(), false);
    recomputed.fetch_add(r.recomputed, std::memory_order_relaxed);
    committed.fetch_add(r.committed ? 1 : 0, std::memory_order_relaxed);
  });
  stats.edges_recomputed = recomputed.load();
  stats.tiles_committed = committed.load();
  return stats;
}

}  // namespace tiv::core
