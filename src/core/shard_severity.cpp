#include "core/shard_severity.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/edge_repair.hpp"
#include "core/triangle_schedule.hpp"
#include "core/witness_kernels.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace tiv::core {
namespace {

using delayspace::DelayMatrixView;
using shard::TileCache;
using shard::TileFile;
using shard::TileIndexShape;
using shard::TileRef;

// ---------------------------------------------------------------------------
// The band-pair walk over the input tiles, and the epoch repair beside it.
//
// The matrix is stored as square tiles of T = tile_dim rows; band b
// is rows (and, by symmetry, columns) [b*T, b*T + T). The walk feeds
// kWitnessLanes accumulators per edge with witness bands K in ascending
// column order. Ascending K plus lane-aligned tile widths is what makes the
// partial sums land in the same lanes, in the same order, as the monolithic
// in-memory row scan — hence bit-identical severities (see
// witness_kernels.hpp). The detour d(a, w) + d(w, c) is one float addition,
// which commutes, so it does not matter which endpoint's row plays `ra`.
//
// Band-pair walk (full build, listed-tile rebuild): unordered band pairs
// (I, J), I <= J, of the upper triangle are dynamically scheduled over the
// pool. A pair pins the d_ac tile (I, J), then streams tiles (I, K) and
// (J, K) for every K and writes sink tile (I, J). Pairs are walked
// row-major, so consecutive pairs share band I and re-hit its tiles.
//
// Epoch repair: the flagged edges run through the flagged-edge repair loop
// (core/edge_repair) over rows packed from the post-epoch matrix, so
// it reads no input tile; their results merge into the sink tiles. See
// repair_severities_to_sink.
// ---------------------------------------------------------------------------

/// Funnels the first exception thrown by a pool-scheduled body back to the
/// calling thread. Unlike the in-memory kernels — noexcept in practice —
/// the tile walks do I/O, which can throw (truncated store file, disk
/// error, a corrupt tile), and the pool contract terminates the process on
/// a worker-thread exception. Bodies run through run(): the first failure
/// is captured, remaining bodies are skipped, and rethrow() raises it on
/// the calling thread after the parallel loop drains.
class FirstError {
 public:
  template <typename Fn>
  void run(Fn&& fn) {
    if (failed_.load(std::memory_order_relaxed)) return;
    try {
      fn();
    } catch (...) {
      std::lock_guard<std::mutex> lk(mutex_);
      if (!error_) error_ = std::current_exception();
      failed_.store(true, std::memory_order_relaxed);
    }
  }
  void rethrow() const {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
  std::mutex mutex_;
};

/// Runs fn(I, J) over all band pairs I <= J, dynamically scheduled
/// (core/triangle_schedule.hpp, shared with the in-memory tile loop).
template <typename PairFn>
void for_each_band_pair(std::uint32_t bands, PairFn&& fn) {
  FirstError error;
  for_each_triangle_pair(bands, [&](std::size_t bi, std::size_t bj) {
    error.run([&] {
      fn(static_cast<std::uint32_t>(bi), static_cast<std::uint32_t>(bj));
    });
  });
  error.rethrow();
}

/// Runs fn(u) over units [0, count), dynamically scheduled one per claim.
template <typename UnitFn>
void for_each_unit(std::size_t count, UnitFn&& fn) {
  FirstError error;
  parallel_for_dynamic(count, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t u = begin; u < end; ++u) error.run([&] { fn(u); });
  });
  error.rethrow();
}

/// One edge of a band pair selected for recomputation: tile-local rows
/// plus the edge's own delay.
struct PairTask {
  std::uint32_t a;
  std::uint32_t c;
  float dac;
};

/// A per-thread sink tile image, reused across units and epochs, so the
/// walk and the sink merge allocate nothing for it once warm.
std::vector<float>& tile_scratch() {
  thread_local std::vector<float> buf;
  return buf;
}

/// Row lr of sink tile (r, c): the resident tile's row, pinned by `pin`,
/// when the cache holds the tile, else that one row segment read into a
/// per-thread buffer. Never loads the tile.
const float* sink_row(TileCache& sink, std::uint32_t r, std::uint32_t c,
                      std::uint32_t lr, TileRef& pin) {
  pin = sink.peek(r, c);
  if (pin) return pin->row(lr);
  thread_local std::vector<float> segment;
  segment.resize(sink.file().tile_dim());
  sink.file().read_row_segment(r, c, lr, segment.data());
  return segment.data();
}

/// Recomputes every edge of band pair (bi, bj) and commits the sink tile —
/// bit-identical to the tile a full build writes (unmeasured pairs, the
/// diagonal and padding stay 0).
void process_band_pair_to_sink(TileCache& cache, TileFile& sink,
                               std::uint32_t bi, std::uint32_t bj) {
  const TileFile& store = cache.file();
  const std::uint32_t T = store.tile_dim();
  const std::uint32_t bands = store.tiles_per_side();
  const std::uint32_t rows_i = store.band_rows(bi);
  const std::uint32_t rows_j = store.band_rows(bj);
  const auto nd = static_cast<double>(store.size());
  const TileRef dac_tile = cache.acquire(bi, bj);

  // The pair's selected edges and their accumulator lanes: O(T^2), about
  // 300 KiB at T = 64, outside the cache budgets by design, and freed with
  // the pair, so no pool thread holds them between walks.
  std::vector<PairTask> tasks;
  tasks.reserve(std::size_t{rows_i} * rows_j);
  std::vector<float>& buf = tile_scratch();
  buf.assign(sink.payload_floats(), 0.0f);
  for (std::uint32_t al = 0; al < rows_i; ++al) {
    const float* dac_row = dac_tile->row(al);
    for (std::uint32_t cl = bi == bj ? al + 1 : 0; cl < rows_j; ++cl) {
      if (dac_row[cl] < DelayMatrixView::kMaskedDelay) {
        tasks.push_back({al, cl, dac_row[cl]});
      }
    }
  }

  std::vector<double> acc(tasks.size() * kWitnessLanes, 0.0);
  for (std::uint32_t k = 0; k < bands && !tasks.empty(); ++k) {
    const TileRef ta = cache.acquire(bi, k);
    const TileRef tc = bj == bi ? ta : cache.acquire(bj, k);
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      witness_ratio_accumulate(ta->row(tasks[t].a), tc->row(tasks[t].c), T,
                               tasks[t].dac, acc.data() + t * kWitnessLanes);
    }
  }
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const float v = static_cast<float>(
        witness_ratio_reduce(acc.data() + t * kWitnessLanes) / nd);
    buf[static_cast<std::size_t>(tasks[t].a) * T + tasks[t].c] = v;
    if (bi == bj) buf[static_cast<std::size_t>(tasks[t].c) * T + tasks[t].a] = v;
  }
  sink.write_tile(bi, bj, buf.data());
}

/// `sink` must be a writable sink of n hosts in tile_dim-wide tiles.
void check_sink_matches(HostId n, std::uint32_t tile_dim,
                        const TileFile& sink, const char* caller) {
  sink.require_shape(TileIndexShape::kTriangular, caller);
  if (sink.size() != n || sink.tile_dim() != tile_dim) {
    throw std::invalid_argument(
        "severity sink geometry (n, tile_dim) must match the input");
  }
  if (!sink.writable()) {
    throw std::invalid_argument("severity sink must be opened writable");
  }
}

/// The band-pair walk's files: `input` must cache an input file and `sink`
/// must be a writable sink of the same geometry.
void check_band_pair_files(const TileCache& input, const TileFile& sink,
                           const char* caller) {
  const TileFile& store = input.file();
  store.require_shape(TileIndexShape::kSquare, caller);
  check_sink_matches(store.size(), store.tile_dim(), sink, caller);
}

/// The repair pass's per-epoch buffers, owned by the calling thread and
/// reused across epochs: one host group's severity rows (|group| x n
/// floats), and one per-sink-tile map of the tiles committed so far.
struct RepairBuffers {
  std::vector<float> result;
  std::vector<std::uint8_t> committed;
};

RepairBuffers& repair_buffers() {
  thread_local RepairBuffers buffers;
  return buffers;
}

/// Hosts of one row band: indices [begin, end) of an ascending host list.
struct BandRun {
  std::uint32_t band;
  std::uint32_t begin;
  std::uint32_t end;
};

/// The band runs of the ascending `hosts`.
std::vector<BandRun> band_runs(std::span<const HostId> hosts,
                               std::uint32_t T) {
  std::vector<BandRun> runs;
  for (std::uint32_t i = 0; i < hosts.size(); ++i) {
    const std::uint32_t b = hosts[i] / T;
    if (runs.empty() || runs.back().band != b) runs.push_back({b, i, i});
    runs.back().end = i + 1;
  }
  return runs;
}

/// One repair pass over `group`, the ascending slice of the epoch's dirty
/// hosts that starts at dirty index `first`: recomputes the flagged edges of
/// rows [first, first + |group|) of `edges` into the group's result rows,
/// then merges them into the sink. Accumulates into `stats`.
void repair_host_group(const DelayMatrix& matrix, TileFile& sink,
                       std::span<const HostId> group, std::size_t first,
                       const EpochEdges& edges, std::span<std::uint8_t> written,
                       RepairBuffers& rb, SinkRepairStats& stats) {
  const HostId n = matrix.size();
  const std::uint32_t T = sink.tile_dim();
  const std::uint32_t bands = sink.tiles_per_side();
  rb.result.resize(group.size() * n);
  const float* const result = rb.result.data();

  const std::vector<BandRun> runs = band_runs(group, T);
  std::vector<const BandRun*> run_of_band(bands, nullptr);
  for (const BandRun& r : runs) run_of_band[r.band] = &r;

  stats.edges_recomputed +=
      repair_flagged_edges(matrix, nullptr, group, first, edges, rb.result);

  // Merge into the sink: one writer per sink tile holding a flagged edge of
  // the group. It writes exactly the flagged cells (both mirror cells on a
  // diagonal tile) and commits iff one of them is measured or a stale value
  // was reset to 0; a tile whose flagged edges are all unmeasured and
  // already 0 is left as is.
  std::atomic<std::size_t> committed{0};
  {
    obs::Span span("sink-merge");
    const auto tiles = flagged_sink_tiles(edges, group, first, sink);
    for_each_unit(tiles.size(), [&](std::size_t u) {
      const auto [bi, bj] = tiles[u];
      std::vector<float>& buf = tile_scratch();
      buf.resize(sink.payload_floats());
      sink.read_tile(bi, bj, buf.data());
      bool commit = false;
      // Writes flagged edge (group[i], c) into tile cell `cell`.
      const auto merge = [&](std::uint32_t i, HostId c, std::size_t cell) {
        const std::size_t o = i * std::size_t{n} + c;
        commit |= matrix.at(group[i], c) >= 0.0f || buf[cell] != 0.0f;
        buf[cell] = result[o];
      };
      const HostId row0 = bi * T;
      const HostId col0 = bj * T;
      if (const BandRun* r = run_of_band[bi]) {  // group rows of band bi
        for (std::uint32_t i = r->begin; i < r->end; ++i) {
          const std::size_t row = static_cast<std::size_t>(group[i] - row0) * T;
          edges.for_each_in_row(
              first + i, col0, col0 + sink.band_rows(bj),
              [&](HostId c) { merge(i, c, row + (c - col0)); });
        }
      }
      if (const BandRun* r = run_of_band[bj]) {  // group columns of band bj
        for (std::uint32_t i = r->begin; i < r->end; ++i) {
          const std::size_t col = group[i] - col0;
          edges.for_each_in_row(
              first + i, row0, row0 + sink.band_rows(bi), [&](HostId c) {
                merge(i, c, (c - row0) * std::size_t{T} + col);
              });
        }
      }
      if (!commit) return;
      const std::size_t index = sink.tile_index(bi, bj);
      // Marked before the write, so a write that throws still counts.
      if (!written.empty()) written[index] = 1;
      sink.write_tile(bi, bj, buf.data());
      // Distinct tiles across groups: a tile with hosts of two groups is
      // written twice but counts once, as it does in a one-group pass.
      std::uint8_t& seen = rb.committed[index];
      if (!seen) {
        seen = 1;
        committed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  stats.tiles_committed += committed.load();
}

}  // namespace

std::vector<std::pair<std::uint32_t, std::uint32_t>> flagged_sink_tiles(
    const EpochEdges& edges, std::span<const HostId> hosts, std::size_t first,
    const TileFile& sink) {
  const std::uint32_t T = sink.tile_dim();
  const std::uint32_t bands = sink.tiles_per_side();
  std::vector<std::uint8_t> touched(sink.tile_count(), 0);
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const std::uint32_t r = hosts[i] / T;
    for (std::uint32_t bc = 0; bc < bands; ++bc) {
      if (edges.any_in_row(first + i, bc * T, bc * T + sink.band_rows(bc))) {
        touched[sink.tile_index(std::min(r, bc), std::max(r, bc))] = 1;
      }
    }
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> tiles;
  for (std::uint32_t bi = 0; bi < bands; ++bi) {
    for (std::uint32_t bj = bi; bj < bands; ++bj) {
      if (touched[sink.tile_index(bi, bj)]) tiles.emplace_back(bi, bj);
    }
  }
  return tiles;
}

void all_severities_to_sink(TileCache& input, TileFile& sink) {
  check_band_pair_files(input, sink, "all_severities_to_sink");
  obs::Span span("band-pair-stream");
  for_each_band_pair(input.file().tiles_per_side(),
                     [&](std::uint32_t bi, std::uint32_t bj) {
                       process_band_pair_to_sink(input, sink, bi, bj);
                     });
#if defined(__GLIBC__)
  // Every pool thread freed its band pairs' scratch (about 300 KiB each)
  // into its own malloc arena, which keeps the pages resident for the
  // life of the process and never lends them to another thread. Hand them
  // back: a finished build leaves only the caches resident.
  ::malloc_trim(0);
#endif
}

void rebuild_sink_tiles(
    TileCache& input, TileFile& sink,
    std::span<const std::pair<std::uint32_t, std::uint32_t>> tiles) {
  check_band_pair_files(input, sink, "rebuild_sink_tiles");
  for_each_unit(tiles.size(), [&](std::size_t u) {
    process_band_pair_to_sink(input, sink, tiles[u].first, tiles[u].second);
  });
}

std::size_t repair_group_hosts(std::size_t n, std::uint32_t tile_dim,
                               std::size_t budget_bytes) {
  const std::size_t bands = (n + tile_dim - 1) / tile_dim;
  const std::size_t host_bytes = 2 * bands * tile_dim * sizeof(float);
  return std::max<std::size_t>(1, budget_bytes / host_bytes);
}

void diff_dirty_rows(TileCache& cache, std::span<const HostId> dirty_hosts,
                     EpochScreen& screen) {
  const TileFile& store = cache.file();
  store.require_shape(TileIndexShape::kSquare, "diff_dirty_rows");
  check_dirty_hosts(dirty_hosts, store.size(), "diff_dirty_rows");
  const std::uint32_t T = store.tile_dim();
  const std::uint32_t bands = store.tiles_per_side();
  const std::vector<BandRun> runs = band_runs(dirty_hosts, T);
  // One acquire per (run band, K), each diffing its hosts' slices.
  for_each_unit(runs.size() * bands, [&](std::size_t u) {
    const BandRun& r = runs[u / bands];
    const auto k = static_cast<std::uint32_t>(u % bands);
    const TileRef tile = cache.acquire(r.band, k);
    for (std::uint32_t i = r.begin; i < r.end; ++i) {
      screen.diff(i, k * T, tile->row(dirty_hosts[i] - r.band * T), T);
    }
  });
}

SinkRepairStats repair_severities_to_sink(const DelayMatrix& matrix,
                                          TileFile& sink,
                                          std::size_t budget_bytes,
                                          std::span<const HostId> dirty_hosts,
                                          const EpochEdges& edges,
                                          std::span<std::uint8_t> written) {
  const HostId n = matrix.size();
  check_sink_matches(n, sink.tile_dim(), sink, "repair_severities_to_sink");
  check_dirty_hosts(dirty_hosts, n, "repair_severities_to_sink");
  SinkRepairStats stats;
  if (dirty_hosts.empty() || n < 2) return stats;
  if (edges.rows() != dirty_hosts.size() || edges.size() != n) {
    throw std::invalid_argument(
        "repair_severities_to_sink: edge set geometry (dirty hosts, n) must "
        "match the epoch");
  }
  if (!written.empty() && written.size() != sink.tile_count()) {
    throw std::invalid_argument(
        "repair_severities_to_sink: written map must hold one byte per sink "
        "tile");
  }

  RepairBuffers& rb = repair_buffers();
  rb.committed.assign(sink.tile_count(), 0);

  obs::Span span("band-pair-stream");
  const std::size_t group =
      repair_group_hosts(n, sink.tile_dim(), budget_bytes);
  for (std::size_t g = 0; g < dirty_hosts.size(); g += group) {
    repair_host_group(
        matrix, sink,
        dirty_hosts.subspan(g, std::min(group, dirty_hosts.size() - g)), g,
        edges, written, rb, stats);
  }
  return stats;
}

float sink_severity(TileCache& sink, HostId a, HostId b) {
  const TileFile& file = sink.file();
  file.require_shape(TileIndexShape::kTriangular, "sink_severity");
  if (a == b) return 0.0f;
  const std::uint32_t T = file.tile_dim();
  // sev is symmetric and only tiles r <= c exist; diagonal tiles hold both
  // local triangles, so (row in the lower band, column in the higher) is
  // always addressable directly.
  if (a / T > b / T) std::swap(a, b);
  TileRef pin;
  return sink_row(sink, a / T, b / T, a % T, pin)[b % T];
}

void sink_severity_row(TileCache& sink, HostId a, std::span<float> out) {
  const TileFile& file = sink.file();
  file.require_shape(TileIndexShape::kTriangular, "sink_severity_row");
  const std::uint32_t T = file.tile_dim();
  const std::uint32_t ba = a / T;
  const std::uint32_t la = a % T;
  for (std::uint32_t c = 0; c < file.tiles_per_side(); ++c) {
    const std::uint32_t cols = file.band_rows(c);
    float* const dst = out.data() + static_cast<std::size_t>(c) * T;
    if (c >= ba) {
      // Row la of tile (ba, c), contiguous.
      TileRef pin;
      std::memcpy(dst, sink_row(sink, ba, c, la, pin), cols * sizeof(float));
    } else {
      // Column la of tile (c, ba): sev(a, x) = sev(x, a) for x in band c.
      const TileRef tile = sink.acquire(c, ba);
      const float* p = tile->row(0);
      for (std::uint32_t lr = 0; lr < cols; ++lr) {
        dst[lr] = p[static_cast<std::size_t>(lr) * T + la];
      }
    }
  }
}

void sink_severities(shard::TileCache& sink, SeverityMatrix& out) {
  const TileFile& file = sink.file();
  file.require_shape(TileIndexShape::kTriangular, "sink_severities");
  const std::uint32_t T = file.tile_dim();
  for (std::uint32_t r = 0; r < file.tiles_per_side(); ++r) {
    const std::uint32_t rows = file.band_rows(r);
    for (std::uint32_t c = r; c < file.tiles_per_side(); ++c) {
      const std::uint32_t cols = file.band_rows(c);
      const TileRef tile = sink.acquire(r, c);
      for (std::uint32_t lr = 0; lr < rows; ++lr) {
        const float* src = tile->row(lr);
        std::memcpy(out.row(r * T + lr).data() + std::size_t{c} * T, src,
                    cols * sizeof(float));
        // Diagonal tiles hold both local triangles; the others hold
        // sev(x, y) for x in band r only, so band c's rows take the column.
        if (c == r) continue;
        for (std::uint32_t lc = 0; lc < cols; ++lc) {
          out.row(c * T + lc)[std::size_t{r} * T + lr] = src[lc];
        }
      }
    }
  }
}

}  // namespace tiv::core
