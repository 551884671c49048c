#include "core/shard_severity.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
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
// Two walks over the tile store.
//
// The matrix is stored as square tiles of T = store.tile_dim() rows; band b
// is rows (and, by symmetry, columns) [b*T, b*T + T). Both walks feed
// kWitnessLanes accumulators per edge with witness bands K in ascending
// column order. Ascending K plus lane-aligned tile widths is what makes the
// partial sums land in the same lanes, in the same order, as the monolithic
// in-memory row scan — hence bit-identical severities (see
// witness_kernels.hpp). The detour d(a, w) + d(w, c) is one float addition,
// which commutes, so it does not matter which endpoint's row plays `ra`.
//
// Band-pair walk (full build, one-tile rebuild): unordered band pairs
// (I, J), I <= J, of the upper triangle are dynamically scheduled over the
// pool. A pair pins the d_ac tile (I, J), then streams tiles (I, K) and
// (J, K) for every K and writes sink tile (I, J). Pairs are walked
// row-major, so consecutive pairs share band I and re-hit its tiles; while
// band K computes, tiles for K+1 load on the cache's background I/O
// thread.
//
// Dirty-row walk (epoch repair): every recomputed edge has a dirty
// endpoint h, so the pass pins the dirty hosts' packed rows once and then
// loads each input tile once — column band J walks tiles (J, K) and
// accumulates every edge (h, c in J) from the pinned slice d(h, band K) and
// tile row c. See repair_severities_to_sink for its three phases.
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

/// One edge of a walk selected for recomputation: tile-local rows (or a
/// pinned-row index and a tile-local column) plus the edge's own delay.
struct PairTask {
  std::uint32_t a;
  std::uint32_t c;
  float dac;
};

/// Per-thread working buffers of both walks — a sink tile image, the
/// selected edges, and their accumulator lanes (O(T^2) resp. O(|H|·T),
/// outside the cache budgets by design). Kept per pool worker and reused
/// across units and epochs, so the repair loop allocates nothing once warm.
struct WalkScratch {
  std::vector<float> buf;
  std::vector<PairTask> tasks;
  std::vector<double> acc;
};

WalkScratch& walk_scratch() {
  thread_local WalkScratch scratch;
  return scratch;
}

/// Recomputes every edge of band pair (bi, bj) and commits the sink tile —
/// bit-identical to the tile a full build writes (unmeasured pairs, the
/// diagonal and padding stay 0).
void process_band_pair_to_sink(const TileStore& store, TileCache& cache,
                               sink::SeverityTileStore& sink,
                               std::uint32_t bi, std::uint32_t bj) {
  const std::uint32_t T = store.tile_dim();
  const std::uint32_t bands = store.tiles_per_side();
  const std::uint32_t rows_i = store.band_rows(bi);
  const std::uint32_t rows_j = store.band_rows(bj);
  const auto nd = static_cast<double>(store.size());
  const TileRef dac_tile = cache.acquire(bi, bj);

  WalkScratch& scratch = walk_scratch();
  std::vector<float>& buf = scratch.buf;
  std::vector<PairTask>& tasks = scratch.tasks;
  buf.assign(sink.payload_floats(), 0.0f);
  tasks.clear();
  for (std::uint32_t al = 0; al < rows_i; ++al) {
    const float* dac_row = dac_tile->row(al);
    for (std::uint32_t cl = bi == bj ? al + 1 : 0; cl < rows_j; ++cl) {
      if (dac_row[cl] < DelayMatrixView::kMaskedDelay) {
        tasks.push_back({al, cl, dac_row[cl]});
      }
    }
  }

  std::vector<double>& acc = scratch.acc;
  acc.assign(tasks.size() * kWitnessLanes, 0.0);
  for (std::uint32_t k = 0; k < bands && !tasks.empty(); ++k) {
    if (k + 1 < bands) {
      cache.prefetch(bi, k + 1);
      if (bj != bi) cache.prefetch(bj, k + 1);
    }
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

/// The repair pass's per-epoch buffers, owned by the calling thread and
/// reused across epochs: the pinned packed rows of one host group and its
/// severity rows, each |group| x stride floats (stride = bands * T, the
/// store's padded row), plus the epoch's dirty-host bitmap and the
/// committed-sink-tile set.
struct RepairBuffers {
  std::vector<float> rows;
  std::vector<float> result;
  std::vector<std::uint8_t> dirty;
  std::vector<std::uint8_t> committed;
};

RepairBuffers& repair_buffers() {
  thread_local RepairBuffers buffers;
  return buffers;
}

/// The group's hosts in one row band: indices [begin, end) of the group.
struct BandRun {
  std::uint32_t band;
  std::uint32_t begin;
  std::uint32_t end;
};

/// One pass of the dirty-row walk over `group` (an ascending slice of the
/// epoch's dirty hosts; every host before group.front() was repaired by an
/// earlier pass). Accumulates into `stats`.
void repair_host_group(const TileStore& store, TileCache& cache,
                       sink::SeverityTileStore& sink,
                       std::span<const HostId> group, RepairBuffers& rb,
                       SinkRepairStats& stats) {
  const HostId n = store.size();
  const std::uint32_t T = store.tile_dim();
  const std::uint32_t bands = store.tiles_per_side();
  const std::size_t stride = static_cast<std::size_t>(bands) * T;
  const auto nd = static_cast<double>(n);
  const HostId lo = group.front();
  const std::uint8_t* dirty = rb.dirty.data();
  rb.rows.resize(group.size() * stride);
  rb.result.resize(group.size() * stride);
  float* const rows = rb.rows.data();
  float* const result = rb.result.data();

  std::vector<BandRun> runs;
  for (std::uint32_t i = 0; i < group.size(); ++i) {
    const std::uint32_t b = group[i] / T;
    if (runs.empty() || runs.back().band != b) runs.push_back({b, i, i});
    runs.back().end = i + 1;
  }
  std::vector<const BandRun*> run_of_band(bands, nullptr);
  for (const BandRun& r : runs) run_of_band[r.band] = &r;

  std::atomic<std::size_t> loads{0};
  std::atomic<std::size_t> edges{0};
  std::atomic<std::size_t> committed{0};

  // (0) Pin the group's packed rows: one acquire per (dirty band, K).
  {
    obs::Span span("row-pin");
    for_each_unit(runs.size() * bands, [&](std::size_t u) {
      const BandRun& r = runs[u / bands];
      const auto k = static_cast<std::uint32_t>(u % bands);
      const TileRef tile = cache.acquire(r.band, k);
      loads.fetch_add(1, std::memory_order_relaxed);
      for (std::uint32_t i = r.begin; i < r.end; ++i) {
        std::memcpy(rows + i * stride + static_cast<std::size_t>(k) * T,
                    tile->row(group[i] - r.band * T), T * sizeof(float));
      }
    });
  }

  // (1) Walk the column bands: unit J loads tiles (J, K) once each and
  // accumulates every edge (h, c in J). Edges are enumerated as
  // IncrementalSeverity::apply_epoch does — each unordered pair once, as
  // (h, c) with c != h and c not a dirty host below h — and unmeasured
  // ones get the 0 a rebuild leaves there. The group's own bands go first:
  // phase 0 just loaded their tiles, so they are still cached.
  {
    obs::Span span("witness-walk");
    std::vector<std::uint32_t> order;
    order.reserve(bands);
    for (const BandRun& r : runs) order.push_back(r.band);
    for (std::uint32_t b = 0; b < bands; ++b) {
      if (!run_of_band[b]) order.push_back(b);
    }
    for_each_unit(bands, [&](std::size_t unit) {
      const std::uint32_t j = order[unit];
      const HostId c0 = j * T;
      const HostId c1 = c0 + store.band_rows(j);
      WalkScratch& scratch = walk_scratch();
      std::vector<PairTask>& tasks = scratch.tasks;
      tasks.clear();
      std::size_t unit_edges = 0;
      for (std::uint32_t i = 0; i < group.size(); ++i) {
        const HostId h = group[i];
        const float* prow = rows + i * stride;
        for (HostId c = c0; c < c1; ++c) {
          if (c == h || (dirty[c] && c < h)) continue;
          ++unit_edges;
          if (prow[c] < DelayMatrixView::kMaskedDelay) {
            tasks.push_back({i, c - c0, prow[c]});
          } else {
            result[i * stride + c] = 0.0f;
          }
        }
      }
      edges.fetch_add(unit_edges, std::memory_order_relaxed);
      if (tasks.empty()) return;

      std::vector<double>& acc = scratch.acc;
      acc.assign(tasks.size() * kWitnessLanes, 0.0);
      for (std::uint32_t k = 0; k < bands; ++k) {
        if (k + 1 < bands) cache.prefetch(j, k + 1);
        const TileRef tile = cache.acquire(j, k);
        loads.fetch_add(1, std::memory_order_relaxed);
        const std::size_t slice = static_cast<std::size_t>(k) * T;
        for (std::size_t t = 0; t < tasks.size(); ++t) {
          witness_ratio_accumulate(rows + tasks[t].a * stride + slice,
                                   tile->row(tasks[t].c), T, tasks[t].dac,
                                   acc.data() + t * kWitnessLanes);
        }
      }
      for (std::size_t t = 0; t < tasks.size(); ++t) {
        result[tasks[t].a * stride + c0 + tasks[t].c] = static_cast<float>(
            witness_ratio_reduce(acc.data() + t * kWitnessLanes) / nd);
      }
    });
    // Dirty-dirty edges inside the group were computed from the lower
    // host's row; mirror them into the higher host's.
    for (std::size_t i = 0; i < group.size(); ++i) {
      for (std::size_t x = i + 1; x < group.size(); ++x) {
        result[x * stride + group[i]] = result[i * stride + group[x]];
      }
    }
  }

  // (2) Merge into the sink: one writer per sink tile holding a group
  // edge. It overwrites the group's rows and columns and commits iff one
  // of those edges is measured or a stale value was reset to 0; a tile
  // whose dirty edges are all unmeasured and already 0 is left as is.
  // Edges to hosts of an earlier group are already final there and are
  // left alone.
  {
    obs::Span span("sink-merge");
    std::vector<std::pair<std::uint32_t, std::uint32_t>> tiles;
    for (std::uint32_t bi = 0; bi < bands; ++bi) {
      for (std::uint32_t bj = bi; bj < bands; ++bj) {
        if (run_of_band[bi] || run_of_band[bj]) tiles.emplace_back(bi, bj);
      }
    }
    for_each_unit(tiles.size(), [&](std::size_t u) {
      const auto [bi, bj] = tiles[u];
      std::vector<float>& buf = walk_scratch().buf;
      buf.resize(sink.payload_floats());
      sink.read_tile(bi, bj, buf.data());
      bool commit = false;
      // Writes edge (group[i], x) into tile cell `cell`.
      const auto merge = [&](std::uint32_t i, HostId x, std::size_t cell) {
        const std::size_t o = i * stride + x;
        commit |= rows[o] < DelayMatrixView::kMaskedDelay || buf[cell] != 0.0f;
        buf[cell] = result[o];
      };
      const auto skip = [&](HostId h, HostId x) {
        return x == h || (dirty[x] && x < lo);
      };
      if (const BandRun* r = run_of_band[bi]) {  // group rows of band bi
        for (std::uint32_t i = r->begin; i < r->end; ++i) {
          const HostId h = group[i];
          const std::size_t row = static_cast<std::size_t>(h - bi * T) * T;
          for (HostId x = bj * T; x < bj * T + store.band_rows(bj); ++x) {
            if (!skip(h, x)) merge(i, x, row + (x - bj * T));
          }
        }
      }
      if (const BandRun* r = run_of_band[bj]) {  // group columns of band bj
        for (std::uint32_t i = r->begin; i < r->end; ++i) {
          const HostId h = group[i];
          const std::size_t col = h - bj * T;
          for (HostId x = bi * T; x < bi * T + store.band_rows(bi); ++x) {
            if (!skip(h, x)) merge(i, x, (x - bi * T) * std::size_t{T} + col);
          }
        }
      }
      if (!commit) return;
      sink.write_tile(bi, bj, buf.data());
      // Distinct tiles across groups: a tile with hosts of two groups is
      // written twice but counts once, as it does in a one-group pass.
      std::uint8_t& seen = rb.committed[sink.tile_index(bi, bj)];
      if (!seen) {
        seen = 1;
        committed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  stats.input_tile_loads += loads.load();
  stats.edges_recomputed += edges.load();
  stats.tiles_committed += committed.load();
}

}  // namespace

void all_severities_to_sink(const TileStore& store, TileCache& cache,
                            sink::SeverityTileStore& sink) {
  check_sink_matches(store, sink);
  obs::Span span("band-pair-stream");
  for_each_band_pair(store.tiles_per_side(),
                     [&](std::uint32_t bi, std::uint32_t bj) {
                       process_band_pair_to_sink(store, cache, sink, bi, bj);
                     });
}

void rebuild_sink_tile(const TileStore& store, TileCache& cache,
                       sink::SeverityTileStore& sink, std::uint32_t bi,
                       std::uint32_t bj) {
  check_sink_matches(store, sink);
  process_band_pair_to_sink(store, cache, sink, bi, bj);
}

std::size_t repair_group_hosts(std::size_t n, std::uint32_t tile_dim,
                               std::size_t budget_bytes) {
  const std::size_t bands = (n + tile_dim - 1) / tile_dim;
  const std::size_t host_bytes = 2 * bands * tile_dim * sizeof(float);
  return std::max<std::size_t>(1, budget_bytes / host_bytes);
}

SinkRepairStats repair_severities_to_sink(
    const TileStore& store, TileCache& cache, sink::SeverityTileStore& sink,
    std::span<const HostId> dirty_hosts) {
  check_sink_matches(store, sink);
  check_dirty_hosts(dirty_hosts, store.size(), "repair_severities_to_sink");
  SinkRepairStats stats;
  if (dirty_hosts.empty() || store.size() < 2) return stats;

  RepairBuffers& rb = repair_buffers();
  rb.dirty.assign(store.size(), 0);
  for (const HostId h : dirty_hosts) rb.dirty[h] = 1;
  rb.committed.assign(sink.tile_count(), 0);

  obs::Span span("band-pair-stream");
  const std::size_t group = repair_group_hosts(
      store.size(), store.tile_dim(), cache.budget_bytes());
  for (std::size_t g = 0; g < dirty_hosts.size(); g += group) {
    repair_host_group(
        store, cache, sink,
        dirty_hosts.subspan(g, std::min(group, dirty_hosts.size() - g)), rb,
        stats);
  }
  return stats;
}

}  // namespace tiv::core
