// Memory-budgeted, thread-safe LRU cache mapping the tiles of one TileFile
// back into RAM — the one cache of both formats: the engine keeps one over
// its input file ("cache.input") and one over its severity sink
// ("cache.sink"). Slots are shard::Tile (shard/tile_file.hpp): 64-byte-
// aligned rows, ready for the branch-free witness kernels.
//
// Concurrency model: one mutex guards the map/LRU bookkeeping; the tile
// read runs outside it, so distinct tiles load in parallel. A thread
// requesting a tile another thread is already loading waits on a condition
// variable instead of issuing a duplicate read (no cache stampede). Reads
// are demand-only: the thread that acquires a tile loads it, so only the
// caller's threads ever read the file, and an in-place tile rewrite
// between scans needs no other quiesce than invalidate().
//
// Budget accounting counts every resident tile (loaded entries plus
// in-flight loads, whose bytes are reserved before the read starts).
// Eviction walks from the least recently used end, skipping entries pinned
// by an outstanding TileRef (use_count > 1) — a pinned tile is never
// removed from the map, so a tile's bytes are released exactly when its
// entry is erased. The hard invariant is therefore: peak bytes <=
// max(budget, largest simultaneous pinned set). The engine's drivers pin a
// handful of tiles per thread, so any sane budget dominates and
// stats().peak_bytes stays under it.
//
// Slot pool: a tile's memory is a slot — the tile object, its shared_ptr
// control block, its map node and its LRU list node, all allocated
// together once. Eviction and invalidation return the slot to a free
// pool instead of freeing it, and the next load refills a pooled slot in
// place. The pool therefore holds at most max(budget, largest pinned
// set) tiles' worth of slots and stops growing once the cache has
// warmed up: a steady-state load allocates nothing, whichever thread
// runs it. Without the pool every load allocated on its own thread and
// the evicting thread freed, which grew glibc's per-thread arenas with
// the number of epochs run.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "shard/tile_file.hpp"

namespace tiv::shard {

/// Per-instance accounting view. The event counts (hits, misses, ...) are
/// maintained exactly once, as obs registry metrics inside the cache
/// (docs/OBSERVABILITY.md) — this struct is the compatibility shim stats()
/// fills from them, so existing callers keep working. Note the counts read
/// zero under TIV_OBS_DISABLE; the byte accounting (current/peak) is
/// functional state (it drives eviction) and is always live.
struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;       ///< tiles loaded from disk
  std::size_t evictions = 0;
  std::size_t invalidations = 0;  ///< resident tiles dropped by invalidate()
  std::size_t peak_bytes = 0;   ///< high-water mark of live tile bytes
  std::size_t current_bytes = 0;
  std::size_t slot_allocs = 0;  ///< tile slots ever allocated (pool growth)

  double hit_rate() const {
    const std::size_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

using TileRef = std::shared_ptr<const Tile>;

class TileCache {
 public:
  /// The cache keeps a reference to `file`; it must outlive the cache, and
  /// the cache must outlive every TileRef it hands out. `metric_prefix`
  /// links the counters into the process metrics registry under
  /// "<prefix>.hits", ".misses", ".evictions", ".invalidations",
  /// ".slot_allocs", ".current_bytes" (summed across live instances) and
  /// ".peak_bytes" (max).
  TileCache(const TileFile& file, std::size_t budget_bytes,
            const char* metric_prefix);

  TileCache(const TileCache&) = delete;
  TileCache& operator=(const TileCache&) = delete;

  /// Returns tile (r, c), reading it from the file on a miss (which may
  /// throw the read's CorruptTileError or I/O error). Thread-safe; blocks
  /// only while another thread is loading the same tile.
  TileRef acquire(std::uint32_t r, std::uint32_t c);

  /// Drops tile (r, c) so the next acquire re-reads it — the coherence
  /// hook after an in-place tile rewrite. Waits for an in-flight load of
  /// the tile to finish (a stale read racing the rewrite must not be
  /// published past this call). Precondition: no outstanding TileRef pins
  /// the tile (the engine invalidates only between epochs, when no scan
  /// is running).
  void invalidate(std::uint32_t r, std::uint32_t c);

  /// The file this cache reads.
  const TileFile& file() const { return file_; }
  std::size_t budget_bytes() const { return budget_; }
  CacheStats stats() const;

 private:
  /// A pooled tile: allocated when the pool is empty, refilled in place by
  /// every later load.
  using Slot = std::shared_ptr<Tile>;
  struct Entry {
    Slot tile;  ///< owned by the loader (not readable) while loading
    bool loading = false;
    std::list<std::uint64_t>::iterator lru;  ///< valid once loaded
  };
  using Map = std::unordered_map<std::uint64_t, Entry>;

  TileRef load_and_publish(std::uint64_t key,
                           std::unique_lock<std::mutex>& lk);
  Entry& insert_loading_locked(std::uint64_t key);
  void release_locked(Map::iterator it);
  void evict_for_locked(std::size_t incoming_bytes);
  void link_metrics(const char* prefix);

  /// Bytes charged per resident tile: the serialized size, which is also
  /// the in-memory layout; allocator slack is not modeled.
  std::size_t footprint() const { return file_.tile_bytes(); }

  const TileFile& file_;
  const std::size_t budget_;

  mutable std::mutex mutex_;
  std::condition_variable loaded_cv_;
  Map map_;
  std::list<std::uint64_t> lru_;  ///< front = most recently used
  // The pool: map nodes carrying an idle slot, and spare LRU list nodes.
  std::vector<Map::node_type> free_;
  std::list<std::uint64_t> lru_spare_;

  // Event counts: obs registry metrics, the single point of maintenance
  // (CacheStats is a view — see stats()). Byte accounting stays plain
  // mutex-guarded state because eviction decisions read it.
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter evictions_;
  obs::Counter invalidations_;
  obs::Counter slot_allocs_;
  std::size_t current_bytes_ = 0;
  std::size_t peak_bytes_ = 0;
  std::vector<obs::MetricsRegistry::Link> links_;
};

}  // namespace tiv::shard
