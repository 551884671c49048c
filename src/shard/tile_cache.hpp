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
// are demand-only: the thread that acquires a tile loads it (peek never
// loads), so only the caller's threads ever read the file, and an
// in-place tile rewrite between scans needs no other quiesce than
// invalidate().
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

/// One cache's own accounting, kept as plain counts under the cache's
/// mutex (the byte levels also drive eviction). The cache adds every event
/// to the process-wide registry metrics too (docs/OBSERVABILITY.md), where
/// all caches under one metric prefix add up.
struct CacheStats {
  std::size_t hits = 0;
  /// Lookups that found no resident tile: acquire then loads it, peek
  /// does not.
  std::size_t misses = 0;
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
  /// names the registry metrics every cache event also adds to: counters
  /// "<prefix>.hits", ".misses", ".evictions", ".invalidations" and
  /// ".slot_allocs"; gauges ".current_bytes" (the bytes all live caches
  /// hold) and ".peak_bytes" (the largest one cache's peak).
  TileCache(const TileFile& file, std::size_t budget_bytes,
            const char* metric_prefix);
  /// Takes what the cache still holds off the registry's current_bytes.
  ~TileCache();

  TileCache(const TileCache&) = delete;
  TileCache& operator=(const TileCache&) = delete;

  /// Returns tile (r, c), reading it from the file on a miss (which may
  /// throw the read's CorruptTileError or I/O error). Thread-safe; blocks
  /// only while another thread is loading the same tile.
  TileRef acquire(std::uint32_t r, std::uint32_t c);

  /// Returns tile (r, c) if it is resident, else null; never reads the
  /// file (a tile another thread is loading counts as absent). Counts a
  /// hit or a miss as acquire does — the lookup of a reader that wants
  /// less than a tile and reads the rest from the file itself.
  TileRef peek(std::uint32_t r, std::uint32_t c);

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

  /// Counts a hit on the loaded entry `it`, marks it most recently used
  /// and returns it.
  TileRef hit_locked(Map::iterator it);
  TileRef load_and_publish(std::uint64_t key,
                           std::unique_lock<std::mutex>& lk);
  Entry& insert_loading_locked(std::uint64_t key);
  void release_locked(Map::iterator it);
  void evict_for_locked(std::size_t incoming_bytes);
  /// Moves the byte level by `delta` bytes (negative on release), in
  /// stats_ and in the registry.
  void charge_locked(std::ptrdiff_t delta);

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

  CacheStats stats_;  ///< guarded by mutex_
  /// The registry metrics named by the metric prefix, looked up once.
  struct Metrics {
    obs::Counter* hits;
    obs::Counter* misses;
    obs::Counter* evictions;
    obs::Counter* invalidations;
    obs::Counter* slot_allocs;
    obs::Gauge* current_bytes;
    obs::Gauge* peak_bytes;
  };
  Metrics metrics_;
};

}  // namespace tiv::shard
