// Memory-budgeted, thread-safe LRU cache mapping TileStore tiles back into
// RAM as view-compatible blocks — the input-side instantiation of the
// shared LruTileCache core (shard/lru_tile_cache.hpp), which owns the
// concurrency model, stampede-free loads, pin-aware eviction, and the
// budget-accounting invariant: peak bytes <= max(budget, largest
// simultaneous pinned set). The streaming driver pins a handful of tiles
// per thread, so any sane budget dominates and stats().peak_bytes stays
// under it.
//
// What this layer adds on top of the core is prefetch riding the
// pool-friendly util/BackgroundQueue: hints are shed (not queued
// unboundedly, never blocking the compute thread) when the I/O worker
// falls behind, and drain_prefetch() is the quiesce point before
// TileStore::repack_tile rewrites tiles this cache maps. The slot type is
// shard::Tile (shard/tile_file.hpp): 64-byte-aligned rows, ready for the
// branch-free witness kernels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "shard/lru_tile_cache.hpp"
#include "shard/tile_store.hpp"
#include "util/background_queue.hpp"

namespace tiv::shard {

using TileRef = std::shared_ptr<const Tile>;

class TileCache {
 public:
  /// The cache keeps a reference to `store`; it must outlive the cache, and
  /// the cache must outlive every TileRef it hands out.
  TileCache(const TileStore& store, std::size_t budget_bytes);

  TileCache(const TileCache&) = delete;
  TileCache& operator=(const TileCache&) = delete;

  /// Returns tile (r, c), loading it from the store on a miss. Thread-safe;
  /// blocks only when another thread is already loading the same tile.
  TileRef acquire(std::uint32_t r, std::uint32_t c);

  /// Hints that tile (r, c) will be needed soon: loads it into the cache on
  /// the background I/O thread. Never blocks; the hint is dropped when the
  /// I/O worker is saturated or the tile is already resident/loading.
  void prefetch(std::uint32_t r, std::uint32_t c);

  /// Discards queued prefetch hints and waits out the in-flight one — the
  /// quiesce point before TileStore::repack_tile rewrites tiles this cache
  /// maps (a prefetch read racing the rewrite could otherwise publish a
  /// torn tile or pin one across invalidate()).
  void drain_prefetch() { prefetcher_.drain(); }

  /// Drops tile (r, c) from the cache so the next acquire re-reads it from
  /// the store — the coherence hook for TileStore::repack_tile. Call after
  /// drain_prefetch(); precondition: no outstanding TileRef pins the tile
  /// (the streaming engine invalidates only between epochs, when no scan
  /// is running).
  void invalidate(std::uint32_t r, std::uint32_t c) {
    cache_.invalidate(key(r, c));
  }

  std::size_t budget_bytes() const { return cache_.budget_bytes(); }
  CacheStats stats() const;

 private:
  static std::uint64_t key(std::uint32_t r, std::uint32_t c) {
    return (static_cast<std::uint64_t>(r) << 32) | c;
  }

  const TileStore& store_;
  LruTileCache<Tile> cache_;
  BackgroundQueue prefetcher_{16};
  // Declared after prefetcher_: the link's unlink-time probe reads
  // prefetcher_.dropped(), so it must be destroyed first.
  obs::MetricsRegistry::Link drops_link_;
};

}  // namespace tiv::shard
