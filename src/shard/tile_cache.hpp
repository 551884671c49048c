// Memory-budgeted, thread-safe LRU cache mapping TileStore tiles back into
// RAM as view-compatible blocks — the input-side instantiation of the
// shared LruTileCache core (shard/lru_tile_cache.hpp), which owns the
// concurrency model, stampede-free loads, pin-aware eviction, and the
// budget-accounting invariant: peak bytes <= max(budget, largest
// simultaneous pinned set). The streaming driver pins a handful of tiles
// per thread, so any sane budget dominates and stats().peak_bytes stays
// under it.
//
// Reads are demand-only: the thread that acquires a tile loads it, so only
// the caller's threads ever read the store, and a TileStore::repack_tile
// between scans needs no other quiesce. The slot type is shard::Tile
// (shard/tile_file.hpp): 64-byte-aligned rows, ready for the branch-free
// witness kernels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "shard/lru_tile_cache.hpp"
#include "shard/tile_store.hpp"

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

  /// Drops tile (r, c) from the cache so the next acquire re-reads it from
  /// the store — the coherence hook for TileStore::repack_tile.
  /// Precondition: no outstanding TileRef pins the tile (the streaming
  /// engine invalidates only between epochs, when no scan is running).
  void invalidate(std::uint32_t r, std::uint32_t c) {
    cache_.invalidate(key(r, c));
  }

  std::size_t budget_bytes() const { return cache_.budget_bytes(); }
  CacheStats stats() const { return cache_.stats(); }

 private:
  static std::uint64_t key(std::uint32_t r, std::uint32_t c) {
    return (static_cast<std::uint64_t>(r) << 32) | c;
  }

  const TileStore& store_;
  LruTileCache<Tile> cache_;
};

}  // namespace tiv::shard
