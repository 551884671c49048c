// Memory-budgeted LRU cache over SeverityTileStore tiles, plus the
// row/edge read API the monitoring consumers use (watch-lists, alerting,
// per-host severity profiles) without ever materializing the N^2 result.
//
// The concurrency and accounting model is the shared LruTileCache core
// (shard/lru_tile_cache.hpp) — the same instantiation pattern as
// shard::TileCache: bytes charged per resident tile, eviction from the
// LRU tail skipping pinned tiles, stats().peak_bytes <= max(budget,
// pinned working set). The row/edge readers pin one tile at a time, so
// any budget >= one tile keeps the peak under it.
//
// invalidate(r, c) is the commit hook: after the repair driver rewrites a
// dirty tile in the store, dropping the cached copy makes the next read
// see the committed bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "shard/lru_tile_cache.hpp"
#include "sink/severity_tile_store.hpp"

namespace tiv::sink {

/// A severity tile resident in memory: tile_dim^2 floats, row-major.
using SevTileRef = std::shared_ptr<const shard::Tile>;

class SeverityCache {
 public:
  /// Keeps a reference to `store`; it must outlive the cache, and the
  /// cache must outlive every SevTileRef it hands out.
  SeverityCache(const SeverityTileStore& store, std::size_t budget_bytes)
      : store_(store),
        cache_(budget_bytes, store.tile_bytes(),
               [s = &store] {
                 return std::make_shared<shard::Tile>(s->tile_dim());
               },
               "cache.sink") {}

  SeverityCache(const SeverityCache&) = delete;
  SeverityCache& operator=(const SeverityCache&) = delete;

  /// Returns tile (r, c), r <= c, loading it from the store on a miss.
  /// Thread-safe; blocks only while another thread loads the same tile.
  SevTileRef acquire(std::uint32_t r, std::uint32_t c);

  /// Drops tile (r, c) so the next acquire re-reads the store (call after
  /// SeverityTileStore::write_tile). Precondition: no outstanding
  /// SevTileRef pins it.
  void invalidate(std::uint32_t r, std::uint32_t c) {
    cache_.invalidate(key(r, c));
  }

  /// Severity of edge (a, b) — symmetric, 0 for a == b. One cached tile
  /// lookup.
  float at(delayspace::HostId a, delayspace::HostId b);

  /// Severity row a into out (size() floats): sev(a, x) for every x. Walks
  /// the band tiles of row a — tiles (band(a), c) row-wise past the
  /// diagonal band, tiles (c, band(a)) column-wise before it.
  void read_row(delayspace::HostId a, std::span<float> out);

  std::size_t budget_bytes() const { return cache_.budget_bytes(); }
  shard::CacheStats stats() const { return cache_.stats(); }

 private:
  static std::uint64_t key(std::uint32_t r, std::uint32_t c) {
    return (static_cast<std::uint64_t>(r) << 32) | c;
  }

  const SeverityTileStore& store_;
  shard::LruTileCache<shard::Tile> cache_;
};

}  // namespace tiv::sink
