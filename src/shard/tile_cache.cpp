#include "shard/tile_cache.hpp"

#include <utility>

namespace tiv::shard {

TileCache::TileCache(const TileStore& store, std::size_t budget_bytes)
    : store_(store),
      // Footprint charged per resident tile: the serialized size, which is
      // also the in-memory layout; allocator slack is not modeled.
      cache_(budget_bytes, store.tile_bytes(),
             [s = &store] { return std::make_shared<Tile>(s->tile_dim()); },
             "cache.input"),
      drops_link_(obs::MetricsRegistry::instance().link(
          "cache.input.prefetch_drops", obs::MetricsRegistry::Agg::kSum,
          [this] { return prefetcher_.dropped(); })) {}

TileRef TileCache::acquire(std::uint32_t r, std::uint32_t c) {
  return cache_.acquire(key(r, c), [&](Tile& slot) {
    store_.read_tile(r, c, slot.data());
  });
}

void TileCache::prefetch(std::uint32_t r, std::uint32_t c) {
  if (cache_.contains(key(r, c))) return;  // resident or already loading
  // acquire() on the I/O thread loads the tile and parks it in the map; the
  // returned pin is dropped immediately. A failed load is swallowed — a
  // prefetch is a hint, and the demand-path acquire() will surface the
  // error if it persists (an uncaught throw here would terminate, since
  // the queue's worker thread has no handler).
  prefetcher_.enqueue([this, r, c] {
    try {
      acquire(r, c);
    } catch (...) {
    }
  });
}

CacheStats TileCache::stats() const {
  CacheStats s = cache_.stats();
  s.prefetch_drops = prefetcher_.dropped();
  return s;
}

}  // namespace tiv::shard
