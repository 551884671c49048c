#include "shard/tile_cache.hpp"

namespace tiv::shard {

TileCache::TileCache(const TileStore& store, std::size_t budget_bytes)
    : store_(store),
      // Footprint charged per resident tile: the serialized size, which is
      // also the in-memory layout; allocator slack is not modeled.
      cache_(budget_bytes, store.tile_bytes(),
             [s = &store] { return std::make_shared<Tile>(s->tile_dim()); },
             "cache.input") {}

TileRef TileCache::acquire(std::uint32_t r, std::uint32_t c) {
  return cache_.acquire(key(r, c), [&](Tile& slot) {
    store_.read_tile(r, c, slot.data());
  });
}

}  // namespace tiv::shard
