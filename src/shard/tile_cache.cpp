#include "shard/tile_cache.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <string>
#include <utility>

namespace tiv::shard {
namespace {

std::uint64_t key_of(std::uint32_t r, std::uint32_t c) {
  return (static_cast<std::uint64_t>(r) << 32) | c;
}

}  // namespace

TileCache::TileCache(const TileFile& file, std::size_t budget_bytes,
                     const char* metric_prefix)
    : file_(file), budget_(budget_bytes) {
  auto& reg = obs::MetricsRegistry::instance();
  const std::string p(metric_prefix);
  metrics_ = {&reg.counter(p + ".hits"),
              &reg.counter(p + ".misses"),
              &reg.counter(p + ".evictions"),
              &reg.counter(p + ".invalidations"),
              &reg.counter(p + ".slot_allocs"),
              &reg.gauge(p + ".current_bytes"),
              &reg.gauge(p + ".peak_bytes")};
}

TileCache::~TileCache() {
  metrics_.current_bytes->add(-static_cast<std::int64_t>(stats_.current_bytes));
}

TileRef TileCache::acquire(std::uint32_t r, std::uint32_t c) {
  const std::uint64_t key = key_of(r, c);
  std::unique_lock<std::mutex> lk(mutex_);
  for (;;) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      return load_and_publish(key, lk);
    }
    if (!it->second.loading) return hit_locked(it);
    // Another thread is reading this tile; wait for it rather than
    // duplicating the I/O. If its load failed the entry vanishes and
    // the loop retries as a fresh miss.
    loaded_cv_.wait(lk);
  }
}

TileRef TileCache::peek(std::uint32_t r, std::uint32_t c) {
  std::lock_guard<std::mutex> lk(mutex_);
  const auto it = map_.find(key_of(r, c));
  if (it == map_.end() || it->second.loading) {
    ++stats_.misses;
    metrics_.misses->increment();
    return nullptr;
  }
  return hit_locked(it);
}

TileRef TileCache::hit_locked(Map::iterator it) {
  ++stats_.hits;
  metrics_.hits->increment();
  lru_.splice(lru_.begin(), lru_, it->second.lru);  // touch
  return it->second.tile;
}

void TileCache::invalidate(std::uint32_t r, std::uint32_t c) {
  const std::uint64_t key = key_of(r, c);
  std::unique_lock<std::mutex> lk(mutex_);
  for (;;) {
    auto it = map_.find(key);
    if (it == map_.end()) return;
    if (it->second.loading) {
      loaded_cv_.wait(lk);
      continue;
    }
    assert(it->second.tile.use_count() == 1 && "invalidating a pinned tile");
    release_locked(it);
    ++stats_.invalidations;
    metrics_.invalidations->increment();
    return;
  }
}

CacheStats TileCache::stats() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return stats_;
}

void TileCache::charge_locked(std::ptrdiff_t delta) {
  stats_.current_bytes += static_cast<std::size_t>(delta);
  metrics_.current_bytes->add(delta);
  if (stats_.current_bytes > stats_.peak_bytes) {
    stats_.peak_bytes = stats_.current_bytes;
    metrics_.peak_bytes->max_of(static_cast<std::int64_t>(stats_.peak_bytes));
  }
}

TileRef TileCache::load_and_publish(std::uint64_t key,
                                    std::unique_lock<std::mutex>& lk) {
  ++stats_.misses;
  metrics_.misses->increment();
  evict_for_locked(footprint());
  // Keep a reference, not the iterator: concurrent inserts during the
  // unlocked I/O below may rehash the map, which invalidates iterators
  // but never references, and only this thread erases entry `key`.
  Entry& entry = insert_loading_locked(key);
  // Reserve the bytes before dropping the lock so concurrent loaders see
  // each other's in-flight tiles in the accounting.
  const auto bytes = static_cast<std::ptrdiff_t>(footprint());
  charge_locked(bytes);
  lk.unlock();

  try {
    file_.read_tile(static_cast<std::uint32_t>(key >> 32),
                    static_cast<std::uint32_t>(key), entry.tile->data());
  } catch (...) {
    lk.lock();
    charge_locked(-bytes);
    free_.push_back(map_.extract(key));
    loaded_cv_.notify_all();
    throw;
  }

  lk.lock();
  entry.loading = false;
  if (lru_spare_.empty()) {
    lru_.push_front(key);
  } else {
    lru_.splice(lru_.begin(), lru_spare_, lru_spare_.begin());
    lru_.front() = key;
  }
  entry.lru = lru_.begin();
  loaded_cv_.notify_all();
  return entry.tile;
}

/// Maps `key` to a loading entry holding a pooled slot: a recycled map
/// node (with its tile) when the pool has one, a fresh one otherwise.
TileCache::Entry& TileCache::insert_loading_locked(std::uint64_t key) {
  if (free_.empty()) {
    ++stats_.slot_allocs;
    metrics_.slot_allocs->increment();
    return map_
        .emplace(key, Entry{std::make_shared<Tile>(file_.tile_dim()), true,
                            lru_.end()})
        .first->second;
  }
  Map::node_type node = std::move(free_.back());
  free_.pop_back();
  node.key() = key;
  node.mapped().loading = true;
  return map_.insert(std::move(node)).position->second;
}

/// Unmaps the loaded, unpinned entry `it` and returns its slot, map node
/// and LRU node to the pool.
void TileCache::release_locked(Map::iterator it) {
  lru_spare_.splice(lru_spare_.end(), lru_, it->second.lru);
  Map::node_type node = map_.extract(it);
  charge_locked(-static_cast<std::ptrdiff_t>(footprint()));
  // A slot a reader still pins (only if invalidate()'s precondition is
  // broken) is dropped, never refilled under the reader. The check
  // copies the pointer: that refcount increment is an acq_rel RMW, so it
  // also orders the last reader's accesses (and its unpin) before the
  // slot's next refill — use_count() alone is a relaxed load.
  if (Slot(node.mapped().tile).use_count() == 2) {
    free_.push_back(std::move(node));
  }
}

void TileCache::evict_for_locked(std::size_t incoming_bytes) {
  // Walk from least recently used, skipping pinned tiles (a TileRef beyond
  // the map's own keeps use_count > 1). Loading placeholders are not in
  // lru_ and so are never considered.
  auto it = lru_.end();
  while (stats_.current_bytes + incoming_bytes > budget_ &&
         it != lru_.begin()) {
    --it;
    auto mit = map_.find(*it);
    if (mit->second.tile.use_count() > 1) continue;  // pinned
    it = std::next(it);  // the LRU node moves to the spare list
    release_locked(mit);
    ++stats_.evictions;
    metrics_.evictions->increment();
  }
}

}  // namespace tiv::shard
