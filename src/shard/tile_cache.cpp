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
  link_metrics(metric_prefix);
}

TileRef TileCache::acquire(std::uint32_t r, std::uint32_t c) {
  const std::uint64_t key = key_of(r, c);
  std::unique_lock<std::mutex> lk(mutex_);
  for (;;) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      return load_and_publish(key, lk);
    }
    if (!it->second.loading) {
      hits_.increment();
      lru_.splice(lru_.begin(), lru_, it->second.lru);  // touch
      return it->second.tile;
    }
    // Another thread is reading this tile; wait for it rather than
    // duplicating the I/O. If its load failed the entry vanishes and
    // the loop retries as a fresh miss.
    loaded_cv_.wait(lk);
  }
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
    invalidations_.increment();
    return;
  }
}

CacheStats TileCache::stats() const {
  CacheStats s;
  s.hits = hits_.value();
  s.misses = misses_.value();
  s.evictions = evictions_.value();
  s.invalidations = invalidations_.value();
  s.slot_allocs = slot_allocs_.value();
  std::lock_guard<std::mutex> lk(mutex_);
  s.current_bytes = current_bytes_;
  s.peak_bytes = peak_bytes_;
  return s;
}

TileRef TileCache::load_and_publish(std::uint64_t key,
                                    std::unique_lock<std::mutex>& lk) {
  misses_.increment();
  evict_for_locked(footprint());
  // Keep a reference, not the iterator: concurrent inserts during the
  // unlocked I/O below may rehash the map, which invalidates iterators
  // but never references, and only this thread erases entry `key`.
  Entry& entry = insert_loading_locked(key);
  // Reserve the bytes before dropping the lock so concurrent loaders see
  // each other's in-flight tiles in the accounting.
  current_bytes_ += footprint();
  peak_bytes_ = std::max(peak_bytes_, current_bytes_);
  lk.unlock();

  try {
    file_.read_tile(static_cast<std::uint32_t>(key >> 32),
                    static_cast<std::uint32_t>(key), entry.tile->data());
  } catch (...) {
    lk.lock();
    current_bytes_ -= footprint();
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
    slot_allocs_.increment();
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
  current_bytes_ -= footprint();
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
  while (current_bytes_ + incoming_bytes > budget_ && it != lru_.begin()) {
    --it;
    auto mit = map_.find(*it);
    if (mit->second.tile.use_count() > 1) continue;  // pinned
    it = std::next(it);  // the LRU node moves to the spare list
    release_locked(mit);
    evictions_.increment();
  }
}

void TileCache::link_metrics(const char* prefix) {
  auto& reg = obs::MetricsRegistry::instance();
  using Agg = obs::MetricsRegistry::Agg;
  const std::string p(prefix);
  links_.reserve(7);
  links_.push_back(
      reg.link(p + ".hits", Agg::kSum, [this] { return hits_.value(); }));
  links_.push_back(
      reg.link(p + ".misses", Agg::kSum, [this] { return misses_.value(); }));
  links_.push_back(reg.link(p + ".evictions", Agg::kSum,
                            [this] { return evictions_.value(); }));
  links_.push_back(reg.link(p + ".invalidations", Agg::kSum,
                            [this] { return invalidations_.value(); }));
  links_.push_back(reg.link(p + ".slot_allocs", Agg::kSum,
                            [this] { return slot_allocs_.value(); }));
  // Byte levels: current sums live instances only (a destroyed cache
  // holds nothing), peak is the process-wide high-water mark.
  links_.push_back(reg.link(
      p + ".current_bytes", Agg::kSum,
      [this] {
        std::lock_guard<std::mutex> lk(mutex_);
        return static_cast<std::uint64_t>(current_bytes_);
      },
      /*retain_on_unlink=*/false));
  links_.push_back(reg.link(p + ".peak_bytes", Agg::kMax, [this] {
    std::lock_guard<std::mutex> lk(mutex_);
    return static_cast<std::uint64_t>(peak_bytes_);
  }));
}

}  // namespace tiv::shard
