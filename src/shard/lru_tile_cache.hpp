// Memory-budgeted, thread-safe LRU tile-cache core shared by the
// delay-matrix input cache (shard::TileCache) and the severity output
// cache (sink::SeverityCache). One definition of the concurrency and
// accounting machinery, so a fix in one cache cannot silently miss the
// other.
//
// Concurrency model: one mutex guards the map/LRU bookkeeping; the
// caller-supplied loader (tile I/O) runs outside it, so distinct tiles
// load in parallel. A thread requesting a tile another thread is already
// loading waits on a condition variable instead of issuing a duplicate
// read (no cache stampede).
//
// Budget accounting counts every resident tile (loaded entries plus
// in-flight loads, whose bytes are reserved before the read starts).
// Eviction walks from the least recently used end, skipping entries pinned
// by an outstanding Ref (use_count > 1) — a pinned tile is never removed
// from the map, so a tile's bytes are released exactly when its entry is
// erased. The hard invariant is therefore: peak bytes <= max(budget,
// largest simultaneous pinned set).
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

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

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

template <typename TileT>
class LruTileCache {
 public:
  using Ref = std::shared_ptr<const TileT>;
  /// A pooled tile: allocated by `make_slot` when the pool is empty,
  /// refilled in place by every later load.
  using Slot = std::shared_ptr<TileT>;

  /// `metric_prefix`, when given, links this instance's counters into the
  /// process metrics registry under "<prefix>.hits", ".misses",
  /// ".evictions", ".invalidations", ".slot_allocs", ".current_bytes"
  /// (summed across live instances) and ".peak_bytes" (max). Unnamed
  /// caches still count, just unregistered.
  LruTileCache(std::size_t budget_bytes, std::size_t tile_footprint,
               std::function<Slot()> make_slot,
               const char* metric_prefix = nullptr)
      : budget_(budget_bytes),
        tile_footprint_(tile_footprint),
        make_slot_(std::move(make_slot)) {
    if (metric_prefix != nullptr) link_metrics(metric_prefix);
  }

  LruTileCache(const LruTileCache&) = delete;
  LruTileCache& operator=(const LruTileCache&) = delete;

  /// Returns the tile under `key`, invoking `loader(TileT&)` (unlocked,
  /// may throw) to fill a pooled slot on a miss. Thread-safe; blocks only
  /// while another thread is loading the same key.
  template <typename Loader>
  Ref acquire(std::uint64_t key, Loader&& loader) {
    std::unique_lock<std::mutex> lk(mutex_);
    for (;;) {
      auto it = map_.find(key);
      if (it == map_.end()) {
        return load_and_publish(key, loader, lk);
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

  /// Drops `key` so the next acquire re-loads it — the coherence hook
  /// after an in-place tile rewrite. Waits for an in-flight load of the
  /// key to finish (a stale read racing the rewrite must not be published
  /// past this call). Precondition: no outstanding Ref pins the tile.
  void invalidate(std::uint64_t key) {
    std::unique_lock<std::mutex> lk(mutex_);
    for (;;) {
      auto it = map_.find(key);
      if (it == map_.end()) return;
      if (it->second.loading) {
        loaded_cv_.wait(lk);
        continue;
      }
      assert(it->second.tile.use_count() == 1 &&
             "invalidating a pinned tile");
      release_locked(it);
      invalidations_.increment();
      return;
    }
  }

  std::size_t budget_bytes() const { return budget_; }

  CacheStats stats() const {
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

 private:
  struct Entry {
    Slot tile;  ///< owned by the loader (not readable) while loading
    bool loading = false;
    std::list<std::uint64_t>::iterator lru;  ///< valid once loaded
  };
  using Map = std::unordered_map<std::uint64_t, Entry>;

  template <typename Loader>
  Ref load_and_publish(std::uint64_t key, Loader& loader,
                       std::unique_lock<std::mutex>& lk) {
    misses_.increment();
    evict_for_locked(tile_footprint_);
    // Keep a reference, not the iterator: concurrent inserts during the
    // unlocked I/O below may rehash the map, which invalidates iterators
    // but never references, and only this thread erases entry `key`.
    Entry& entry = insert_loading_locked(key);
    // Reserve the bytes before dropping the lock so concurrent loaders see
    // each other's in-flight tiles in the accounting.
    current_bytes_ += tile_footprint_;
    peak_bytes_ = std::max(peak_bytes_, current_bytes_);
    lk.unlock();

    try {
      loader(*entry.tile);
    } catch (...) {
      lk.lock();
      current_bytes_ -= tile_footprint_;
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
  Entry& insert_loading_locked(std::uint64_t key) {
    if (free_.empty()) {
      slot_allocs_.increment();
      return map_.emplace(key, Entry{make_slot_(), true, lru_.end()})
          .first->second;
    }
    typename Map::node_type node = std::move(free_.back());
    free_.pop_back();
    node.key() = key;
    node.mapped().loading = true;
    return map_.insert(std::move(node)).position->second;
  }

  /// Unmaps the loaded, unpinned entry `it` and returns its slot, map node
  /// and LRU node to the pool.
  void release_locked(typename Map::iterator it) {
    lru_spare_.splice(lru_spare_.end(), lru_, it->second.lru);
    typename Map::node_type node = map_.extract(it);
    current_bytes_ -= tile_footprint_;
    // A slot a reader still pins (only if invalidate()'s precondition is
    // broken) is dropped, never refilled under the reader. The check
    // copies the pointer: that refcount increment is an acq_rel RMW, so it
    // also orders the last reader's accesses (and its unpin) before the
    // slot's next refill — use_count() alone is a relaxed load.
    if (Slot(node.mapped().tile).use_count() == 2) {
      free_.push_back(std::move(node));
    }
  }

  void evict_for_locked(std::size_t incoming_bytes) {
    // Walk from least recently used, skipping pinned tiles (a Ref beyond
    // the map's own keeps use_count > 1). Loading placeholders are not in
    // lru_ and so are never considered.
    auto it = lru_.end();
    while (current_bytes_ + incoming_bytes > budget_ &&
           it != lru_.begin()) {
      --it;
      auto mit = map_.find(*it);
      if (mit->second.tile.use_count() > 1) continue;  // pinned
      it = std::next(it);  // the LRU node moves to the spare list
      release_locked(mit);
      evictions_.increment();
    }
  }

  void link_metrics(const char* prefix) {
    auto& reg = obs::MetricsRegistry::instance();
    using Agg = obs::MetricsRegistry::Agg;
    const std::string p(prefix);
    links_.reserve(7);
    links_.push_back(reg.link(p + ".hits", Agg::kSum,
                              [this] { return hits_.value(); }));
    links_.push_back(reg.link(p + ".misses", Agg::kSum,
                              [this] { return misses_.value(); }));
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

  const std::size_t budget_;
  const std::size_t tile_footprint_;  ///< bytes one resident tile accounts
  const std::function<Slot()> make_slot_;

  mutable std::mutex mutex_;
  std::condition_variable loaded_cv_;
  Map map_;
  std::list<std::uint64_t> lru_;  ///< front = most recently used
  // The pool: map nodes carrying an idle slot, and spare LRU list nodes.
  std::vector<typename Map::node_type> free_;
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
