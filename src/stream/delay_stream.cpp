#include "stream/delay_stream.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace tiv::stream {
namespace {

constexpr std::size_t kMinCapacity = 16;

const EstimatorParams& validated(const EstimatorParams& p) {
  switch (p.policy) {
    case SmoothingPolicy::kLatest:
    case SmoothingPolicy::kEwma:
    case SmoothingPolicy::kWindowedMin:
      break;
    default:
      throw std::invalid_argument("DelayStream: unknown smoothing policy");
  }
  // The window sets every edge's slot size, and its cursor is one byte.
  if (p.window < 1 || p.window > 255) {
    throw std::invalid_argument("DelayStream: window must be in [1, 255]");
  }
  if (!std::isfinite(p.ewma_alpha) || !(p.ewma_alpha > 0.0f) ||
      p.ewma_alpha > 1.0f) {
    throw std::invalid_argument("DelayStream: ewma_alpha must be in (0, 1]");
  }
  return p;
}

}  // namespace

void DelayStream::FreeDeleter::operator()(std::byte* p) const { std::free(p); }

std::uint64_t DelayStream::edge_hash(std::uint64_t key) {
  // murmur3's fmix64: every key bit reaches both the top bits (the shard)
  // and the low bits (the slot).
  key ^= key >> 33;
  key *= 0xff51afd7ed558ccdull;
  key ^= key >> 33;
  key *= 0xc4ceb9fe1a85ec53ull;
  key ^= key >> 33;
  return key;
}

DelayStream::DelayStream(DelayMatrix initial, EstimatorParams params)
    : matrix_(std::move(initial)),
      params_(validated(params)),
      shards_(kShards),
      host_dirty_((matrix_.size() + 63) / 64, 0) {
  const std::size_t ring =
      params_.policy == SmoothingPolicy::kWindowedMin ? params_.window : 0;
  slot_bytes_ = (sizeof(Slot) + ring * sizeof(float) + 7) & ~std::size_t{7};

  auto& reg = obs::MetricsRegistry::instance();
  metrics_ = {&reg.counter("stream.samples_applied"),
              &reg.counter("stream.rejected_self_pair"),
              &reg.counter("stream.rejected_stale"),
              &reg.counter("stream.rejected_nonfinite"),
              &reg.counter("stream.samples_rejected"),
              &reg.counter("stream.edges_touched"),
              &reg.counter("stream.became_measured"),
              &reg.counter("stream.became_missing"),
              &reg.counter("stream.epochs_committed")};
}

void DelayStream::mark_dirty(HostId h) {
  const std::uint64_t bit = std::uint64_t{1} << (h % 64);
  std::atomic_ref<std::uint64_t> word(host_dirty_[h / 64]);
  if (!(word.load(std::memory_order_relaxed) & bit)) {
    word.fetch_or(bit, std::memory_order_relaxed);
  }
}

void DelayStream::reserve(Shard& shard, std::size_t incoming) const {
  const std::size_t need = shard.size + incoming;
  if (4 * need <= 3 * shard.capacity) return;
  std::size_t cap = std::max(kMinCapacity, shard.capacity);
  while (4 * need > 3 * cap) cap *= 2;
  // calloc: large tables come back as untouched zero pages, and a zero key
  // marks a slot empty.
  std::unique_ptr<std::byte[], FreeDeleter> slots(
      static_cast<std::byte*>(std::calloc(cap, slot_bytes_)));
  if (!slots) throw std::bad_alloc();
  for (std::size_t k = 0; k < shard.capacity; ++k) {
    const std::uint64_t key = slot_at(shard.slots.get(), k)->key;
    if (key == 0) continue;
    std::size_t pos = edge_hash(key) & (cap - 1);
    while (slot_at(slots.get(), pos)->key != 0) pos = (pos + 1) & (cap - 1);
    std::memcpy(slots.get() + pos * slot_bytes_,
                shard.slots.get() + k * slot_bytes_, slot_bytes_);
  }
  shard.slots = std::move(slots);
  shard.capacity = cap;
}

float DelayStream::update(Slot& slot, float sample_ms) const {
  switch (params_.policy) {
    case SmoothingPolicy::kLatest:
      return sample_ms;
    case SmoothingPolicy::kEwma:
      slot.estimate = slot.estimate < 0.0f
                          ? sample_ms  // first sample seeds the average
                          : params_.ewma_alpha * sample_ms +
                                (1.0f - params_.ewma_alpha) * slot.estimate;
      return slot.estimate;
    case SmoothingPolicy::kWindowedMin: {
      float* ring = std::launder(reinterpret_cast<float*>(
          reinterpret_cast<std::byte*>(&slot) + sizeof(Slot)));
      const std::uint32_t window = params_.window;
      ring[slot.ring_next] = sample_ms;
      slot.ring_next = static_cast<std::uint8_t>(
          slot.ring_next + 1u == window ? 0 : slot.ring_next + 1);
      slot.ring_count = static_cast<std::uint8_t>(
          std::min<std::uint32_t>(slot.ring_count + 1u, window));
      float best = ring[0];
      for (std::uint32_t k = 1; k < slot.ring_count; ++k) {
        best = std::min(best, ring[k]);
      }
      return best;
    }
  }
  return sample_ms;  // unreachable: the constructor rejects other policies
}

void DelayStream::walk(Shard& shard, std::span<const DelaySample> batch,
                       const std::uint32_t* begin, const std::uint32_t* end) {
  Tally t;
  std::byte* const slots = shard.slots.get();
  const std::size_t mask = shard.capacity - 1;
  // A shard's samples hit random slots and matrix cells: prefetch both a
  // few samples ahead so their cache misses overlap.
  constexpr std::ptrdiff_t kAhead = 8;
  for (const std::uint32_t* it = begin; it != end; ++it) {
    if (end - it > kAhead) {
      const DelaySample& f = batch[it[kAhead]];
      const std::size_t at = edge_hash(edge_key(f.a, f.b)) & mask;
      __builtin_prefetch(slots + at * slot_bytes_, 1);
      __builtin_prefetch(matrix_.row(f.a).data() + f.b);
    }
    const DelaySample& s = batch[*it];
    const std::uint64_t key = edge_key(s.a, s.b);
    std::size_t pos = edge_hash(key) & mask;
    Slot* slot = slot_at(slots, pos);
    while (slot->key != key && slot->key != 0) {
      pos = (pos + 1) & mask;
      slot = slot_at(slots, pos);
    }
    if (slot->key == 0) {
      slot->key = key;  // the edge's first sample sets its watermark
      slot->estimate = DelayMatrix::kMissing;
      ++shard.size;
    } else if (s.timestamp < slot->last_timestamp) {
      // Out-of-order guard: an edge's samples must arrive with
      // non-decreasing timestamps; a stale straggler is dropped rather than
      // rewinding the estimate. Equal timestamps are accepted (same-batch
      // re-measurement).
      ++t.rejected_stale;
      continue;
    }
    slot->last_timestamp = s.timestamp;
    ++t.samples_applied;

    const float old = matrix_.at(s.a, s.b);
    if (s.delay_ms < 0.0f) {
      // Loss report: drop the smoothing history so a later re-measurement
      // starts fresh instead of averaging against pre-outage state.
      slot->estimate = DelayMatrix::kMissing;
      slot->ring_next = 0;
      slot->ring_count = 0;
      if (old < 0.0f) continue;
      matrix_.set_missing(s.a, s.b);
      ++t.became_missing;
    } else {
      const float estimate = update(*slot, s.delay_ms);
      if (old < 0.0f) ++t.became_measured;
      // Dirty only on an actual matrix change: a repeated identical
      // estimate keeps the epoch clean and the incremental consumers idle.
      if (old >= 0.0f && estimate == old) continue;
      matrix_.set(s.a, s.b, estimate);
    }
    ++t.edges_touched;
    mark_dirty(s.a);
    mark_dirty(s.b);
  }
  shard.tally = t;
}

void DelayStream::ingest_batch(std::span<const DelaySample> batch) {
  // One pass on the calling thread: the guards, then a stable counting
  // sort of the admitted samples into their shards.
  const HostId n = matrix_.size();
  std::size_t self_pair = 0;
  std::size_t nonfinite = 0;
  std::array<std::uint32_t, kShards + 1> start{};  // counts, then offsets
  sample_shard_.resize(batch.size());
  for (std::size_t k = 0; k < batch.size(); ++k) {
    const DelaySample& s = batch[k];
    std::uint8_t shard = kShards;
    if (s.a == s.b || s.a >= n || s.b >= n) {
      ++self_pair;
    } else if (!std::isfinite(s.delay_ms) || !std::isfinite(s.timestamp)) {
      // Non-finite delays are producer bugs, not loss reports: a NaN that
      // reached the EWMA would poison every later blend, and an inf entry
      // would read as measured to the scalar analyzers but masked to the
      // packed view. A NaN timestamp would pass the stale check and become
      // the edge's watermark, which then admits every stale sample.
      ++nonfinite;
    } else {
      shard = static_cast<std::uint8_t>(edge_hash(edge_key(s.a, s.b)) >>
                                        (64 - kShardBits));
      ++start[shard + 1];
    }
    sample_shard_[k] = shard;
  }
  for (std::size_t s = 0; s < kShards; ++s) start[s + 1] += start[s];
  order_.resize(start[kShards]);
  std::array<std::uint32_t, kShards> next{};
  std::copy(start.begin(), start.end() - 1, next.begin());
  for (std::size_t k = 0; k < batch.size(); ++k) {
    if (sample_shard_[k] < kShards) {
      order_[next[sample_shard_[k]]++] = static_cast<std::uint32_t>(k);
    }
  }
  // Only the shards this batch reaches are touched: a small batch between
  // two engine epochs would otherwise take a cache miss per shard. Each is
  // sized for its whole share up front, so no walk rehashes.
  std::array<std::uint8_t, kShards> busy{};
  std::size_t busy_count = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    if (start[s + 1] == start[s]) continue;
    reserve(shards_[s], start[s + 1] - start[s]);
    busy[busy_count++] = static_cast<std::uint8_t>(s);
  }
  const auto walk_shards = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      const std::size_t s = busy[k];
      walk(shards_[s], batch, order_.data() + start[s],
           order_.data() + start[s + 1]);
    }
  };
  if (order_.size() < kParallelMinSamples) {
    walk_shards(0, busy_count);
  } else {
    parallel_for_dynamic(busy_count, 1, walk_shards);
  }

  Tally sum;
  for (std::size_t k = 0; k < busy_count; ++k) {
    const Tally& t = shards_[busy[k]].tally;
    sum.samples_applied += t.samples_applied;
    sum.rejected_stale += t.rejected_stale;
    sum.edges_touched += t.edges_touched;
    sum.became_measured += t.became_measured;
    sum.became_missing += t.became_missing;
  }
  EpochStats& e = pending_;
  e.rejected_self_pair += self_pair;
  e.rejected_nonfinite += nonfinite;
  e.samples_applied += sum.samples_applied;
  e.rejected_stale += sum.rejected_stale;
  e.edges_touched += sum.edges_touched;
  e.became_measured += sum.became_measured;
  e.became_missing += sum.became_missing;
  const Metrics& m = metrics_;
  m.rejected_self_pair->add(self_pair);
  m.rejected_nonfinite->add(nonfinite);
  m.samples_rejected->add(self_pair + nonfinite + sum.rejected_stale);
  m.samples_applied->add(sum.samples_applied);
  m.rejected_stale->add(sum.rejected_stale);
  m.edges_touched->add(sum.edges_touched);
  m.became_measured->add(sum.became_measured);
  m.became_missing->add(sum.became_missing);
}

void DelayStream::ingest(std::span<const DelaySample> batch) {
  obs::Span span("ingest");
  // The counting sort indexes samples with 32 bits.
  constexpr std::size_t kMaxChunk = std::numeric_limits<std::uint32_t>::max();
  for (std::size_t off = 0; off < batch.size(); off += kMaxChunk) {
    ingest_batch(batch.subspan(off, std::min(kMaxChunk, batch.size() - off)));
  }
}

Epoch DelayStream::commit_epoch() {
  Epoch out;
  out.index = epoch_++;
  out.stats = std::exchange(pending_, EpochStats{});
  metrics_.epochs_committed->increment();
  // The bitset scan yields the hosts ascending.
  for (std::size_t w = 0; w < host_dirty_.size(); ++w) {
    for (std::uint64_t bits = std::exchange(host_dirty_[w], 0); bits != 0;
         bits &= bits - 1) {
      out.dirty_hosts.push_back(
          static_cast<HostId>(w * 64 + std::countr_zero(bits)));
    }
  }
  return out;
}

}  // namespace tiv::stream
