#include "sink/severity_cache.hpp"

#include <cassert>
#include <cstring>
#include <utility>

namespace tiv::sink {

using delayspace::HostId;

SevTileRef SeverityCache::acquire(std::uint32_t r, std::uint32_t c) {
  assert(r <= c);
  return cache_.acquire(key(r, c), [&](shard::Tile& slot) {
    store_.read_tile(r, c, slot.data());
  });
}

float SeverityCache::at(HostId a, HostId b) {
  if (a == b) return 0.0f;
  const std::uint32_t T = store_.tile_dim();
  // sev is symmetric and only tiles r <= c exist; diagonal tiles hold both
  // local triangles, so (row in the lower band, column in the higher) is
  // always addressable directly.
  if (a / T > b / T) std::swap(a, b);
  const std::uint32_t r = a / T;
  const std::uint32_t c = b / T;
  const SevTileRef tile = acquire(r, c);
  return tile->row(a % T)[b % T];
}

void SeverityCache::read_row(HostId a, std::span<float> out) {
  assert(out.size() >= store_.size());
  const std::uint32_t T = store_.tile_dim();
  const std::uint32_t ba = a / T;
  const std::uint32_t la = a % T;
  for (std::uint32_t c = 0; c < store_.tiles_per_side(); ++c) {
    const std::uint32_t cols = store_.band_rows(c);
    const std::size_t base = static_cast<std::size_t>(c) * T;
    if (c >= ba) {
      // Row la of tile (ba, c), contiguous.
      const SevTileRef tile = acquire(ba, c);
      std::memcpy(out.data() + base, tile->row(la), cols * sizeof(float));
    } else {
      // Column la of tile (c, ba): sev(a, x) = sev(x, a) for x in band c.
      const SevTileRef tile = acquire(c, ba);
      const float* p = tile->row(0);
      for (std::uint32_t lr = 0; lr < cols; ++lr) {
        out[base + lr] = p[static_cast<std::size_t>(lr) * T + la];
      }
    }
  }
}

}  // namespace tiv::sink
