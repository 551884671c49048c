#include "shard/tile_store.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <vector>

namespace tiv::shard {
namespace {

using delayspace::DelayMatrixView;

std::size_t store_tile_bytes(std::uint32_t tile_dim) {
  const std::size_t payload_floats =
      static_cast<std::size_t>(tile_dim) * tile_dim;
  const std::size_t mask_words =
      static_cast<std::size_t>(tile_dim) * ((tile_dim + 63) / 64);
  return payload_floats * sizeof(float) + mask_words * sizeof(std::uint64_t);
}

// Version 3: tile checksums are checksum64 (v2 files carry FNV-1a sums and
// are rejected at open as "unsupported version").
constexpr TileFileParams kParams{"TIVSHRD3", 3, "TileStore",
                                 TileIndexShape::kSquare, store_tile_bytes,
                                 "shard.input"};

/// Packs tile (tr, tc) of `m` into payload/masks — the single definition of
/// a tile's bytes, shared by write_matrix and repack_tile so an in-place
/// repack is byte-identical to a fresh build.
void pack_tile(const DelayMatrix& m, std::uint32_t tile_dim, std::uint32_t tr,
               std::uint32_t tc, std::vector<float>& payload,
               std::vector<std::uint64_t>& masks) {
  const HostId n = m.size();
  const std::size_t words_per_row = (tile_dim + 63) / 64;
  payload.assign(static_cast<std::size_t>(tile_dim) * tile_dim,
                 DelayMatrixView::kMaskedDelay);
  masks.assign(tile_dim * words_per_row, 0);
  const HostId row_end =
      std::min<HostId>(n, static_cast<HostId>(tr + 1) * tile_dim);
  const HostId col_base = static_cast<HostId>(tc) * tile_dim;
  const HostId col_end = std::min<HostId>(n, col_base + tile_dim);
  for (HostId i = static_cast<HostId>(tr) * tile_dim; i < row_end; ++i) {
    const std::size_t lr = i - static_cast<HostId>(tr) * tile_dim;
    // Shared encoding definition — bit-identity with the in-memory
    // view depends on writing exactly its representation.
    DelayMatrixView::pack_row_segment(m, i, col_base, col_end,
                                      payload.data() + lr * tile_dim,
                                      masks.data() + lr * words_per_row);
  }
}

}  // namespace

void TileStore::write_matrix(const std::string& path, const DelayMatrix& m,
                             std::uint32_t tile_dim) {
  TileFile::Writer w(kParams, path, m.size(), tile_dim);
  const std::uint32_t tiles = w.tiles_per_side();
  // Stream one tile at a time, walking a tile-row band of the source so the
  // writer's working set is one tile, not the packed view.
  std::vector<float> payload;
  std::vector<std::uint64_t> masks;
  for (std::uint32_t tr = 0; tr < tiles; ++tr) {
    for (std::uint32_t tc = 0; tc < tiles; ++tc) {
      pack_tile(m, tile_dim, tr, tc, payload, masks);
      w.append_tile({{payload.data(), payload.size() * sizeof(float)},
                     {masks.data(), masks.size() * sizeof(std::uint64_t)}});
    }
  }
  w.finish();
}

TileStore TileStore::open(const std::string& path, bool writable,
                          HostId expected_n,
                          std::uint32_t expected_tile_dim) {
  TileStore s;
  s.file_ = TileFile::open(kParams, path, writable, expected_n,
                           expected_tile_dim);
  return s;
}

void TileStore::read_tile(std::uint32_t r, std::uint32_t c, float* payload,
                          std::uint64_t* masks) const {
  file_.read_tile(r, c,
                  {{payload, payload_floats() * sizeof(float)},
                   {masks, mask_words() * sizeof(std::uint64_t)}});
}

void TileStore::repack_tile(const DelayMatrix& m, std::uint32_t r,
                            std::uint32_t c) {
  if (m.size() != size()) {
    throw std::runtime_error("TileStore: repack_tile matrix size mismatch: " +
                             path());
  }
  std::vector<float> payload;
  std::vector<std::uint64_t> masks;
  pack_tile(m, tile_dim(), r, c, payload, masks);
  file_.write_tile(r, c,
                   {{payload.data(), payload.size() * sizeof(float)},
                    {masks.data(), masks.size() * sizeof(std::uint64_t)}});
}

}  // namespace tiv::shard
