#include "shard/tile_store.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "shard/checksum.hpp"

namespace tiv::shard {
namespace {

using delayspace::DelayMatrixView;

/// Packs tile (tr, tc) of `m` into `tile` — the single definition of a
/// tile's bytes, shared by write_matrix and repack_tile so an in-place
/// repack is byte-identical to a fresh build.
void pack_tile(const DelayMatrix& m, std::uint32_t tile_dim, std::uint32_t tr,
               std::uint32_t tc, std::vector<float>& tile) {
  const HostId n = m.size();
  tile.assign(static_cast<std::size_t>(tile_dim) * tile_dim,
              DelayMatrixView::kMaskedDelay);
  const HostId row_end =
      std::min<HostId>(n, static_cast<HostId>(tr + 1) * tile_dim);
  const HostId col_base = static_cast<HostId>(tc) * tile_dim;
  const HostId col_end = std::min<HostId>(n, col_base + tile_dim);
  for (HostId i = static_cast<HostId>(tr) * tile_dim; i < row_end; ++i) {
    const std::size_t lr = i - static_cast<HostId>(tr) * tile_dim;
    // Shared encoding definition — bit-identity with the in-memory
    // view depends on writing exactly its representation.
    DelayMatrixView::pack_row_segment(m, i, col_base, col_end,
                                      tile.data() + lr * tile_dim);
  }
}

}  // namespace

void write_matrix(const std::string& path, const DelayMatrix& m,
                  std::uint32_t tile_dim) {
  TileFile::Writer w(kInputFormat, path, m.size(), tile_dim);
  const std::uint32_t tiles = w.tiles_per_side();
  // Stream one tile at a time, walking a tile-row band of the source so the
  // writer's working set is one tile, not the packed view.
  std::vector<float> tile;
  for (std::uint32_t tr = 0; tr < tiles; ++tr) {
    for (std::uint32_t tc = 0; tc < tiles; ++tc) {
      pack_tile(m, tile_dim, tr, tc, tile);
      w.append_tile(tile.data());
    }
  }
  w.finish();
}

void repack_tile(TileFile& file, const DelayMatrix& m, std::uint32_t r,
                 std::uint32_t c) {
  file.require_shape(TileIndexShape::kSquare, "repack_tile");
  if (m.size() != file.size()) {
    throw std::runtime_error("repack_tile: matrix size mismatch: " +
                             file.path());
  }
  std::vector<float> tile;
  pack_tile(m, file.tile_dim(), r, c, tile);
  file.write_tile(r, c, tile.data());
}

void create_sink(const std::string& path, HostId n, std::uint32_t tile_dim) {
  TileFile::Writer w(kSinkFormat, path, n, tile_dim);
  // Every tile starts zeroed, so the whole checksum table is the one hash
  // of a zero tile (and the tile region itself can stay a hole).
  const std::vector<float> zero_tile(
      static_cast<std::size_t>(tile_dim) * tile_dim, 0.0f);
  w.finish_sparse(checksum64(zero_tile.data(), tile_size_bytes(tile_dim)));
}

}  // namespace tiv::shard
