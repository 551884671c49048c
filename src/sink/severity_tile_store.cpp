#include "sink/severity_tile_store.hpp"

#include <vector>

namespace tiv::sink {
namespace {

// Version 2: tile checksums are checksum64 (v1 files carry FNV-1a sums and
// are rejected at open as "unsupported version").
constexpr shard::TileFileParams kParams{"TIVSSEV2", 2, "SeverityTileStore",
                                        shard::TileIndexShape::kTriangular,
                                        "shard.sink"};

}  // namespace

void SeverityTileStore::create(const std::string& path, HostId n,
                               std::uint32_t tile_dim) {
  shard::TileFile::Writer w(kParams, path, n, tile_dim);
  // Every tile starts zeroed, so the whole checksum table is the one hash
  // of a zero tile (and the tile region itself can stay a hole).
  const std::vector<float> zero_tile(
      static_cast<std::size_t>(tile_dim) * tile_dim, 0.0f);
  w.finish_sparse(shard::checksum64(zero_tile.data(), w.tile_bytes()));
}

SeverityTileStore SeverityTileStore::open(const std::string& path,
                                          bool writable, HostId expected_n,
                                          std::uint32_t expected_tile_dim) {
  SeverityTileStore s;
  s.file_ = shard::TileFile::open(kParams, path, writable, expected_n,
                                  expected_tile_dim);
  return s;
}

}  // namespace tiv::sink
