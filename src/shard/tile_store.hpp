// On-disk tiled delay-matrix store — the out-of-core backing for host
// counts whose packed DelayMatrixView no longer fits in memory (the
// ROADMAP's N >= 1e5 target needs ~40 GB per float matrix).
//
// A store is the serialized form of a DelayMatrixView, cut into fixed-size
// square tiles of tile_dim x tile_dim entries (tile_dim a multiple of
// DelayMatrixView::kLaneFloats). Tile (r, c) holds the view entries for
// rows [r*T, r*T + T) x columns [c*T, c*T + T): tile_dim rows of tile_dim
// floats, exactly the view's packed representation — missing entries are
// kMaskedDelay, the diagonal is 0, rows/columns beyond the matrix edge are
// kMaskedDelay padding. A loaded tile therefore drops straight into the
// branch-free witness kernels with no fixup pass. With tile_dim % 16 == 0
// every row is a whole number of 64-byte lines, so an aligned in-memory
// destination (shard::Tile) keeps every row cache-line aligned for the
// SIMD kernels. The view's missing-entry bitmasks are not stored: the
// kernels read a missing entry as kMaskedDelay.
//
// The file format (header/offset-index/checksum-table layout, checksum64
// validation on every read, in-place tile commits, fault-injection hooks)
// is shard::TileFile with a square index shape — shared with the severity
// output store, which differs only in its parameters. This store owns what
// is specific to delay matrices: the tile byte encoding above, write_matrix
// (streaming one tile-row band at a time, O(T*N) memory), and repack_tile —
// the in-place tile repair of the out-of-core streaming engine
// (src/stream/shard_stream), byte-identical to the tile a fresh
// write_matrix of the mutated matrix would produce, mirroring
// DelayMatrixView::repack_row.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "delayspace/delay_matrix.hpp"
#include "shard/checksum.hpp"
#include "shard/tile_file.hpp"

namespace tiv::shard {

using delayspace::DelayMatrix;
using delayspace::HostId;

/// Default tile edge: 64 rows x 64 cols x 4 B = 16 KiB per tile —
/// large enough that pread cost amortizes, small enough that a few-MB cache
/// budget holds dozens of tiles.
inline constexpr std::uint32_t kDefaultTileDim = 64;

class TileStore {
 public:
  /// Serializes `m` to `path` as a tiled store. tile_dim must be a nonzero
  /// multiple of DelayMatrixView::kLaneFloats (throws std::invalid_argument
  /// otherwise); throws std::runtime_error on I/O failure.
  static void write_matrix(const std::string& path, const DelayMatrix& m,
                           std::uint32_t tile_dim = kDefaultTileDim);

  /// Opens an existing store. Throws std::runtime_error on a missing file
  /// or a malformed/mismatched header — including, when expected_n is
  /// nonzero, a header geometry (n, tile_dim) that differs from what the
  /// caller expects. `writable` opens the file O_RDWR and enables
  /// repack_tile.
  static TileStore open(const std::string& path, bool writable = false,
                        HostId expected_n = 0,
                        std::uint32_t expected_tile_dim = 0);

  TileStore(TileStore&&) noexcept = default;
  TileStore& operator=(TileStore&&) noexcept = default;
  TileStore(const TileStore&) = delete;
  TileStore& operator=(const TileStore&) = delete;

  HostId size() const { return file_.size(); }
  std::uint32_t tile_dim() const { return file_.tile_dim(); }
  std::uint32_t tiles_per_side() const { return file_.tiles_per_side(); }

  /// Floats in a tile (tile_dim^2).
  std::size_t payload_floats() const {
    return static_cast<std::size_t>(tile_dim()) * tile_dim();
  }
  /// Serialized tile size (tile_size_bytes(tile_dim)), a multiple of 64
  /// bytes.
  std::size_t tile_bytes() const { return file_.tile_bytes(); }

  /// Rows of tile-row band r that carry real matrix rows (tile_dim except
  /// for the last band).
  std::uint32_t band_rows(std::uint32_t r) const {
    return file_.band_rows(r);
  }

  /// Byte offset of tile (r, c) in the file — for fault-injection
  /// harnesses that damage tiles on disk directly.
  std::uint64_t tile_offset(std::uint32_t r, std::uint32_t c) const {
    return file_.tile_offset(r, c);
  }

  /// Attaches (or detaches, nullptr) a deterministic fault injector to
  /// this store's reads and commits. See shard/fault_injector.hpp.
  void set_fault_injector(FaultInjector* injector) {
    file_.set_fault_injector(injector);
  }
  FaultInjector* fault_injector() const { return file_.fault_injector(); }

  /// Checksum-mismatch re-reads absorbed as transient (see
  /// TileFile::read_retries).
  std::uint64_t read_retries() const { return file_.read_retries(); }

  /// Reads tile (r, c) into payload_floats() caller-provided floats.
  /// Thread-safe (positional reads). Throws std::runtime_error on I/O
  /// failure and CorruptTileError when the tile bytes do not match their
  /// stored checksum (or the tile is truncated).
  void read_tile(std::uint32_t r, std::uint32_t c, float* payload) const {
    file_.read_tile(r, c, payload);
  }

  /// Rewrites tile (r, c) in place from `m` (the matrix this store
  /// serialized, same size, mutated since), committing the tile bytes and
  /// its refreshed checksum — byte-identical to the tile a fresh
  /// write_matrix(m) would produce, because both go through
  /// DelayMatrixView::pack_row_segment. Requires a writable open (throws
  /// std::runtime_error otherwise). Not safe concurrently with reads of the
  /// *same* tile; the streaming engine calls it only between epochs, when
  /// no tile refs are outstanding.
  void repack_tile(const DelayMatrix& m, std::uint32_t r, std::uint32_t c);

  bool writable() const { return file_.writable(); }
  const std::string& path() const { return file_.path(); }

 private:
  TileStore() = default;

  TileFile file_;
};

}  // namespace tiv::shard
