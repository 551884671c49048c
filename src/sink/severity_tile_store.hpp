// On-disk tiled severity *output* — the result-side counterpart of
// shard::TileStore. The ROADMAP's N >= 1e5 target makes even the severity
// result (an N^2 float matrix, ~40 GB) too large for RAM; this store keeps
// it on disk in the same fixed-size-tile, header + offset-index format as
// the input store, with tiles of the same shape (tile_dim^2 floats,
// shard::tile_size_bytes), so the out-of-core pipeline is tile-structured
// end to end and both tile caches hold the same shard::Tile.
//
// Severity is symmetric and the band-pair streaming driver
// (core/shard_severity) produces exactly the upper band triangle, so the
// store holds only tiles (r, c) with r <= c — tiles_per_side*(tiles+1)/2 of
// them. Tile (r, c) carries tile_dim x tile_dim floats:
//
//   payload[lr * T + lc] = sev(r*T + lr, c*T + lc)
//
// with 0.0f for unmeasured pairs, the diagonal, and the padding beyond the
// matrix edge — the exact values the in-memory SeverityMatrix holds there.
// Diagonal tiles (r == c) store their little square in full (both local
// triangles), so a row read never transposes within a tile; reading global
// row i still walks tiles (c, band(i)) for c < band(i) column-wise, which
// the budgeted cache (severity_cache.hpp) keeps cheap.
//
// The file machinery (header/offset-index/checksum-table layout, checksum64
// validation on every read_tile, in-place write_tile commits,
// fault-injection hooks) is shard::TileFile with a triangular index shape —
// one definition shared with the input store. create() builds the store
// sparse: the tile region is a hole (holes pread back as zeros, exactly the
// all-zero severity every tile starts with), so blocks materialize only as
// tiles are committed. Reads use pread(2) and are thread-safe; concurrent
// writes to *distinct* tiles are safe (positional writes, distinct checksum
// slots), which is what lets the band-pair repair driver commit tiles from
// pool workers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "delayspace/delay_matrix.hpp"
#include "shard/checksum.hpp"
#include "shard/tile_file.hpp"
#include "shard/tile_store.hpp"

namespace tiv::sink {

using delayspace::HostId;

class SeverityTileStore {
 public:
  /// Creates an n-host store at `path` with every tile zeroed (all
  /// severities 0 — the value unmeasured pairs keep forever). tile_dim must
  /// be a nonzero multiple of DelayMatrixView::kLaneFloats. Throws
  /// std::invalid_argument / std::runtime_error.
  static void create(const std::string& path, HostId n,
                     std::uint32_t tile_dim = shard::kDefaultTileDim);

  /// Opens an existing store; `writable` enables write_tile. Throws
  /// std::runtime_error on a missing file or a malformed/mismatched
  /// header — including, when expected_n is nonzero, a header geometry
  /// (n, tile_dim) that differs from what the caller expects.
  static SeverityTileStore open(const std::string& path,
                                bool writable = false, HostId expected_n = 0,
                                std::uint32_t expected_tile_dim = 0);

  SeverityTileStore(SeverityTileStore&&) noexcept = default;
  SeverityTileStore& operator=(SeverityTileStore&&) noexcept = default;
  SeverityTileStore(const SeverityTileStore&) = delete;
  SeverityTileStore& operator=(const SeverityTileStore&) = delete;

  HostId size() const { return file_.size(); }
  std::uint32_t tile_dim() const { return file_.tile_dim(); }
  std::uint32_t tiles_per_side() const { return file_.tiles_per_side(); }
  /// Stored tiles: the upper band triangle, diagonal included.
  std::size_t tile_count() const { return file_.tile_count(); }
  /// Floats in one tile (tile_dim^2) — also its serialized size / 4.
  std::size_t payload_floats() const {
    return static_cast<std::size_t>(tile_dim()) * tile_dim();
  }
  std::size_t tile_bytes() const { return file_.tile_bytes(); }

  /// Rows of band r that carry real matrix rows (tile_dim except the last).
  std::uint32_t band_rows(std::uint32_t r) const {
    return file_.band_rows(r);
  }

  /// Flat index of tile (r, c) in the upper band triangle. Requires r <= c.
  std::size_t tile_index(std::uint32_t r, std::uint32_t c) const {
    return file_.tile_index(r, c);
  }

  /// Byte offset of tile (r, c) in the file — for fault-injection
  /// harnesses that damage tiles on disk directly.
  std::uint64_t tile_offset(std::uint32_t r, std::uint32_t c) const {
    return file_.tile_offset(r, c);
  }

  /// Attaches (or detaches, nullptr) a deterministic fault injector to
  /// this store's reads and commits. See shard/fault_injector.hpp.
  void set_fault_injector(shard::FaultInjector* injector) {
    file_.set_fault_injector(injector);
  }
  shard::FaultInjector* fault_injector() const {
    return file_.fault_injector();
  }

  /// Checksum-mismatch re-reads absorbed as transient (see
  /// shard::TileFile::read_retries).
  std::uint64_t read_retries() const { return file_.read_retries(); }

  /// Reads tile (r, c), r <= c, into payload_floats() floats. Thread-safe.
  /// Throws std::runtime_error on I/O failure, shard::CorruptTileError on a
  /// checksum mismatch or a truncated tile.
  void read_tile(std::uint32_t r, std::uint32_t c, float* payload) const {
    file_.read_tile(r, c, payload);
  }

  /// Rewrites tile (r, c), r <= c, in place and commits its checksum.
  /// Requires a writable open. Safe from concurrent threads for distinct
  /// tiles; not safe concurrently with reads of the same tile (the repair
  /// driver owns a dirty tile exclusively while it rewrites it).
  void write_tile(std::uint32_t r, std::uint32_t c, const float* payload) {
    file_.write_tile(r, c, payload);
  }

  bool writable() const { return file_.writable(); }
  const std::string& path() const { return file_.path(); }

 private:
  SeverityTileStore() = default;

  shard::TileFile file_;
};

}  // namespace tiv::sink
