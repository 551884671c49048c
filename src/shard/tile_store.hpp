// The tile encodings of the two tile-file formats (shard/tile_file.hpp):
// what an input tile and a fresh sink tile hold, and the functions that
// write them.
//
// Input (kInputFormat) is the serialized form of a DelayMatrixView, cut
// into fixed-size square tiles of tile_dim x tile_dim entries (tile_dim a
// multiple of DelayMatrixView::kLaneFloats) — the out-of-core backing for
// host counts whose packed view no longer fits in memory (the ROADMAP's
// N >= 1e5 target needs ~40 GB per float matrix). Tile (r, c) holds the
// view entries for rows [r*T, r*T + T) x columns [c*T, c*T + T): tile_dim
// rows of tile_dim floats, exactly the view's packed representation —
// missing entries are kMaskedDelay, the diagonal is 0, rows/columns beyond
// the matrix edge are kMaskedDelay padding. A loaded tile therefore drops
// straight into the branch-free witness kernels with no fixup pass. With
// tile_dim % 16 == 0 every row is a whole number of 64-byte lines, so an
// aligned in-memory destination (shard::Tile) keeps every row cache-line
// aligned for the SIMD kernels. The view's missing-entry bitmasks are not
// stored: the kernels read a missing entry as kMaskedDelay. write_matrix
// streams a whole matrix one tile at a time (O(T^2) memory); repack_tile
// is the in-place tile repair of the out-of-core streaming engine
// (src/stream/shard_stream), byte-identical to the tile a fresh
// write_matrix of the mutated matrix would produce, mirroring
// DelayMatrixView::repack_row. Both go through one pack_tile.
//
// Sink (kSinkFormat) holds the severity result on the upper band triangle;
// its layout is defined where it is written and read, in
// core/shard_severity.hpp. create_sink makes a sparse all-zero one: the
// tile region is a hole (holes pread back as zeros, exactly the all-zero
// severity every tile starts with), so blocks materialize only as tiles
// are committed.
#pragma once

#include <cstdint>
#include <string>

#include "delayspace/delay_matrix.hpp"
#include "shard/tile_file.hpp"

namespace tiv::shard {

using delayspace::DelayMatrix;

/// Serializes `m` to `path` as an input tile file. tile_dim must be a
/// nonzero multiple of DelayMatrixView::kLaneFloats (throws
/// std::invalid_argument otherwise); throws std::runtime_error on I/O
/// failure.
void write_matrix(const std::string& path, const DelayMatrix& m,
                  std::uint32_t tile_dim = kDefaultTileDim);

/// Rewrites input tile (r, c) of `file` in place from `m` (the matrix the
/// file serialized, same size, mutated since), committing the tile bytes
/// and its refreshed checksum — byte-identical to the tile a fresh
/// write_matrix(m) would produce. Throws std::invalid_argument on a sink
/// file, std::runtime_error on a size mismatch or a read-only open. Not
/// safe concurrently with reads of the *same* tile; the streaming engine
/// calls it only between epochs, when no tile refs are outstanding.
void repack_tile(TileFile& file, const DelayMatrix& m, std::uint32_t r,
                 std::uint32_t c);

/// Creates an n-host sink tile file at `path` with every tile zeroed (all
/// severities 0 — the value unmeasured pairs keep forever). tile_dim must
/// be a nonzero multiple of DelayMatrixView::kLaneFloats. Throws
/// std::invalid_argument / std::runtime_error.
void create_sink(const std::string& path, HostId n,
                 std::uint32_t tile_dim = kDefaultTileDim);

}  // namespace tiv::shard
