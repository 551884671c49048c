// Out-of-core TIV severity: writes results into a severity sink (a
// shard::TileFile of kSinkFormat) without materializing the N^2 severity
// matrix, and reads them back. Two drivers:
//
//  - The band-pair walk: all_severities_to_sink (the full build) and
//    rebuild_sink_tile (its one-tile form, the engine's self-healing
//    primitive) stream (a-band, c-band, witness-band) tiles of an input
//    tile file through the witness kernels, honoring the budget of the
//    shard::TileCache that reads it; working set O(budget + tile^2) per
//    worker.
//  - The epoch repair: repair_severities_to_sink, the out-of-core half of
//    the src/stream/ dirty-epoch engine (the tile store's result write). It
//    recomputes the edges flagged in an EpochEdges set (core/epoch_screen)
//    with the flagged-edge repair loop (core/edge_repair), over rows packed
//    from the live post-epoch DelayMatrix, so it reads no input tile, and
//    merges the results into the sink tiles holding a flagged edge, one
//    writer per tile. Dirty hosts run in ascending groups of repair_group_hosts(),
//    sized so the group's packed and result rows fit the input budget.
//
// The sink layout. Severity is symmetric and the band-pair walk produces
// exactly the upper band triangle, so the sink holds only tiles (r, c)
// with r <= c — tiles_per_side*(tiles+1)/2 of them. Tile (r, c) carries
// tile_dim x tile_dim floats:
//
//   payload[lr * T + lc] = sev(r*T + lr, c*T + lc)
//
// with 0.0f for unmeasured pairs, the diagonal, and the padding beyond the
// matrix edge — the exact values the in-memory SeverityMatrix holds there.
// Diagonal tiles (r == c) store their little square in full (both local
// triangles), so a row read never transposes within a tile; reading global
// row i still walks tiles (c, band(i)) for c < band(i) column-wise, which
// the budgeted sink cache keeps cheap. sink_severity and sink_severity_row
// are those reads.
//
// Results are bit-identical to the in-memory TivAnalyzer path: tiles and
// packed rows hold the view's encoding, every path feeds the same
// accumulator lanes in ascending column order, and the final reduction
// tree is shared (core/witness_kernels.hpp). See docs/PERFORMANCE.md
// ("Sink-fed drivers").
//
// Every function checks the formats it is handed: an input cache over a
// sink file, or a sink of the input format, throws std::invalid_argument.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/epoch_screen.hpp"
#include "core/severity.hpp"
#include "shard/tile_cache.hpp"
#include "shard/tile_file.hpp"

namespace tiv::core {

/// All-edges severity streamed from the input file `input` reads *into*
/// `sink` — the fully out-of-core form: neither the delay matrix nor the
/// severity result is ever materialized in memory (working set = cache
/// budget + one O(tile^2) buffer per pool worker). `sink` must be a
/// writable sink with the same n and tile_dim as the input. Every stored
/// entry is bit-identical to the corresponding all_severities cell;
/// entries the in-memory path never sets (unmeasured pairs, the diagonal,
/// padding) are 0.0f.
void all_severities_to_sink(shard::TileCache& input, shard::TileFile& sink);

/// Accounting for one repair_severities_to_sink call.
struct SinkRepairStats {
  std::size_t tiles_committed = 0;   ///< distinct sink tiles rewritten
  std::size_t edges_recomputed = 0;  ///< flagged pairs re-evaluated (incl.
                                     ///< pairs reset to 0 on a loss)
};

/// Dirty hosts per pass of repair_severities_to_sink: the most whose packed
/// and result rows (2 * bands * tile_dim floats each) fit in budget_bytes,
/// at least 1.
std::size_t repair_group_hosts(std::size_t n, std::uint32_t tile_dim,
                               std::size_t budget_bytes);

/// Incremental form of all_severities_to_sink: recomputes exactly the
/// edges flagged in `edges` — a set over `dirty_hosts` (ascending,
/// distinct — what DelayStream::commit_epoch returns; std::invalid_argument
/// otherwise, and on an edge set of another geometry) — through the
/// flagged-edge repair loop over rows packed from `matrix`, the post-epoch
/// matrix, and rewrites only the sink tiles whose values a rebuild would
/// change: those holding a measured flagged edge or a stale value reset to
/// 0. Reads no input tile. Host groups are sized against `budget_bytes`
/// (repair_group_hosts; the engine passes its input cache budget).
/// Severities outside the flagged edges are untouched, so with the
/// screen's flags (or every incident edge flagged) the sink stays
/// bit-identical to a from-scratch all_severities of `matrix` after every
/// epoch.
///
/// `written`, when not empty, holds one byte per sink tile
/// (sink.tile_count(), indexed by sink.tile_index); the pass sets the byte
/// of every tile it writes, before the write. Bytes are only ever set, so
/// across a pass that throws and its retry they name every tile either
/// attempt wrote — the tiles whose cached copies are stale.
SinkRepairStats repair_severities_to_sink(
    const DelayMatrix& matrix, shard::TileFile& sink,
    std::size_t budget_bytes, std::span<const HostId> dirty_hosts,
    const EpochEdges& edges, std::span<std::uint8_t> written = {});

/// The screen's read of the pre-epoch rows (core/epoch_screen): calls
/// screen.diff on every dirty host's packed row, read through the input
/// cache `input` one acquire per (dirty band, K) on the pool — the epoch's
/// only input-tile reads. Call after screen.begin and before the epoch's
/// tiles are repacked. Rethrows the first error of a unit — a corrupt
/// tile, or the screen's std::invalid_argument — on the calling thread.
void diff_dirty_rows(shard::TileCache& input,
                     std::span<const HostId> dirty_hosts,
                     EpochScreen& screen);

/// Recomputes sink tile (bi, bj), bi <= bj, from scratch through the
/// band-pair walk and commits it — the one-tile form of
/// all_severities_to_sink, bit-identical to the tile a full build would
/// write (same kernels, same ascending-witness-band order). This is the
/// self-healing primitive of the out-of-core engine: when a sink tile
/// fails its checksum, its band pair is rebuilt from the (trusted) input
/// file instead of abandoning the run. Runs on the calling thread.
void rebuild_sink_tile(shard::TileCache& input, shard::TileFile& sink,
                       std::uint32_t bi, std::uint32_t bj);

/// Severity of edge (a, b) read through `sink`, a cache over a severity
/// sink — symmetric, 0 for a == b; one cached tile lookup. Requires
/// a, b < n (hosts in the last band's padding read 0).
float sink_severity(shard::TileCache& sink, HostId a, HostId b);

/// Severity row a into `out` (n floats): sev(a, x) for every x, read
/// through `sink`. Walks the band tiles of row a — tiles (band(a), c)
/// row-wise past the diagonal band, tiles (c, band(a)) column-wise before
/// it. Requires a < n and out.size() >= n.
void sink_severity_row(shard::TileCache& sink, HostId a,
                       std::span<float> out);

}  // namespace tiv::core
