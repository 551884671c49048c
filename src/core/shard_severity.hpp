// Out-of-core TIV severity: writes results into a sink::SeverityTileStore
// without materializing the N^2 severity matrix. Two drivers:
//
//  - The band-pair walk: all_severities_to_sink (the full build) and
//    rebuild_sink_tile (its one-tile form, the engine's self-healing
//    primitive) stream (a-band, c-band, witness-band) tiles of a
//    shard::TileStore through the witness kernels, honoring the budget of a
//    shard::TileCache; working set O(budget + tile^2) per worker.
//  - The epoch repair: repair_severities_to_sink, the out-of-core half of
//    the src/stream/ dirty-epoch engine. It recomputes the edges flagged in
//    an EpochEdges set (core/epoch_screen) with the flagged-edge repair
//    loop both engines share (core/edge_repair), over rows packed from the
//    live post-epoch DelayMatrix, so it reads no input tile, and merges the
//    results into the sink tiles holding a flagged edge, one writer per
//    tile. Dirty hosts run in ascending groups of repair_group_hosts(),
//    sized so the group's packed and result rows fit the input budget.
//
// Results are bit-identical to the in-memory TivAnalyzer path: tiles and
// packed rows hold the view's encoding, every path feeds the same
// accumulator lanes in ascending column order, and the final reduction
// tree is shared (core/witness_kernels.hpp). See docs/PERFORMANCE.md
// ("Sink-fed drivers").
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/epoch_screen.hpp"
#include "core/severity.hpp"
#include "shard/tile_cache.hpp"
#include "shard/tile_store.hpp"
#include "sink/severity_tile_store.hpp"

namespace tiv::core {

/// All-edges severity streamed from `store` *into* `sink` — the fully
/// out-of-core form: neither the delay matrix nor the severity result is
/// ever materialized in memory (working set = cache budget + one O(tile^2)
/// buffer per pool worker). `sink` must be writable with the same n and
/// tile_dim as `store`. Every stored entry is bit-identical to the
/// corresponding all_severities cell; entries the in-memory path never
/// sets (unmeasured pairs, the diagonal, padding) are 0.0f.
void all_severities_to_sink(const shard::TileStore& store,
                            shard::TileCache& cache,
                            sink::SeverityTileStore& sink);

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
/// Severities the in-memory IncrementalSeverity::apply_epoch would leave
/// untouched are untouched here too, so with the screen's flags (or every
/// incident edge flagged) the sink stays bit-identical to a from-scratch
/// all_severities of `matrix` after every epoch.
///
/// `written`, when not empty, holds one byte per sink tile
/// (sink.tile_count(), indexed by sink.tile_index); the pass sets the byte
/// of every tile it writes, before the write. Bytes are only ever set, so
/// across a pass that throws and its retry they name every tile either
/// attempt wrote — the tiles whose cached copies are stale.
SinkRepairStats repair_severities_to_sink(
    const DelayMatrix& matrix, sink::SeverityTileStore& sink,
    std::size_t budget_bytes, std::span<const HostId> dirty_hosts,
    const EpochEdges& edges, std::span<std::uint8_t> written = {});

/// The screen's read of the pre-epoch rows (core/epoch_screen): calls
/// screen.diff on every dirty host's packed row, read from `store` one
/// acquire per (dirty band, K) on the pool — the epoch's only input-tile
/// reads. Call after screen.begin and before the epoch's tiles are
/// repacked. Rethrows the first error of a unit — a corrupt tile, or the
/// screen's std::invalid_argument — on the calling thread.
void diff_dirty_rows(const shard::TileStore& store, shard::TileCache& cache,
                     std::span<const HostId> dirty_hosts,
                     EpochScreen& screen);

/// Recomputes sink tile (bi, bj), bi <= bj, from scratch through the
/// band-pair walk and commits it — the one-tile form of
/// all_severities_to_sink, bit-identical to the tile a full build would
/// write (same kernels, same ascending-witness-band order). This is the
/// self-healing primitive of the out-of-core engine: when a sink tile
/// fails its checksum, its band pair is rebuilt from the (trusted) input
/// store instead of abandoning the run. Runs on the calling thread.
void rebuild_sink_tile(const shard::TileStore& store, shard::TileCache& cache,
                       sink::SeverityTileStore& sink, std::uint32_t bi,
                       std::uint32_t bj);

}  // namespace tiv::core
