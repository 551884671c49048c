// Out-of-core TIV severity: streams (a-band, c-band, witness-band) tile
// triples from a shard::TileStore through the branch-free witness kernels,
// honoring a user-set memory budget via a shard::TileCache, and writes the
// result into a sink::SeverityTileStore band pair by band pair — neither
// the delay matrix nor the N^2 severity result is ever materialized, so
// the working set is O(budget + tile^2) in total. all_severities_to_sink
// is the full build; repair_severities_to_sink is its incremental
// counterpart: after an epoch dirtied a host set, only the edges incident
// to those hosts are recomputed and only the affected sink tiles are
// rewritten (the out-of-core half of the src/stream/ dirty-epoch engine);
// rebuild_sink_tile is the one-tile form the engine's self-healing uses.
// All three run the same band-pair walk.
//
// Results are bit-identical to the in-memory TivAnalyzer path: tiles are
// the packed view cut at lane-aligned column boundaries, the streamed scan
// feeds the same accumulator lanes in ascending column order, and the final
// reduction tree is shared (core/witness_kernels.hpp). See
// docs/PERFORMANCE.md ("Sharded storage & out-of-core severity").
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

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
  std::size_t tiles_committed = 0;   ///< sink tiles rewritten in place
  std::size_t edges_recomputed = 0;  ///< dirty pairs re-evaluated (incl.
                                     ///< pairs reset to 0 on a loss)
};

/// Incremental form of all_severities_to_sink: recomputes exactly the
/// edges incident to `dirty_hosts` (ascending, distinct — what
/// DelayStream::commit_epoch returns) through the band-pair streaming
/// driver and rewrites only the sink tiles containing such edges. `store`
/// must already hold the post-epoch matrix (TileStore::repack_tile on the
/// dirty bands, with the cache invalidated — src/stream/shard_stream owns
/// that sequencing). Severities the in-memory
/// IncrementalSeverity::apply_epoch would leave untouched are untouched
/// here too, so the sink stays bit-identical to a from-scratch
/// all_severities of the mutated matrix after every epoch.
SinkRepairStats repair_severities_to_sink(
    const shard::TileStore& store, shard::TileCache& cache,
    sink::SeverityTileStore& sink, std::span<const HostId> dirty_hosts);

/// Recomputes sink tile (bi, bj), bi <= bj, from scratch through the
/// band-pair streaming driver and commits it — the one-tile form of
/// all_severities_to_sink, bit-identical to the tile a full build would
/// write (same kernels, same ascending-witness-band order). This is the
/// self-healing primitive of the out-of-core engine: when a sink tile
/// fails its checksum, its band pair is rebuilt from the (trusted) input
/// store instead of abandoning the run. Runs on the calling thread.
void rebuild_sink_tile(const shard::TileStore& store, shard::TileCache& cache,
                       sink::SeverityTileStore& sink, std::uint32_t bi,
                       std::uint32_t bj);

}  // namespace tiv::core
