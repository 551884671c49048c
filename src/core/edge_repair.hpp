// The flagged-edge repair loop: where both stores of the live engine
// (stream/severity_engine) recompute the severities of the edges an epoch
// flagged (an EpochEdges set, core/epoch_screen). It walks the columns c, gets packed row c once, and
// runs it against every flagged dirty row h through
// witness_ratio_accumulate_portable over the full padded stride. Rows come
// from a DelayMatrixView (the in-memory store, stream::IncrementalSeverity)
// or are packed from the live DelayMatrix with the view's float encoding
// (the tile store, stream::ShardStreamEngine, whose repair then reads no
// input tile). Each
// edge feeds the lanes of the all_severities kernel in the same order, so
// every value is bit-identical to a rebuild's. The loop is compiled once,
// in this library, under its value-safe floating-point flags: without them
// the portable body becomes a scalar divide per witness.
#pragma once

#include <cstddef>
#include <span>

#include "core/epoch_screen.hpp"

namespace tiv::core {

using delayspace::DelayMatrixView;

/// Recomputes the flagged edges of rows [first, first + group.size()) of
/// `edges`, whose dirty hosts `group` holds (ascending), into the caller's
/// result rows: edge (group[i], c) to result[i * n + c], 0 when unmeasured
/// (result holds group.size() * n floats; other cells are left alone).
/// Rows are `view`'s when given (a view of `matrix`), else packed from
/// `matrix`. Returns the number of edges recomputed.
std::size_t repair_flagged_edges(const DelayMatrix& matrix,
                                 const DelayMatrixView* view,
                                 std::span<const HostId> group,
                                 std::size_t first, const EpochEdges& edges,
                                 std::span<float> result);

}  // namespace tiv::core
