#include "core/edge_repair.hpp"

#include <atomic>
#include <vector>

#include "core/witness_kernels.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace tiv::core {

std::size_t repair_flagged_edges(const DelayMatrix& matrix,
                                 const DelayMatrixView* view,
                                 std::span<const HostId> group,
                                 std::size_t first, const EpochEdges& edges,
                                 std::span<float> result) {
  obs::Span span("edge-repair");
  const HostId n = matrix.size();
  const std::size_t stride = DelayMatrixView::stride_for(n);
  const auto nd = static_cast<double>(n);
  // Row h in the view encoding: the view's own, or packed into buf.
  const auto row_of = [&](HostId h, float* buf) -> const float* {
    if (view) return view->row(h);
    DelayMatrixView::pack_row(matrix, h, buf);
    return buf;
  };

  // The group's own rows, each read or packed once (on this thread, into
  // a buffer reused across epochs).
  thread_local std::vector<float> pinned;
  pinned.resize(view ? 0 : group.size() * stride);
  std::vector<const float*> dirty(group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    dirty[i] = row_of(group[i], view ? nullptr : pinned.data() + i * stride);
  }

  // Columns per claimed chunk: enough to amortize a claim when few columns
  // hold a flagged edge, few enough to balance those that do.
  constexpr std::size_t kColumnGrain = 16;
  std::atomic<std::size_t> stored{0};
  parallel_for_dynamic(n, kColumnGrain, [&](std::size_t begin,
                                            std::size_t end) {
    thread_local std::vector<float> column;
    column.resize(view ? 0 : stride);
    std::size_t count = 0;
    for (auto c = static_cast<HostId>(begin); c < end; ++c) {
      const float* rc = nullptr;  // row c, fetched at its first use
      for (std::size_t i = 0; i < group.size(); ++i) {
        if (!edges.test(first + i, c)) continue;
        const float dac = dirty[i][c];
        float severity = 0.0f;  // unmeasured: the 0 a rebuild leaves
        if (dac < DelayMatrixView::kMaskedDelay) {
          if (rc == nullptr) rc = row_of(c, column.data());
          // The portable body on purpose, as in edge_severity_batch: a
          // streamed row c makes the masked body's time follow other
          // processes' memory traffic (docs/PERFORMANCE.md, "Streamed rows
          // keep the portable body"). The lanes are bit-identical.
          double acc[kWitnessLanes] = {};
          witness_ratio_accumulate_portable(dirty[i], rc, stride, dac, acc);
          severity = static_cast<float>(witness_ratio_reduce(acc) / nd);
        }
        result[i * n + c] = severity;
        ++count;
      }
    }
    stored.fetch_add(count, std::memory_order_relaxed);
  });
  return stored.load();
}

}  // namespace tiv::core
