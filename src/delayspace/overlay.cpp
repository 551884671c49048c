#include "delayspace/overlay.hpp"

#include <algorithm>
#include <limits>

#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace tiv::delayspace {
namespace {

/// Rows per dynamically claimed work item of one k-iteration.
constexpr std::size_t kRowBlock = 16;
/// Columns per inner tile: a 1 KiB slice of row_k stays hot in L1 while
/// every row of the block is relaxed against it.
constexpr std::size_t kColTile = 256;

}  // namespace

OverlayPaths::OverlayPaths(const DelayMatrix& matrix) : n_(matrix.size()) {
  const obs::Span span("overlay-fw");
  const std::size_t n = n_;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  dist_.assign(n * n, kInf);
  for (HostId i = 0; i < n_; ++i) {
    dist_[static_cast<std::size_t>(i) * n + i] = 0.0f;
    const auto row = matrix.row(i);
    for (HostId j = 0; j < n_; ++j) {
      if (matrix.has(i, j)) {
        dist_[static_cast<std::size_t>(i) * n + j] = row[j];
      }
    }
  }
  // Blocked Floyd-Warshall. The k loop is sequential (each step depends on
  // the previous); within one k the update is elementwise over (i, j) with
  // row k frozen — d[k][k] == 0 and entries are non-negative, so iteration
  // k never improves row k or column k. Blocking (i, j) into row blocks and
  // column tiles therefore changes only memory order, never a computed
  // value: dist_ stays bit-identical to the unblocked row sweep (the
  // differential test in test_delayspace.cpp pins this).
  const std::size_t row_blocks = (n + kRowBlock - 1) / kRowBlock;
  for (std::size_t k = 0; k < n; ++k) {
    const float* row_k = dist_.data() + k * n;
    parallel_for_dynamic(
        row_blocks, /*grain=*/1, [&](std::size_t bb, std::size_t be) {
          for (std::size_t b = bb; b < be; ++b) {
            const std::size_t i0 = b * kRowBlock;
            const std::size_t i1 = std::min(n, i0 + kRowBlock);
            for (std::size_t j0 = 0; j0 < n; j0 += kColTile) {
              const std::size_t j1 = std::min(n, j0 + kColTile);
              for (std::size_t i = i0; i < i1; ++i) {
                float* row_i = dist_.data() + i * n;
                const float dik = row_i[k];
                if (dik == kInf) continue;
                for (std::size_t j = j0; j < j1; ++j) {
                  const float via = dik + row_k[j];
                  if (via < row_i[j]) row_i[j] = via;
                }
              }
            }
          }
        });
  }
}

}  // namespace tiv::delayspace
