#include "core/severity.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/edge_sampling.hpp"
#include "core/triangle_schedule.hpp"
#include "core/witness_kernels.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace tiv::core {
namespace {

// Every scan here runs the branch-free witness loops of
// core/witness_kernels.hpp over padded rows in the DelayMatrixView encoding
// (missing entries kMaskedDelay, diagonal 0), which makes every exclusion
// implicit: a missing leg sums past d_ac, and b == a or b == c gives
// detour == d_ac, never strictly less. The out-of-core band-pair walk
// (shard_severity.cpp) feeds the same lanes in tile-sized chunks, so its
// sums are bit-identical.

static_assert(DelayMatrixView::kLaneFloats % kWitnessLanes == 0);

// Dynamic-scheduling grain for the batched per-edge engine: per-edge cost
// is one O(stride) row scan, so a handful of edges per claimed chunk keeps
// dispatch overhead negligible without starving the balancer.
constexpr std::size_t kEdgeBatchGrain = 8;

/// One edge's two rows in the view encoding, with their measured-entry
/// bitmasks: from a DelayMatrixView, or packed per edge by pack_edge.
struct EdgeRows {
  const float* a;
  const float* c;
  const std::uint64_t* mask_a;
  const std::uint64_t* mask_c;
  std::size_t stride;
  std::size_t mask_words;
  float d_ac;
};

/// Rows a and c of one edge packed into the thread's 64-byte-aligned
/// scratch: O(N) per edge, for calls with no view and too few edges to
/// amortize building one. pack_row rewrites the padding and pack_mask
/// zeroes the mask words on every pack, so nothing of an earlier, larger
/// edge leaks in.
EdgeRows pack_edge(const DelayMatrix& m, HostId a, HostId c) {
  thread_local std::vector<float> floats;  // over-allocated for alignment
  thread_local std::vector<std::uint64_t> masks;
  const std::size_t stride = DelayMatrixView::stride_for(m.size());
  const std::size_t words = DelayMatrixView::mask_words_for(m.size());
  floats.resize(
      std::max(floats.size(), 2 * stride + DelayMatrixView::kLaneFloats));
  masks.resize(std::max(masks.size(), 2 * words));
  void* base = floats.data();
  std::size_t space = floats.size() * sizeof(float);
  auto* ra = static_cast<float*>(
      std::align(64, 2 * stride * sizeof(float), base, space));
  float* rc = ra + stride;
  std::uint64_t* ma = masks.data();
  std::uint64_t* mc = ma + words;
  DelayMatrixView::pack_row(m, a, ra);
  DelayMatrixView::pack_mask(m, a, ma);
  DelayMatrixView::pack_row(m, c, rc);
  DelayMatrixView::pack_mask(m, c, mc);
  return {ra, rc, ma, mc, stride, words, ra[c]};
}

/// The loop behind every per-edge call: out[e] = body(rows of edges[e])
/// for each measured edge with a != c, and T{} for the rest, dynamically
/// scheduled. A caller's view is already paid for; otherwise the O(N^2)
/// local build only happens when enough scans amortize it (edges * 4 >= N,
/// the guard sampled_severities has always used), and smaller batches run
/// pack_edge. All three sources hold the same bytes, so no result depends
/// on which one ran.
template <typename T, typename Body>
std::vector<T> map_edges(const DelayMatrix& matrix,
                             std::span<const std::pair<HostId, HostId>> edges,
                             const DelayMatrixView* view, Body body) {
  std::vector<T> out(edges.size());
  std::optional<DelayMatrixView> local;
  if (view == nullptr && edges.size() * 4 >= matrix.size()) {
    view = &local.emplace(matrix);
  }
  parallel_for_dynamic(
      edges.size(), kEdgeBatchGrain, [&](std::size_t begin, std::size_t end) {
        for (std::size_t e = begin; e < end; ++e) {
          const auto [a, c] = edges[e];
          if (view != nullptr) {
            const float d_ac = view->row(a)[c];
            if (a == c || d_ac >= DelayMatrixView::kMaskedDelay) continue;
            out[e] = body(EdgeRows{view->row(a), view->row(c),
                                   view->mask_row(a), view->mask_row(c),
                                   view->stride(), view->mask_words(), d_ac});
          } else if (matrix.has(a, c)) {
            out[e] = body(pack_edge(matrix, a, c));
          }
        }
      });
  return out;
}

// Tile edge for the blocked (a, c) pair loop. 16 rows of each endpoint keep
// the working set (2 * 16 padded rows) inside L2 even at n = 8192 while
// giving each dynamic chunk ~256 * n witnesses of work.
constexpr std::size_t kTileRows = 16;

/// Runs fn(a_begin, a_end, c_begin, c_end) over all tiles covering the
/// strict upper triangle (a < c allowed inside the tile; fn must still clamp
/// c > a), dynamically scheduled so the triangular workload balances.
template <typename TileFn>
void for_each_upper_tile(HostId n, TileFn&& fn) {
  const std::size_t tiles =
      (static_cast<std::size_t>(n) + kTileRows - 1) / kTileRows;
  for_each_triangle_pair(tiles, [&](std::size_t ta, std::size_t tc) {
    fn(static_cast<HostId>(ta * kTileRows),
       static_cast<HostId>(std::min<std::size_t>((ta + 1) * kTileRows, n)),
       static_cast<HostId>(tc * kTileRows),
       static_cast<HostId>(std::min<std::size_t>((tc + 1) * kTileRows, n)));
  });
}

}  // namespace

std::vector<double> SeverityMatrix::values_for_measured_edges(
    const DelayMatrix& matrix) const {
  std::vector<double> out;
  for (HostId i = 0; i < n_; ++i) {
    for (HostId j = i + 1; j < n_; ++j) {
      if (matrix.has(i, j)) out.push_back(at(i, j));
    }
  }
  return out;
}

EdgeTivStats TivAnalyzer::edge_stats(HostId a, HostId c) const {
  const std::pair<HostId, HostId> edge{a, c};
  return edge_stats_batch({&edge, 1})[0];
}

double TivAnalyzer::edge_severity(HostId a, HostId c) const {
  const std::pair<HostId, HostId> edge{a, c};
  return edge_severity_batch({&edge, 1})[0];
}

std::vector<EdgeTivStats> TivAnalyzer::edge_stats_batch(
    std::span<const std::pair<HostId, HostId>> edges,
    const DelayMatrixView* view) const {
  const auto nd = static_cast<double>(matrix_.size());
  return map_edges<EdgeTivStats>(
      matrix_, edges, view, [nd](const EdgeRows& r) {
        // Two vectorized passes over the same L2-resident rows: the ratio
        // sum (bit-identical lanes to the all_severities kernel) and the
        // count/min-detour scan, from which the max ratio follows by one
        // division (see witness_violation_minmax).
        double acc[kWitnessLanes] = {};
        witness_ratio_accumulate(r.a, r.c, r.stride, r.d_ac, acc);
        const WitnessViolationStats vs =
            witness_violation_minmax(r.a, r.c, r.stride, r.d_ac);
        const double ratio_sum = witness_ratio_reduce(acc);
        EdgeTivStats stats;
        stats.violation_count = vs.count;
        stats.witness_count = DelayMatrixView::measured_in_both(
            r.mask_a, r.mask_c, r.mask_words);
        stats.max_ratio = vs.count == 0
                              ? 0.0
                              : static_cast<double>(r.d_ac) /
                                    static_cast<double>(vs.min_detour);
        // Normalization is by |S| (all nodes), per the paper's definition —
        // not by the witness count — so edges in sparse neighborhoods are
        // not inflated.
        stats.severity = ratio_sum / nd;
        stats.mean_ratio =
            vs.count == 0 ? 0.0 : ratio_sum / static_cast<double>(vs.count);
        return stats;
      });
}

std::vector<std::size_t> TivAnalyzer::edge_violation_count_batch(
    std::span<const std::pair<HostId, HostId>> edges,
    const DelayMatrixView* view) const {
  return map_edges<std::size_t>(
      matrix_, edges, view, [](const EdgeRows& r) {
        return witness_violation_minmax(r.a, r.c, r.stride, r.d_ac).count;
      });
}

std::vector<double> TivAnalyzer::edge_severity_batch(
    std::span<const std::pair<HostId, HostId>> edges,
    const DelayMatrixView* view) const {
  const auto nd = static_cast<double>(matrix_.size());
  return map_edges<double>(matrix_, edges, view, [nd](const EdgeRows& r) {
    // The portable body on purpose. Unlike an all_severities tile, whose
    // rows stay in L1/L2, each edge here streams a whole witness row from
    // L3 or DRAM. The masked body scans fast enough to make that
    // memory-bound, so its time follows the memory traffic of other
    // processes; the portable body stays divide-bound and steady
    // (docs/PERFORMANCE.md, "Streamed rows keep the portable body"). The
    // lanes are bit-identical.
    double acc[kWitnessLanes] = {};
    witness_ratio_accumulate_portable(r.a, r.c, r.stride, r.d_ac, acc);
    return witness_ratio_reduce(acc) / nd;
  });
}

SeverityMatrix TivAnalyzer::all_severities(
    const DelayMatrixView* prebuilt) const {
  const HostId n = matrix_.size();
  SeverityMatrix sev(n);
  if (n < 2) return sev;
  std::optional<DelayMatrixView> local;
  if (prebuilt == nullptr) local.emplace(matrix_);
  const DelayMatrixView& view = prebuilt ? *prebuilt : *local;
  const std::size_t stride = view.stride();
  const auto nd = static_cast<double>(n);
  for_each_upper_tile(n, [&](HostId a_begin, HostId a_end, HostId c_begin,
                             HostId c_end) {
    for (HostId a = a_begin; a < a_end; ++a) {
      const float* row_a = view.row(a);
      const HostId c_lo = std::max<HostId>(c_begin, a + 1);
      for (HostId c = c_lo; c < c_end; ++c) {
        const float d_ac = row_a[c];
        if (d_ac >= DelayMatrixView::kMaskedDelay) continue;  // unmeasured
        double acc[kWitnessLanes] = {};
        witness_ratio_accumulate(row_a, view.row(c), stride, d_ac, acc);
        sev.set(a, c, static_cast<float>(witness_ratio_reduce(acc) / nd));
      }
    }
  });
  return sev;
}

std::vector<std::pair<std::pair<HostId, HostId>, double>>
TivAnalyzer::sampled_severities(std::size_t count, std::uint64_t seed) const {
  // The shared sampler keeps this function's draw sequence, so seeded
  // figure outputs repeat.
  const PairSample sample = sample_measured_pairs(matrix_, count, seed);
  const std::vector<double> sevs = edge_severity_batch(sample.pairs);
  std::vector<std::pair<std::pair<HostId, HostId>, double>> out(
      sample.pairs.size());
  for (std::size_t e = 0; e < sample.pairs.size(); ++e) {
    out[e] = {sample.pairs[e], sevs[e]};
  }
  return out;
}

double TivAnalyzer::violating_triangle_fraction(std::size_t sample_triangles,
                                                std::uint64_t seed) const {
  const HostId n = matrix_.size();
  if (sample_triangles == 0) {
    // Exact mode, through the same blocked machinery as all_severities.
    //
    // Scan unordered measured pairs (a, c) and count witnesses b with both
    // legs measured. Each measurable triangle {x, y, z} is counted once per
    // role (3 times total), but contributes a *violation* in exactly one
    // role: if d_xy + d_yz < d_xz then d_xz is the strict maximum, so the
    // other two inequalities hold. Hence
    //   violating fraction = violations / (witness_total / 3).
    if (n < 3) return 0.0;
    const DelayMatrixView view(matrix_);
    const std::size_t stride = view.stride();
    std::atomic<std::size_t> violations{0};
    std::atomic<std::size_t> witness_total{0};
    for_each_upper_tile(n, [&](HostId a_begin, HostId a_end, HostId c_begin,
                               HostId c_end) {
      std::size_t local_v = 0;
      std::size_t local_t = 0;
      for (HostId a = a_begin; a < a_end; ++a) {
        const float* row_a = view.row(a);
        const HostId c_lo = std::max<HostId>(c_begin, a + 1);
        for (HostId c = c_lo; c < c_end; ++c) {
          const float d_ac = row_a[c];
          if (d_ac >= DelayMatrixView::kMaskedDelay) continue;
          local_t += view.witness_count(a, c);
          local_v +=
              witness_violation_count(row_a, view.row(c), stride, d_ac);
        }
      }
      violations.fetch_add(local_v, std::memory_order_relaxed);
      witness_total.fetch_add(local_t, std::memory_order_relaxed);
    });
    const auto t = static_cast<double>(witness_total.load());
    return t == 0.0 ? 0.0 : 3.0 * static_cast<double>(violations.load()) / t;
  }
  return violating_triangle_fraction_sampled(sample_triangles, seed).fraction;
}

TivAnalyzer::TriangleFractionSample
TivAnalyzer::violating_triangle_fraction_sampled(std::size_t sample_triangles,
                                                 std::uint64_t seed) const {
  const HostId n = matrix_.size();
  TriangleFractionSample out;
  out.requested = sample_triangles;
  if (n < 3) {
    out.exhausted = sample_triangles > 0;
    return out;
  }
  auto violates = [&](HostId a, HostId b, HostId c) {
    const float ab = matrix_.at(a, b);
    const float bc = matrix_.at(b, c);
    const float ac = matrix_.at(a, c);
    if (ab < 0.0f || bc < 0.0f || ac < 0.0f) return -1;  // unmeasurable
    return (ab + bc < ac || ab + ac < bc || bc + ac < ab) ? 1 : 0;
  };
  Rng rng(seed);
  std::size_t v = 0;
  std::size_t t = 0;
  std::size_t attempts = 0;
  while (t < sample_triangles && attempts < sample_triangles * 30) {
    ++attempts;
    const auto a = static_cast<HostId>(rng.uniform_index(n));
    const auto b = static_cast<HostId>(rng.uniform_index(n));
    const auto c = static_cast<HostId>(rng.uniform_index(n));
    if (a == b || b == c || a == c) continue;
    const int r = violates(a, b, c);
    if (r < 0) continue;
    ++t;
    v += r;
  }
  out.achieved = t;
  out.exhausted = t < sample_triangles;
  out.fraction = t == 0 ? 0.0 : static_cast<double>(v) / static_cast<double>(t);
  return out;
}

void check_dirty_hosts(std::span<const HostId> dirty_hosts, HostId n,
                       const char* who) {
  for (std::size_t i = 0; i < dirty_hosts.size(); ++i) {
    const HostId h = dirty_hosts[i];
    if (h >= n) {
      throw std::invalid_argument(std::string(who) + ": dirty host " +
                                  std::to_string(h) + " out of range (n = " +
                                  std::to_string(n) + ")");
    }
    if (i > 0 && h <= dirty_hosts[i - 1]) {
      throw std::invalid_argument(
          std::string(who) +
          ": dirty hosts must be strictly ascending (sorted, no duplicates)");
    }
  }
}

}  // namespace tiv::core
