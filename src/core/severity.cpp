#include "core/severity.hpp"

#include <algorithm>
#include <atomic>
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

// ---------------------------------------------------------------------------
// Blocked, branch-free witness scans over the padded rows of a
// DelayMatrixView, in which missing entries are kMaskedDelay (huge) and the
// diagonal is 0. That representation makes every exclusion implicit:
//   - missing leg:  detour >= kMaskedDelay, never < d_ac
//   - b == a:       detour == 0 + d_ac    , never < d_ac (strictly)
//   - b == c:       detour == d_ac + 0    , never < d_ac
// so the loop body is pure arithmetic + compares: it auto-vectorizes, and
// the ratio scan has an explicit AVX-512VL body that divides only blocks
// holding a violator (edge_severity_batch, which streams its witness rows,
// keeps the portable body). The loop bodies live in core/witness_kernels.hpp,
// shared with the out-of-core streaming driver (shard_severity.cpp), which
// feeds the same accumulator lanes in tile-sized chunks for bit-identical
// sums.
// ---------------------------------------------------------------------------

static_assert(DelayMatrixView::kLaneFloats % kWitnessLanes == 0);

/// Sum over witnesses b of d_ac / (d_ab + d_bc) for violating b
/// (detour < d_ac, detour > 0) — the unnormalized severity of edge (a, c).
double pair_ratio_sum(const float* ra, const float* rc, std::size_t stride,
                      float dac) {
  double acc[kWitnessLanes] = {};
  witness_ratio_accumulate(ra, rc, stride, dac, acc);
  return witness_ratio_reduce(acc);
}

// Dynamic-scheduling grain for the batched per-edge engine: per-edge cost
// is one O(stride) row scan, so a handful of edges per claimed chunk keeps
// dispatch overhead negligible without starving the balancer.
constexpr std::size_t kEdgeBatchGrain = 8;

/// View selection for a batched per-edge call: a caller-provided view is
/// already paid for; otherwise the O(N^2) local build only happens when
/// enough scans amortize it (edges * 4 >= N, the guard sampled_severities
/// has always used). get() == nullptr means "run the scalar path".
class BatchView {
 public:
  BatchView(const DelayMatrix& matrix, const DelayMatrixView* prebuilt,
            std::size_t batch_size) {
    if (prebuilt != nullptr) {
      view_ = prebuilt;
    } else if (batch_size * 4 >= matrix.size()) {
      local_.emplace(matrix);
      view_ = &*local_;
    }
  }

  const DelayMatrixView* get() const { return view_; }

 private:
  std::optional<DelayMatrixView> local_;
  const DelayMatrixView* view_ = nullptr;
};

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
  EdgeTivStats stats;
  if (!matrix_.has(a, c)) return stats;
  const float d_ac = matrix_.at(a, c);
  const auto row_a = matrix_.row(a);
  const auto row_c = matrix_.row(c);
  const HostId n = matrix_.size();
  double ratio_sum = 0.0;
  for (HostId b = 0; b < n; ++b) {
    if (b == a || b == c) continue;
    const float d_ab = row_a[b];
    const float d_bc = row_c[b];
    if (d_ab < 0.0f || d_bc < 0.0f) continue;  // missing leg
    ++stats.witness_count;
    const float detour = d_ab + d_bc;
    if (detour < d_ac && detour > 0.0f) {
      const double ratio = static_cast<double>(d_ac) / detour;
      ++stats.violation_count;
      ratio_sum += ratio;
      stats.max_ratio = std::max(stats.max_ratio, ratio);
    }
  }
  // Normalization is by |S| (all nodes), per the paper's definition — not by
  // the witness count — so edges in sparse neighborhoods are not inflated.
  stats.severity = ratio_sum / static_cast<double>(n);
  stats.mean_ratio = stats.violation_count == 0
                         ? 0.0
                         : ratio_sum / static_cast<double>(
                                           stats.violation_count);
  return stats;
}

double TivAnalyzer::edge_severity(HostId a, HostId c) const {
  return edge_stats(a, c).severity;
}

std::vector<EdgeTivStats> TivAnalyzer::edge_stats_batch(
    std::span<const std::pair<HostId, HostId>> edges,
    const DelayMatrixView* view) const {
  std::vector<EdgeTivStats> out(edges.size());
  const BatchView bv(matrix_, view, edges.size());
  if (bv.get() == nullptr) {
    parallel_for(edges.size(), [&](std::size_t e) {
      out[e] = edge_stats(edges[e].first, edges[e].second);
    });
    return out;
  }
  const DelayMatrixView& v = *bv.get();
  const std::size_t stride = v.stride();
  const auto nd = static_cast<double>(matrix_.size());
  parallel_for_dynamic(
      edges.size(), kEdgeBatchGrain, [&](std::size_t begin, std::size_t end) {
        for (std::size_t e = begin; e < end; ++e) {
          const auto [a, c] = edges[e];
          EdgeTivStats stats;
          const float d_ac = v.row(a)[c];
          if (a == c || d_ac >= DelayMatrixView::kMaskedDelay) {
            out[e] = stats;  // unmeasured edge: all-zero, as in edge_stats
            continue;
          }
          // Two vectorized passes over the same L2-resident rows: the ratio
          // sum (bit-identical lanes to the all_severities kernel) and the
          // count/min-detour scan, from which the max ratio follows by one
          // division (see witness_violation_minmax).
          double acc[kWitnessLanes] = {};
          witness_ratio_accumulate(v.row(a), v.row(c), stride, d_ac, acc);
          const WitnessViolationStats vs =
              witness_violation_minmax(v.row(a), v.row(c), stride, d_ac);
          const double ratio_sum = witness_ratio_reduce(acc);
          stats.violation_count = vs.count;
          stats.witness_count = v.witness_count(a, c);
          stats.max_ratio =
              vs.count == 0 ? 0.0
                            : static_cast<double>(d_ac) /
                                  static_cast<double>(vs.min_detour);
          stats.severity = ratio_sum / nd;
          stats.mean_ratio =
              stats.violation_count == 0
                  ? 0.0
                  : ratio_sum / static_cast<double>(stats.violation_count);
          out[e] = stats;
        }
      });
  return out;
}

std::vector<std::size_t> TivAnalyzer::edge_violation_count_batch(
    std::span<const std::pair<HostId, HostId>> edges,
    const DelayMatrixView* view) const {
  std::vector<std::size_t> out(edges.size());
  const BatchView bv(matrix_, view, edges.size());
  if (bv.get() == nullptr) {
    parallel_for(edges.size(), [&](std::size_t e) {
      out[e] = edge_stats(edges[e].first, edges[e].second).violation_count;
    });
    return out;
  }
  const DelayMatrixView& v = *bv.get();
  const std::size_t stride = v.stride();
  parallel_for_dynamic(
      edges.size(), kEdgeBatchGrain, [&](std::size_t begin, std::size_t end) {
        for (std::size_t e = begin; e < end; ++e) {
          const auto [a, c] = edges[e];
          const float d_ac = v.row(a)[c];
          if (a == c || d_ac >= DelayMatrixView::kMaskedDelay) {
            out[e] = 0;
            continue;
          }
          out[e] =
              witness_violation_minmax(v.row(a), v.row(c), stride, d_ac).count;
        }
      });
  return out;
}

std::vector<double> TivAnalyzer::edge_severity_batch(
    std::span<const std::pair<HostId, HostId>> edges,
    const DelayMatrixView* view) const {
  std::vector<double> out(edges.size());
  const BatchView bv(matrix_, view, edges.size());
  if (bv.get() == nullptr) {
    parallel_for(edges.size(), [&](std::size_t e) {
      out[e] = edge_severity(edges[e].first, edges[e].second);
    });
    return out;
  }
  const DelayMatrixView& v = *bv.get();
  const std::size_t stride = v.stride();
  const auto nd = static_cast<double>(matrix_.size());
  parallel_for_dynamic(
      edges.size(), kEdgeBatchGrain, [&](std::size_t begin, std::size_t end) {
        for (std::size_t e = begin; e < end; ++e) {
          const auto [a, c] = edges[e];
          const float d_ac = v.row(a)[c];
          if (a == c || d_ac >= DelayMatrixView::kMaskedDelay) {
            out[e] = 0.0;
            continue;
          }
          // The portable body on purpose. Unlike an all_severities tile,
          // whose rows stay in L1/L2, each edge here streams a whole witness
          // row from L3 or DRAM. The masked body scans fast enough to make
          // that memory-bound, so its time follows the memory traffic of
          // other processes; the portable body stays divide-bound and
          // steady (docs/PERFORMANCE.md §3). The lanes are bit-identical.
          double acc[kWitnessLanes] = {};
          witness_ratio_accumulate_portable(v.row(a), v.row(c), stride, d_ac,
                                            acc);
          out[e] = witness_ratio_reduce(acc) / nd;
        }
      });
  return out;
}

std::vector<double> TivAnalyzer::violation_ratios(HostId a, HostId c) const {
  std::vector<double> out;
  if (!matrix_.has(a, c)) return out;
  const float d_ac = matrix_.at(a, c);
  const auto row_a = matrix_.row(a);
  const auto row_c = matrix_.row(c);
  for (HostId b = 0; b < matrix_.size(); ++b) {
    if (b == a || b == c) continue;
    const float d_ab = row_a[b];
    const float d_bc = row_c[b];
    if (d_ab < 0.0f || d_bc < 0.0f) continue;
    const float detour = d_ab + d_bc;
    if (detour < d_ac && detour > 0.0f) {
      out.push_back(static_cast<double>(d_ac) / detour);
    }
  }
  return out;
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
        const double ratio_sum =
            pair_ratio_sum(row_a, view.row(c), stride, d_ac);
        sev.set(a, c, static_cast<float>(ratio_sum / nd));
      }
    }
  });
  return sev;
}

SeverityMatrix TivAnalyzer::all_severities_reference() const {
  const HostId n = matrix_.size();
  SeverityMatrix sev(n);
  const auto nd = static_cast<double>(n);
  // Parallel over the first endpoint; each task owns rows i and writes only
  // the (i, j>i) strip, then we mirror. The inner witness scan reads two
  // matrix rows sequentially — contiguous and branch-light.
  parallel_for(n, [&](std::size_t ai) {
    const auto a = static_cast<HostId>(ai);
    const auto row_a = matrix_.row(a);
    for (HostId c = a + 1; c < n; ++c) {
      const float d_ac = row_a[c];
      if (d_ac < 0.0f) continue;  // missing edge -> severity 0
      const auto row_c = matrix_.row(c);
      double ratio_sum = 0.0;
      for (HostId b = 0; b < n; ++b) {
        const float d_ab = row_a[b];
        const float d_bc = row_c[b];
        // b == a or b == c gives detour == d_ac, never < d_ac; missing legs
        // are negative and excluded by the detour > 0 check only when both
        // are missing, so test them explicitly.
        if (d_ab < 0.0f || d_bc < 0.0f) continue;
        const float detour = d_ab + d_bc;
        if (detour < d_ac && detour > 0.0f) {
          ratio_sum += static_cast<double>(d_ac) / detour;
        }
      }
      sev.set(a, c, static_cast<float>(ratio_sum / nd));
    }
  });
  return sev;
}

std::vector<std::pair<std::pair<HostId, HostId>, double>>
TivAnalyzer::sampled_severities(std::size_t count, std::uint64_t seed) const {
  // The shared sampler reproduces this function's historical draw sequence
  // exactly (it was the one dedup-correct sampler the others now share).
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
