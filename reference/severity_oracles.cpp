#include <algorithm>
#include <limits>

#include "reference/oracles.hpp"
#include "util/parallel.hpp"

namespace tiv::reference {

core::EdgeTivStats edge_stats_scalar(const DelayMatrix& m, HostId a,
                                     HostId c) {
  core::EdgeTivStats stats;
  if (!m.has(a, c)) return stats;
  const float d_ac = m.at(a, c);
  const auto row_a = m.row(a);
  const auto row_c = m.row(c);
  const HostId n = m.size();
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
  stats.severity = ratio_sum / static_cast<double>(n);
  stats.mean_ratio = stats.violation_count == 0
                         ? 0.0
                         : ratio_sum / static_cast<double>(
                                           stats.violation_count);
  return stats;
}

std::vector<std::pair<HostId, HostId>> reachable_edges_scalar(
    const DelayMatrix& before, const DelayMatrix& after) {
  const HostId n = after.size();
  const auto changed = [&](HostId x, HostId y) {
    return before.at(x, y) != after.at(x, y);
  };
  const auto violates = [](const DelayMatrix& m, HostId a, HostId b,
                           HostId c) {
    if (!m.has(a, c) || !m.has(a, b) || !m.has(b, c)) return false;
    const float detour = m.at(a, b) + m.at(b, c);
    return detour < m.at(a, c) && detour > 0.0f;
  };
  std::vector<std::pair<HostId, HostId>> edges;
  for (HostId a = 0; a < n; ++a) {
    for (HostId c = a + 1; c < n; ++c) {
      bool reach = changed(a, c);
      for (HostId b = 0; b < n && !reach; ++b) {
        if (b == a || b == c || !(changed(a, b) || changed(b, c))) continue;
        reach = violates(before, a, b, c) || violates(after, a, b, c);
      }
      if (reach) edges.emplace_back(a, c);
    }
  }
  return edges;
}

core::SeverityMatrix all_severities_reference(const DelayMatrix& m) {
  const HostId n = m.size();
  core::SeverityMatrix sev(n);
  const auto nd = static_cast<double>(n);
  // Parallel over the first endpoint; each task owns rows i and writes only
  // the (i, j>i) strip, then we mirror. The inner witness scan reads two
  // matrix rows sequentially — contiguous and branch-light.
  parallel_for(n, [&](std::size_t ai) {
    const auto a = static_cast<HostId>(ai);
    const auto row_a = m.row(a);
    for (HostId c = a + 1; c < n; ++c) {
      const float d_ac = row_a[c];
      if (d_ac < 0.0f) continue;  // missing edge -> severity 0
      const auto row_c = m.row(c);
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

double oracle_one_hop_scalar(const DelayMatrix& m, HostId a, HostId b) {
  double best = m.has(a, b) ? m.at(a, b)
                            : std::numeric_limits<double>::infinity();
  const auto row_a = m.row(a);
  const auto row_b = m.row(b);
  for (HostId c = 0; c < m.size(); ++c) {
    if (c == a || c == b) continue;
    const float ac = row_a[c];
    const float cb = row_b[c];
    if (ac < 0.0f || cb < 0.0f) continue;
    best = std::min(best, static_cast<double>(ac) + cb);
  }
  return best;
}

}  // namespace tiv::reference
