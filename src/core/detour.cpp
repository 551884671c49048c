#include "core/detour.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/edge_sampling.hpp"
#include "core/witness_kernels.hpp"
#include "util/parallel.hpp"

namespace tiv::core {

using delayspace::DelayMatrixView;
using delayspace::HostId;

DetourRouter::DetourRouter(const embedding::VivaldiSystem& system,
                           const DetourParams& params,
                           const DelayMatrixView* view)
    : system_(system), params_(params) {
  if (view == nullptr) {
    owned_view_.emplace(system.matrix());
    view_ = &*owned_view_;
  } else {
    view_ = view;
  }
}

double DetourRouter::oracle_one_hop(HostId a, HostId b) const {
  const auto& m = system_.matrix();
  const double direct = m.has(a, b)
                            ? m.at(a, b)
                            : std::numeric_limits<double>::infinity();
  // Lane-min over the masked rows: missing legs and padding sum past
  // kMaskedDelay, and the self-columns c == a / c == b contribute exactly
  // `direct` (diagonal 0 + the direct leg), which the min against `direct`
  // absorbs — so no per-element exclusions remain. min is order-free, so
  // the result equals the scalar reference bit for bit.
  const double relay =
      relay_min_scan(view_->row(a), view_->row(b), view_->stride());
  if (relay >= static_cast<double>(DelayMatrixView::kMaskedDelay)) {
    return direct;  // no relay with both legs measured
  }
  return std::min(direct, relay);
}

DetourDecision DetourRouter::route(HostId a, HostId b, Rng& rng) const {
  DetourDecision d;
  d.measured = system_.matrix().has(a, b);
  if (!d.measured) {
    // Early-return: no alert evaluation, no probes. The infinities mark the
    // absence of a measurement; `measured` lets callers skip the edge
    // instead of folding +inf into their delay summaries.
    d.direct_ms = std::numeric_limits<double>::infinity();
    d.achieved_ms = d.direct_ms;
    return d;
  }
  const float* row_a = view_->row(a);
  const float* row_b = view_->row(b);
  d.direct_ms = row_a[b];
  d.achieved_ms = d.direct_ms;

  const double ratio = system_.prediction_ratio(a, b);
  d.alerted = !std::isnan(ratio) && ratio < params_.alert_threshold;
  if (!d.alerted) return d;

  // Rank all peers by predicted relay-path delay and probe the best few.
  // (A deployment would rank only its known peers; the embedding makes the
  // ranking free either way.) Masked rows turn the two sign-tested has()
  // calls per candidate into one sum-compare: any missing leg pushes
  // row_a[c] + row_b[c] past kMaskedDelay.
  const HostId n = system_.matrix().size();
  std::vector<std::pair<double, HostId>> ranked;
  ranked.reserve(n);
  for (HostId c = 0; c < n; ++c) {
    if (static_cast<double>(row_a[c]) + row_b[c] >=
        static_cast<double>(DelayMatrixView::kMaskedDelay)) {
      continue;  // a leg is missing
    }
    if (c == a || c == b) continue;
    ranked.emplace_back(system_.predicted(a, c) + system_.predicted(c, b), c);
  }
  const std::size_t k =
      std::min<std::size_t>(params_.relay_candidates, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + static_cast<long>(k),
                    ranked.end());
  (void)rng;  // candidate order is deterministic given the embedding

  for (std::size_t i = 0; i < k; ++i) {
    const HostId c = ranked[i].second;
    d.probes += 2;  // A-C refresh + C-B on-demand probe
    const double via = static_cast<double>(row_a[c]) + row_b[c];
    if (via < d.achieved_ms) {
      d.achieved_ms = via;
      d.relay = c;
      d.detoured = true;
    }
  }
  return d;
}

DetourEvaluation evaluate_detour_routing(
    const embedding::VivaldiSystem& system, const DetourParams& params,
    std::size_t sample_edges, std::uint64_t seed,
    const DelayMatrixView* view) {
  const auto& m = system.matrix();
  const HostId n = m.size();
  // Distinct measured pairs (the shared duplicate-free sampler): a
  // duplicate edge would double-count its delays in every Summary below.
  PairSampleOptions opt;
  opt.require_positive = true;  // stretch ratios divide by the direct delay
  PairSample sample = sample_measured_pairs(m, sample_edges, seed, opt);
  const auto& edges = sample.pairs;

  const DetourRouter router(system, params, view);
  struct Row {
    double direct, achieved, oracle, random_relay;
    std::uint32_t probes;
    bool alerted, detoured;
  };
  std::vector<Row> rows(edges.size());
  parallel_for(edges.size(), [&](std::size_t e) {
    const auto [a, b] = edges[e];
    Rng edge_rng(seed ^ (0x9e3779b97f4a7c15ULL * (e + 1)));
    const DetourDecision d = router.route(a, b, edge_rng);
    Row r;
    r.direct = d.direct_ms;
    r.achieved = d.achieved_ms;
    r.oracle = router.oracle_one_hop(a, b);
    r.probes = d.probes;
    r.alerted = d.alerted;
    r.detoured = d.detoured;
    // Random-relay baseline: probe the same candidate count on EVERY edge,
    // relays chosen uniformly.
    double best = d.direct_ms;
    for (std::uint32_t i = 0; i < params.relay_candidates; ++i) {
      const auto c = static_cast<HostId>(edge_rng.uniform_index(n));
      if (c == a || c == b || !m.has(a, c) || !m.has(c, b)) continue;
      best = std::min(best, static_cast<double>(m.at(a, c)) + m.at(c, b));
    }
    r.random_relay = best;
    rows[e] = r;
  });

  DetourEvaluation out;
  out.edges_requested = sample.requested;
  std::vector<double> direct;
  std::vector<double> achieved;
  std::vector<double> oracle;
  std::vector<double> random_relay;
  double stretch_direct = 0.0;
  double stretch_achieved = 0.0;
  for (const Row& r : rows) {
    direct.push_back(r.direct);
    achieved.push_back(r.achieved);
    oracle.push_back(r.oracle);
    random_relay.push_back(r.random_relay);
    if (r.oracle > 0) {
      stretch_direct += r.direct / r.oracle;
      stretch_achieved += r.achieved / r.oracle;
    }
    out.probes_tiv_aware += r.probes;
    out.probes_random += params.relay_candidates * 2;
    out.alerted_edges += r.alerted;
    out.detoured_edges += r.detoured;
  }
  out.edges = rows.size();
  out.direct_ms = summarize(std::move(direct));
  out.achieved_ms = summarize(std::move(achieved));
  out.oracle_ms = summarize(std::move(oracle));
  out.random_relay_ms = summarize(std::move(random_relay));
  if (!rows.empty()) {
    out.mean_stretch_direct = stretch_direct / static_cast<double>(rows.size());
    out.mean_stretch_achieved =
        stretch_achieved / static_cast<double>(rows.size());
  }
  return out;
}

}  // namespace tiv::core
