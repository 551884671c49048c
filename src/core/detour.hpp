// TIV-aware one-hop detour routing — the constructive flip side of the TIV
// alert mechanism, and the paper's motivating "TIV-aware distributed
// system" (§7): a triangle inequality violation on edge A-B *is* the
// statement that some relay C gives a path A-C-B faster than the direct
// edge. The alert tells a node, without global knowledge, which of its
// edges are worth spending detour probes on.
//
// Protocol simulated here:
//   1. A maintains Vivaldi coordinates (shared embedding).
//   2. For a flow A -> B, A computes the prediction ratio of the edge; if
//      it is below the alert threshold, A asks `relay_candidates` of its
//      known peers — ranked by predicted relay delay
//      (predicted(A,C) + predicted(C,B)) — to probe B, and routes via the
//      best relay found if it beats the direct edge.
//   3. Un-alerted edges are used directly, costing zero extra probes.
//
// The evaluation compares against (a) direct routing, (b) oracle one-hop
// detours (best relay by true delays — the overlay-routing upper bound),
// and (c) probing the same number of *random* relays on every edge, which
// spends far more probes for less gain.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/alert.hpp"
#include "embedding/vivaldi.hpp"
#include "util/stats.hpp"

namespace tiv::core {

struct DetourParams {
  double alert_threshold = 0.6;   ///< prediction-ratio alert gate
  std::uint32_t relay_candidates = 8;  ///< relays probed per alerted edge
  std::uint64_t seed = 57;
};

/// Outcome of routing one edge.
struct DetourDecision {
  /// The (a, b) pair has a usable direct measurement. When false the router
  /// early-returns with infinite direct/achieved delays and no alert or
  /// probes — callers must not fold the infinities into delay summaries
  /// (the old behavior silently propagated +inf / NaN into Summary stats).
  bool measured = false;
  bool alerted = false;        ///< the edge raised a TIV alert
  bool detoured = false;       ///< a relay beat the direct edge
  delayspace::HostId relay = 0;
  double direct_ms = 0.0;
  double achieved_ms = 0.0;    ///< min(direct, best relay path)
  std::uint32_t probes = 0;    ///< on-demand probes spent
};

/// One-hop detour router over a delay matrix + embedding.
///
/// The relay scans run over the packed DelayMatrixView's masked rows: a
/// missing leg sums past kMaskedDelay and can never look like a usable
/// relay, which deletes the per-element `< 0` branches from the hot loops
/// (the severity kernel's trick). Construction packs the O(N^2) view once
/// and amortizes it across every route/oracle call — or reuses a
/// caller-provided view, so drivers that also run severity batches pack the
/// matrix exactly once.
class DetourRouter {
 public:
  /// The system (its matrix) and the optional prebuilt view must outlive
  /// the router. view == nullptr packs a private view of system.matrix().
  DetourRouter(const embedding::VivaldiSystem& system,
               const DetourParams& params,
               const delayspace::DelayMatrixView* view = nullptr);

  /// Routes A -> B. Relay candidates are drawn from all hosts, ranked by
  /// predicted relay-path delay; each candidate costs 2 probes (A-C is
  /// usually known, C-B is measured on demand; we charge both
  /// conservatively). An unmeasured pair early-returns with
  /// measured == false.
  DetourDecision route(delayspace::HostId a, delayspace::HostId b,
                       Rng& rng) const;

  /// Best possible one-hop relay path (oracle; no probe accounting).
  /// Branch-free lane scan over the masked rows; exactly equal to the
  /// seed's branchy scan, tiv::reference::oracle_one_hop_scalar. Requires
  /// a != b.
  double oracle_one_hop(delayspace::HostId a, delayspace::HostId b) const;

 private:
  const embedding::VivaldiSystem& system_;
  DetourParams params_;
  std::optional<delayspace::DelayMatrixView> owned_view_;
  const delayspace::DelayMatrixView* view_;  ///< never null after ctor
};

/// Aggregate evaluation over sampled edges.
struct DetourEvaluation {
  Summary direct_ms;
  Summary achieved_ms;         ///< TIV-aware detour routing
  Summary oracle_ms;           ///< best one-hop relay (upper bound)
  Summary random_relay_ms;     ///< same relay budget on every edge, random
  double mean_stretch_direct = 0.0;   ///< direct / oracle
  double mean_stretch_achieved = 0.0; ///< achieved / oracle
  std::uint64_t probes_tiv_aware = 0;
  std::uint64_t probes_random = 0;
  std::size_t edges = 0;           ///< achieved sample count (distinct edges)
  std::size_t edges_requested = 0; ///< sample_edges as asked for; on a
                                   ///< missing-heavy matrix the rejection
                                   ///< budget may exhaust with edges <
                                   ///< edges_requested
  std::size_t alerted_edges = 0;
  std::size_t detoured_edges = 0;
};

/// Routes `sample_edges` distinct random measured pairs three ways and
/// aggregates. Pass `view` (a packed view of system.matrix()) to reuse a
/// view across calls — the threshold-sweep drivers call this once per
/// threshold on the same matrix.
DetourEvaluation evaluate_detour_routing(
    const embedding::VivaldiSystem& system, const DetourParams& params,
    std::size_t sample_edges, std::uint64_t seed = 31,
    const delayspace::DelayMatrixView* view = nullptr);

}  // namespace tiv::core
