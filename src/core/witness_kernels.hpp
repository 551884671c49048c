// Branch-free witness-scan primitives shared by the in-memory severity
// kernel (severity.cpp) and the out-of-core streaming driver
// (shard_severity.cpp).
//
// All functions scan packed-view data: missing entries are
// DelayMatrixView::kMaskedDelay (huge), the diagonal is 0, so missing-leg
// and self-witness exclusions are implicit (see delay_matrix.hpp). The
// loop bodies are pure arithmetic + compares and auto-vectorize.
//
// The ratio accumulation is split into accumulate + reduce so a caller can
// feed witnesses in column chunks: kWitnessLanes independent accumulators,
// lane l taking columns b with b % kWitnessLanes == l. As long as chunks
// are multiples of kWitnessLanes and arrive in ascending column order, the
// per-lane addition sequences — and therefore the reduced double — are
// bit-identical whether the scan ran over one contiguous row or over tiles
// streamed from disk. Masked/padding columns contribute exactly +0.0,
// which is an exact no-op on the non-negative partial sums, so differing
// amounts of tail padding between the two paths cannot change the result.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace tiv::core {

/// Independent accumulator lanes of the ratio reduction. A divisor of
/// DelayMatrixView::kLaneFloats, so both the view's row padding and any
/// tile width that is a multiple of the lane count preserve lane phase.
inline constexpr std::size_t kWitnessLanes = 8;

/// Adds to acc[kWitnessLanes] the triangulation ratios d_ac / (d_ab + d_bc)
/// of violating witnesses (detour < d_ac, detour > 0) in columns
/// [0, len) of packed rows ra/rc. len must be a multiple of kWitnessLanes.
/// Lane phase follows the caller's global column offset: pass rows whose
/// column 0 is a multiple of kWitnessLanes globally.
///
/// The lanes are copied into a function-local array for the scan and
/// stored back once, for the reason witness_violation_minmax documents:
/// accumulating through the caller's pointer (a heap block in the
/// out-of-core band-pair loops) makes GCC emit a scalar
/// compare-and-branch loop with one vdivsd per witness (~3x slower);
/// local lanes compile to masked vector divides at every call site. Each lane still adds its terms in
/// the same order, so the sums are bit-identical either way.
inline void witness_ratio_accumulate(const float* ra, const float* rc,
                                     std::size_t len, float dac,
                                     double* acc) {
  double lanes[kWitnessLanes];
  for (std::size_t l = 0; l < kWitnessLanes; ++l) lanes[l] = acc[l];
  for (std::size_t b = 0; b < len; b += kWitnessLanes) {
    for (std::size_t l = 0; l < kWitnessLanes; ++l) {
      const float detour = ra[b + l] + rc[b + l];
      const bool violates = (detour < dac) & (detour > 0.0f);
      // Unconditional division with a blended-safe divisor: cheaper than a
      // branch per witness and keeps the loop if-convertible. Double
      // division so each term is bit-identical to the scalar reference
      // (only the summation order differs).
      const double ratio = static_cast<double>(dac) /
                           (violates ? static_cast<double>(detour) : 1.0);
      lanes[l] += violates ? ratio : 0.0;
    }
  }
  for (std::size_t l = 0; l < kWitnessLanes; ++l) acc[l] = lanes[l];
}

/// Fixed pairwise reduction of the lane accumulators. Deterministic order;
/// every caller must use this (not a left-to-right sum) so partial-sum
/// paths match the monolithic scan bit for bit.
inline double witness_ratio_reduce(const double* acc) {
  static_assert(kWitnessLanes == 8, "reduction tree is written for 8 lanes");
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

/// Strict-violation count (detour < dac AND detour > 0 — the edge_stats
/// classification; unlike witness_violation_count below it excludes
/// zero-length detours) and minimum violating detour in [0, len).
struct WitnessViolationStats {
  std::size_t count = 0;
  /// The edge's own d_ac when count == 0 (callers must gate on count). The
  /// max triangulation ratio follows in O(1): dac / detour is monotone
  /// decreasing in detour, so max ratio = dac / min_detour — dividing the
  /// identical float detour the scalar reference divides, hence
  /// bit-identical to its running max.
  float min_detour = 0.0f;

  /// Exact composition (integer sum, order-free min; an empty chunk's dac
  /// never beats a violating detour, which is < dac by definition):
  /// chunked scans over the same edge combine to the monolithic result.
  void merge(const WitnessViolationStats& o) {
    count += o.count;
    min_detour = o.min_detour < min_detour ? o.min_detour : min_detour;
  }
};

/// One pass of the strict-violation scan for the batched edge engine. The
/// body is what lets it run at count-kernel speed: accumulator lanes are
/// function-local (a caller-provided float lane array could alias the rows,
/// blocking vectorization), and the min runs in the integer domain —
/// non-negative IEEE-754 floats order identically to their bit patterns, so
/// blending non-positive detours to dac's bits and taking an integer min is
/// exact while sidestepping GCC's refusal to if-convert a float select
/// feeding a float min (it emits scalar branches for that shape; this
/// formulation ran ~7x faster at n = 1024). All detours here are sums of
/// non-negative packed-view entries, so the positivity precondition holds
/// by construction.
inline WitnessViolationStats witness_violation_minmax(const float* ra,
                                                      const float* rc,
                                                      std::size_t len,
                                                      float dac) {
  std::uint32_t dac_bits = std::bit_cast<std::uint32_t>(dac);
  std::uint32_t cnt[kWitnessLanes] = {};
  std::uint32_t mind[kWitnessLanes];
  for (std::size_t l = 0; l < kWitnessLanes; ++l) mind[l] = dac_bits;
  for (std::size_t b = 0; b < len; b += kWitnessLanes) {
    for (std::size_t l = 0; l < kWitnessLanes; ++l) {
      const float detour = ra[b + l] + rc[b + l];
      cnt[l] += ((detour < dac) & (detour > 0.0f)) ? 1u : 0u;
      // Zero detours blend to dac (a no-op under min); positive
      // non-violating detours are >= dac in the integer order already.
      const std::uint32_t cand = detour > 0.0f
                                     ? std::bit_cast<std::uint32_t>(detour)
                                     : dac_bits;
      mind[l] = cand < mind[l] ? cand : mind[l];
    }
  }
  WitnessViolationStats out;
  std::uint32_t best = dac_bits;
  for (std::size_t l = 0; l < kWitnessLanes; ++l) {
    out.count += cnt[l];
    best = mind[l] < best ? mind[l] : best;
  }
  out.min_detour = std::bit_cast<float>(best);
  return out;
}

/// Best one-hop relay detour over packed rows: min over b in [0, len) of
/// ra[b] + rb[b], each leg widened to double before the add (the exact
/// arithmetic of the scalar oracle scan, so the min — which is
/// order-independent — is bit-identical to it). Missing legs, padding, and
/// an unmeasured self-column sum to >= DelayMatrixView::kMaskedDelay, so a
/// result at or above that sentinel means "no relay with both legs
/// measured". Self-columns b == a / b == b' contribute exactly the direct
/// delay when it is measured — never better than the true best relay — so
/// callers that fold the result into min(direct, relays) need no index
/// exclusions at all.
inline double relay_min_scan(const float* ra, const float* rb,
                             std::size_t len) {
  double best[kWitnessLanes];
  for (std::size_t l = 0; l < kWitnessLanes; ++l) {
    best[l] = std::numeric_limits<double>::infinity();
  }
  for (std::size_t b = 0; b < len; b += kWitnessLanes) {
    for (std::size_t l = 0; l < kWitnessLanes; ++l) {
      const double via = static_cast<double>(ra[b + l]) + rb[b + l];
      best[l] = via < best[l] ? via : best[l];
    }
  }
  double out = best[0];
  for (std::size_t l = 1; l < kWitnessLanes; ++l) {
    out = best[l] < out ? best[l] : out;
  }
  return out;
}

/// Number of witnesses b in [0, len) with detour < d_ac. Unlike the ratio
/// scan there is no detour > 0 exclusion: a measured zero-length detour
/// violates the triangle inequality for counting purposes (matches the
/// scalar violating_triangle_fraction reference). Exact integer math, so
/// chunked calls sum to the monolithic count in any order.
inline std::size_t witness_violation_count(const float* ra, const float* rc,
                                           std::size_t len, float dac) {
  std::size_t acc[kWitnessLanes] = {};
  for (std::size_t b = 0; b < len; b += kWitnessLanes) {
    for (std::size_t l = 0; l < kWitnessLanes; ++l) {
      const float detour = ra[b + l] + rc[b + l];
      acc[l] += detour < dac ? 1u : 0u;
    }
  }
  std::size_t total = 0;
  for (std::size_t l = 0; l < kWitnessLanes; ++l) total += acc[l];
  return total;
}

}  // namespace tiv::core
