// Branch-free witness-scan primitives: the one witness loop of the
// library, shared by the in-memory severity kernel and every per-edge call
// (severity.cpp) and by the out-of-core band-pair walk
// (shard_severity.cpp).
//
// Two violation predicates, for witness b of edge (a, c) with
// detour = d_ab + d_bc in float:
//   - severity (witness_ratio_accumulate*, witness_violation_minmax, and
//     so EdgeTivStats' violation_count and max_ratio):
//       detour < d_ac && detour > 0
//     A zero-length detour (both legs measured as 0) is excluded: its
//     ratio d_ac / 0 is infinite and would swamp the sum.
//   - triangle count (witness_violation_count, behind the exact
//     violating_triangle_fraction): detour < d_ac, with no exclusion. That
//     triangle still breaks the triangle inequality, and a count has no
//     ratio to blow up.
//
// All functions scan packed-view data: missing entries are
// DelayMatrixView::kMaskedDelay (huge), the diagonal is 0, so missing-leg
// and self-witness exclusions are implicit (see delay_matrix.hpp). The
// loop bodies are pure arithmetic + compares and auto-vectorize, except
// witness_ratio_accumulate, which compiles to an explicit AVX-512VL body
// (divide only the 8-witness blocks that hold a violator) when the build
// targets AVX-512F and AVX-512VL, and to the portable body otherwise.
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

#if defined(__AVX512F__) && defined(__AVX512VL__)
#include <immintrin.h>
#define TIV_WITNESS_KERNEL_AVX512 1
#endif

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
/// This portable body divides once per witness, violating or not. Builds
/// without AVX-512VL run it as witness_ratio_accumulate; every build keeps
/// it as the oracle the compiled body is tested and benchmarked against,
/// and TivAnalyzer::edge_severity_batch calls it directly: that batch
/// streams its witness rows from beyond L2, where the masked body's time
/// follows other processes' memory traffic.
///
/// The lanes are copied into a function-local array for the scan and
/// stored back once, for the reason witness_violation_minmax documents:
/// accumulating through the caller's pointer (a heap block in the
/// out-of-core band-pair loops) makes GCC emit a scalar
/// compare-and-branch loop with one vdivsd per witness (~3x slower);
/// local lanes compile to masked vector divides at every call site. Each
/// lane still adds its terms in the same order, so the sums are
/// bit-identical either way.
inline void witness_ratio_accumulate_portable(const float* ra,
                                              const float* rc,
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

/// Name of the body witness_ratio_accumulate compiles to in this build:
/// "avx512" or "portable".
inline constexpr const char* kWitnessKernelIsa =
#ifdef TIV_WITNESS_KERNEL_AVX512
    "avx512";
#else
    "portable";
#endif

#ifdef TIV_WITNESS_KERNEL_AVX512
/// witness_ratio_accumulate_portable's contract and result, from an
/// AVX-512VL body that divides only the 8-witness blocks holding a violator.
/// On the DS^2 preset ~4% of witnesses violate and ~86% of blocks hold
/// none, yet the portable body divides every witness.
///
/// Each full chunk of 16 blocks runs two passes.
///   1. For every block, form detour = ra + rc in float and the violation
///      mask (detour > 0) & (detour < dac), keep the mask, and set the
///      block's bit in a chunk bitmap when the mask is nonzero. No branch
///      depends on the data: which blocks are empty is unpredictable
///      (~47% of blocks on a uniform matrix), and a per-block branch lost
///      22% there to mispredicts.
///   2. Walk the bitmap's set bits in ascending order, recompute detour,
///      and add the masked double division dac / detour into one zmm of
///      8 lanes.
/// The walk's exit mispredicts about once per chunk. Fewer than 16 blocks
/// (a row tail, or a whole call over one 64-wide out-of-core tile row) save
/// too few divides to pay for that on dense rows, so they run the portable
/// body.
///
/// Lane l still adds its ratios in ascending column order, and a skipped
/// block or masked-off lane would only have added +0.0 to a non-negative
/// sum, so acc is bit-identical to the portable body's.
inline void witness_ratio_accumulate(const float* ra, const float* rc,
                                     std::size_t len, float dac,
                                     double* acc) {
  static_assert(kWitnessLanes == 8, "one __m256 of floats per block");
  constexpr std::size_t kChunkBlocks = 16;  // bits of the chunk bitmap
  constexpr std::size_t kChunk = kChunkBlocks * kWitnessLanes;
  const std::size_t full = len / kChunk * kChunk;
  if (full != 0) {
    const __m256 dac_ps = _mm256_set1_ps(dac);
    const __m256 zero_ps = _mm256_setzero_ps();
    const __m512d dac_pd = _mm512_set1_pd(static_cast<double>(dac));
    const auto detour_at = [&](std::size_t b) {
      return _mm256_add_ps(_mm256_loadu_ps(ra + b), _mm256_loadu_ps(rc + b));
    };
    __m512d lanes = _mm512_loadu_pd(acc);
    for (std::size_t chunk = 0; chunk < full; chunk += kChunk) {
      __mmask8 masks[kChunkBlocks] = {};
      std::uint32_t listed = 0;
      for (std::size_t k = 0; k < kChunkBlocks; ++k) {
        const __m256 detour = detour_at(chunk + k * kWitnessLanes);
        masks[k] = _mm256_mask_cmp_ps_mask(
            _mm256_cmp_ps_mask(detour, zero_ps, _CMP_GT_OQ), detour, dac_ps,
            _CMP_LT_OQ);
        listed |= static_cast<std::uint32_t>(masks[k] != 0) << k;
      }
      for (; listed != 0; listed &= listed - 1) {
        const auto k = static_cast<std::size_t>(std::countr_zero(listed));
        const __m256 detour = detour_at(chunk + k * kWitnessLanes);
        lanes = _mm512_add_pd(
            lanes,
            _mm512_maskz_div_pd(masks[k], dac_pd, _mm512_cvtps_pd(detour)));
      }
    }
    _mm512_storeu_pd(acc, lanes);
  }
  if (full < len) {
    witness_ratio_accumulate_portable(ra + full, rc + full, len - full, dac,
                                      acc);
  }
}
#else
/// Without AVX-512VL the portable body is the kernel.
inline void witness_ratio_accumulate(const float* ra, const float* rc,
                                     std::size_t len, float dac,
                                     double* acc) {
  witness_ratio_accumulate_portable(ra, rc, len, dac, acc);
}
#endif

/// Fixed pairwise reduction of the lane accumulators. Deterministic order;
/// every caller must use this (not a left-to-right sum) so partial-sum
/// paths match the monolithic scan bit for bit.
inline double witness_ratio_reduce(const double* acc) {
  static_assert(kWitnessLanes == 8, "reduction tree is written for 8 lanes");
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

/// Violation count by the severity predicate (see the header comment) and
/// minimum violating detour in [0, len).
struct WitnessViolationStats {
  std::size_t count = 0;
  /// The edge's own d_ac when count == 0 (callers must gate on count). The
  /// max triangulation ratio follows in O(1): dac / detour is monotone
  /// decreasing in detour, so max ratio = dac / min_detour — dividing the
  /// identical float detour a scalar running max divides, hence
  /// bit-identical to it.
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

/// Number of witnesses b in [0, len) violating by the triangle-count
/// predicate (see the header comment): detour < d_ac, no detour > 0
/// exclusion. Exact integer math, so chunked calls sum to the monolithic
/// count in any order.
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
