// Dense symmetric host-to-host round-trip delay matrix — the central data
// structure of the study. Matches the shape of the measured matrices the
// paper analyzes (p2psim, Meridian, DS^2, PlanetLab): symmetric RTTs in
// milliseconds with occasional missing measurements.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace tiv::delayspace {

using HostId = std::uint32_t;

/// Symmetric n-by-n delay matrix with missing-entry support.
///
/// Storage is a full row-major float matrix: the O(N^3) TIV analyzer scans
/// whole rows, so the 2x memory cost of not using triangular storage buys
/// contiguous, branch-free inner loops. Missing measurements are kMissing
/// (negative); the diagonal is always 0.
class DelayMatrix {
 public:
  static constexpr float kMissing = -1.0f;

  DelayMatrix() = default;
  explicit DelayMatrix(HostId n);

  HostId size() const { return n_; }

  /// Measured delay in ms, or kMissing. at(i,i) == 0.
  float at(HostId i, HostId j) const { return data_[idx(i, j)]; }

  /// True when the pair has a usable measurement (i != j and not missing).
  bool has(HostId i, HostId j) const { return i != j && at(i, j) >= 0.0f; }

  /// Sets both (i,j) and (j,i). Requires i != j and (delay >= 0 or
  /// delay == kMissing).
  void set(HostId i, HostId j, float delay_ms);

  void set_missing(HostId i, HostId j) { set(i, j, kMissing); }

  /// Row i as a contiguous span (includes diagonal zero and missing
  /// sentinels) — the analyzer's hot-loop access path.
  std::span<const float> row(HostId i) const {
    return {data_.data() + static_cast<std::size_t>(i) * n_, n_};
  }

  /// Number of unordered pairs with a usable measurement.
  std::size_t measured_pair_count() const;

  /// Fraction of unordered pairs that are missing.
  double missing_fraction() const;

  /// All measured delays (unordered pairs), for distribution plots.
  std::vector<double> all_delays() const;

  /// Text serialization: first line "n", then one "i j delay" line per
  /// measured unordered pair. Load throws std::runtime_error on malformed
  /// input.
  void save(const std::string& path) const;
  static DelayMatrix load(const std::string& path);

  bool operator==(const DelayMatrix& o) const {
    return n_ == o.n_ && data_ == o.data_;
  }

 private:
  std::size_t idx(HostId i, HostId j) const {
    return static_cast<std::size_t>(i) * n_ + j;
  }

  HostId n_ = 0;
  std::vector<float> data_;
};

/// Packed read-only view of a DelayMatrix optimized for the O(N^3) witness
/// scans of the TIV analyzer.
///
/// Two transformations make the inner loop branch-free and vectorizable:
///
///  1. Missing entries (DelayMatrix::kMissing, negative) are rewritten to
///     kMaskedDelay, a huge positive sentinel. A detour through a missing
///     leg then sums to >= kMaskedDelay and can never satisfy
///     `detour < d_ac`, so the kernel needs no `d < 0` tests at all. The
///     diagonal stays 0, which likewise self-excludes the b == a / b == c
///     witnesses (their detour equals d_ac exactly, never strictly less).
///
///  2. Rows are padded to a multiple of kLaneFloats and 64-byte aligned;
///     padding lanes hold kMaskedDelay. The witness loop can therefore run
///     to stride() in full SIMD lanes with no scalar tail.
///
/// For counting (witness totals, measurable-triangle totals) the view also
/// carries a per-row missing-entry bitmask: bit b of mask_row(i) is set iff
/// (i, b) is a usable measurement (i != b and measured). The number of
/// witnesses with both legs measured for edge (a, c) is then one AND+popcount
/// sweep — b == a and b == c fall out automatically because a row's own bit
/// is never set.
///
/// The view holds a snapshot: mutate the DelayMatrix and rebuild the view —
/// or, when only a few hosts changed, repack_row the touched rows in place
/// (the streaming engine's incremental path, see src/stream/).
class DelayMatrixView {
 public:
  /// Sentinel for missing/padding entries. Large enough that any sum
  /// involving it exceeds every real RTT, small enough that sums of two
  /// stay finite in float.
  static constexpr float kMaskedDelay = 1e30f;
  /// Row padding granularity in floats (64 bytes: one cache line, one
  /// AVX-512 register).
  static constexpr std::size_t kLaneFloats = 16;

  explicit DelayMatrixView(const DelayMatrix& m);

  /// The view encoding of one entry d of row i, column b: 0 on the
  /// diagonal (diagonal = b == i), d where measured, kMaskedDelay where
  /// missing. Branch-free, so loops over it vectorize.
  static float pack_entry(float d, bool diagonal) {
    return diagonal ? 0.0f : (d >= 0.0f ? d : kMaskedDelay);
  }

  /// Packs columns [col_begin, col_end) of matrix row i into the view's
  /// float encoding, pack_entry per column, into out[0, col_end - col_begin).
  /// One branch-free loop; it is the single definition of the encoding —
  /// shared by this view, the input tile writer (shard/tile_store), the
  /// epoch screen and the epoch repair's packed rows, whose bit-identity
  /// contracts depend on them never diverging.
  static void pack_row_segment(const DelayMatrix& m, HostId i,
                               HostId col_begin, HostId col_end, float* out);

  /// Padded row length (floats) and bitmask words per row of an n-host view.
  static std::size_t stride_for(HostId n);
  static std::size_t mask_words_for(HostId n);

  /// Packs matrix row i into one view row of floats: stride_for(n) floats,
  /// padding (kMaskedDelay) included. No mask bits: pack_mask adds those.
  static void pack_row(const DelayMatrix& m, HostId i, float* out);

  /// The measured-entry bitmask of matrix row i: mask_words_for(n) words,
  /// bit b set iff (i, b) is a usable measurement (b != i, measured). A
  /// separate pass, taken only by the rows that keep their masks (view
  /// rows and TivAnalyzer's per-edge scratch rows).
  static void pack_mask(const DelayMatrix& m, HostId i, std::uint64_t* mask);

  /// Re-packs row i (delays + missing bitmask) from `m`, which must be the
  /// matrix this view was built from (same size), possibly mutated since.
  /// An edge update (a, b) changes exactly rows a and b of the packed
  /// encoding, so repacking every touched host's row brings the view back
  /// to what a from-scratch build over the mutated matrix would produce —
  /// byte-identical, padding included. O(n) per row; the incremental
  /// alternative to the O(n^2) constructor.
  void repack_row(const DelayMatrix& m, HostId i);

  // Non-copyable/movable: delays_ points into delay_storage_, so a copied
  // view would alias (then dangle with) the source's buffer.
  DelayMatrixView(const DelayMatrixView&) = delete;
  DelayMatrixView& operator=(const DelayMatrixView&) = delete;

  HostId size() const { return n_; }
  /// Padded row length in floats (multiple of kLaneFloats).
  std::size_t stride() const { return stride_; }
  /// Words per bitmask row.
  std::size_t mask_words() const { return mask_words_; }

  /// Delay row i: at(i, b) for b < size(), kMaskedDelay where missing or
  /// padding; 64-byte aligned.
  const float* row(HostId i) const { return delays_ + i * stride_; }

  /// Bit b set iff (i, b) is a usable measurement.
  const std::uint64_t* mask_row(HostId i) const {
    return masks_.data() + i * mask_words_;
  }

  /// Witnesses of edge (a, c) with both legs measured (excludes a and c
  /// themselves): popcount over the AND of the two mask rows.
  std::size_t witness_count(HostId a, HostId c) const {
    return measured_in_both(mask_row(a), mask_row(c), mask_words_);
  }
  /// The same count over any two mask rows of `words` words.
  static std::size_t measured_in_both(const std::uint64_t* ma,
                                      const std::uint64_t* mc,
                                      std::size_t words);

 private:
  HostId n_ = 0;
  std::size_t stride_ = 0;
  std::size_t mask_words_ = 0;
  std::vector<float> delay_storage_;  ///< over-allocated for alignment
  float* delays_ = nullptr;           ///< 64-byte aligned base
  std::vector<std::uint64_t> masks_;
};

}  // namespace tiv::delayspace
