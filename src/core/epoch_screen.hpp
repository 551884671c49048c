// Exact screen of an epoch's severity repair: which edges incident to the
// dirty hosts can change at all.
//
// sev(x, c) = (1/n) * sum over witnesses w of t_w, with
// t_w = d(x, c) / (d(x, w) + d(w, c)) when w violates (x, c) and 0
// otherwise. An entry d(x, w) appears in exactly three kinds of edge: as
// the edge's own delay in (x, w), and as a witness leg in (x, c) and
// (w, c), through witness w and x respectively. So when an epoch changes
// the entry set E, edge (x, c) can change only through its own delay or
// through the terms t_w of changed entries {x, w} in E. If each such term
// is 0 before the epoch and 0 after it (w violates (x, c) neither time),
// every term of the sum is the same double in the same lane, and the
// severity is the same bit for bit.
//
// The screen therefore flags edge (x, c) iff
//   - {x, c} is itself a changed entry, or
//   - some changed entry {x, w} makes w a violating witness of (x, c)
//     before or after the epoch (and symmetrically with x and c swapped),
// with violation decided by the witness kernels' own float predicate
// (witness_kernels.hpp): detour = d(x, w) + d(w, c) in float,
// detour < d(x, c) && detour > 0, on packed rows where a missing entry is
// DelayMatrixView::kMaskedDelay. A masked leg never violates, and an edge
// unmeasured both times is never flagged (its severity is 0 both times);
// an edge that turns measured or missing is a changed entry and flags
// itself.
//
// EpochScreen::diff compares the dirty hosts' pre-epoch packed values
// with the post-epoch matrix, O(|H| * n), and checks the precondition
// that DelayStream guarantees: both endpoints of every changed entry are
// dirty. EpochScreen::flag then costs O(n) per changed entry and writes
// an EpochEdges bitmap in the canonical enumeration. Both stores of the
// live engine (stream/severity_engine) run the screen in its one epoch;
// the tile store's flags are exact, and it also repacks only the input
// tiles that hold a changed entry (EpochScreen::changes), while the
// in-memory store still answers "flag all" and recomputes every incident
// edge. See docs/PERFORMANCE.md ("Screened epoch repair").
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "delayspace/delay_matrix.hpp"

namespace tiv::core {

using delayspace::DelayMatrix;
using delayspace::HostId;

/// The edges an epoch repair recomputes: a |H| x n bitmap over the dirty
/// hosts H (ascending). The live engine enumerates each unordered edge
/// incident to H once, as (h, c) with c != h, skipping a dirty c < h (that
/// edge is (c, h)); bit (i, c) stands for edge (dirty_hosts[i], c) in that
/// enumeration, and no other bit is ever set.
class EpochEdges {
 public:
  /// Clears the set for an epoch over `dirty_hosts` (ascending, distinct,
  /// below n — core::check_dirty_hosts) of an n-host matrix. Reuses its
  /// buffers, so a warm set allocates nothing.
  void reset(std::span<const HostId> dirty_hosts, HostId n);

  /// Flags edge {x, c}, x dirty and c != x, in its canonical row.
  void flag(HostId x, HostId c) {
    const std::uint32_t ic = index_[c];
    if (ic != kClean && c < x) {
      set(ic, x);
    } else {
      set(index_[x], c);
    }
  }

  /// Flags edge {h, c}, h dirty, for every c != h with hit[c] != 0
  /// (hit holds size() bytes) — flag() over a whole row, word at a time.
  void flag_row(HostId h, const std::uint8_t* hit);

  /// Flags every edge incident to a dirty host — the unscreened repair.
  void flag_all();

  /// Calls fn(c) for every flagged c in [c0, c1) of row i, ascending.
  template <typename Fn>
  void for_each_in_row(std::size_t i, HostId c0, HostId c1, Fn&& fn) const {
    for (std::size_t w = c0 / 64; w * 64 < c1; ++w) {
      std::uint64_t word = word_in(i, w, c0, c1);
      while (word != 0) {
        fn(static_cast<HostId>(w * 64 + std::countr_zero(word)));
        word &= word - 1;
      }
    }
  }

  /// Whether any c in [c0, c1) of row i is flagged.
  bool any_in_row(std::size_t i, HostId c0, HostId c1) const {
    for (std::size_t w = c0 / 64; w * 64 < c1; ++w) {
      if (word_in(i, w, c0, c1) != 0) return true;
    }
    return false;
  }

  /// Whether edge (i, c), bit c of row i, is flagged.
  bool test(std::size_t i, HostId c) const {
    return (bits_[i * words_ + c / 64] >> (c % 64)) & 1;
  }

  std::size_t rows() const { return rows_; }
  HostId size() const { return n_; }

 private:
  static constexpr std::uint32_t kClean = ~std::uint32_t{0};
  /// Word w of row i, with the bits outside [c0, c1) cleared.
  std::uint64_t word_in(std::size_t i, std::size_t w, HostId c0,
                        HostId c1) const {
    std::uint64_t word = bits_[i * words_ + w];
    if (w == c0 / 64) word &= ~std::uint64_t{0} << (c0 % 64);
    if ((w + 1) * 64 > c1 && c1 % 64 != 0) {
      word &= ~(~std::uint64_t{0} << (c1 % 64));
    }
    return word;
  }
  void set(std::size_t i, HostId c) {
    bits_[i * words_ + c / 64] |= std::uint64_t{1} << (c % 64);
  }

  HostId n_ = 0;
  std::size_t rows_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;
  std::vector<std::uint32_t> index_;  ///< host -> dirty index, or kClean
  std::vector<std::uint64_t> dirty_;  ///< bit h: h is dirty
};

/// Finds an epoch's changed entries and flags the edges they can reach.
/// One instance per live engine; its buffers are reused across epochs.
class EpochScreen {
 public:
  /// Starts an epoch: `after` is the post-epoch matrix and `dirty_hosts`
  /// its dirty set (ascending, distinct, below after.size() — checked by
  /// the caller). `after` must outlive the flag() call.
  void begin(const DelayMatrix& after, std::span<const HostId> dirty_hosts);

  /// Diffs dirty host dirty_hosts[i]'s pre-epoch packed values over
  /// columns [c0, c0 + len) — `old_values[k]` is column c0 + k; columns
  /// at or past n are padding and ignored — against `after`. Throws
  /// std::invalid_argument when a changed entry's partner is not dirty,
  /// which DelayStream never produces. Rows may arrive in any order and in
  /// any segments, as long as every (dirty host, column) is diffed once;
  /// concurrent calls are safe.
  void diff(std::size_t i, HostId c0, const float* old_values,
            std::size_t len);

  /// A changed entry {x, w}, x < w, with its pre-epoch packed value.
  struct Change {
    HostId x;
    HostId w;
    float old_value;
  };

  /// Changed unordered entries found so far.
  std::size_t edges_changed() const { return changed_.size(); }

  /// The changed entries, ascending by (x, w) once flag() has run. The
  /// tile store repacks exactly the input tiles that hold one.
  std::span<const Change> changes() const { return changed_; }

  /// Resets `out` to this epoch's dirty hosts and flags the edges to
  /// recompute (see the file comment). Call after every row is diffed.
  void flag(EpochEdges& out);

 private:
  const DelayMatrix* after_ = nullptr;
  std::span<const HostId> dirty_hosts_;
  std::vector<std::uint8_t> dirty_;
  std::vector<Change> changed_;
  /// Per-host pre-epoch values (both orientations of every changed
  /// entry), grouped by host: patches_[patch_begin_[h], patch_begin_[h+1]).
  std::vector<std::size_t> patch_begin_;
  std::vector<std::size_t> patch_next_;
  std::vector<std::pair<HostId, float>> patches_;
  std::vector<float> rows_;            ///< flag(): four packed rows
  std::vector<std::uint8_t> hits_;     ///< flag(): two hit-byte rows
  std::mutex mutex_;                   ///< guards changed_ in diff()
};

}  // namespace tiv::core
