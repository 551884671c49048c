#include "core/epoch_screen.hpp"

#include <algorithm>
#include <bit>
#include <mutex>
#include <stdexcept>
#include <string>

namespace tiv::core {

using delayspace::DelayMatrixView;

void EpochEdges::reset(std::span<const HostId> dirty_hosts, HostId n) {
  n_ = n;
  rows_ = dirty_hosts.size();
  words_ = (static_cast<std::size_t>(n) + 63) / 64;
  bits_.assign(rows_ * words_, 0);
  index_.assign(n, kClean);
  dirty_.assign(words_, 0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const HostId h = dirty_hosts[i];
    index_[h] = static_cast<std::uint32_t>(i);
    dirty_[h / 64] |= std::uint64_t{1} << (h % 64);
  }
}

void EpochEdges::flag_row(HostId h, const std::uint8_t* hit) {
  const std::size_t i = index_[h];
  std::uint64_t* row = bits_.data() + i * words_;
  for (std::size_t w = 0; w < words_; ++w) {
    const std::size_t c0 = w * 64;
    const std::size_t len = std::min<std::size_t>(64, n_ - c0);
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < len; ++b) {
      word |= static_cast<std::uint64_t>(hit[c0 + b] != 0) << b;
    }
    // Columns at or below h in this word: h itself is no edge, and a
    // dirty c < h holds edge {h, c} in its own row, at column h.
    std::uint64_t below = 0;
    if (c0 + 64 <= h) {
      below = ~std::uint64_t{0};
    } else if (c0 <= h) {
      below = (std::uint64_t{1} << (h - c0)) - 1;
      word &= ~(std::uint64_t{1} << (h - c0));
    }
    std::uint64_t moved = word & below & dirty_[w];
    row[w] |= word & ~moved;
    while (moved != 0) {
      set(index_[c0 + std::countr_zero(moved)], h);
      moved &= moved - 1;
    }
  }
}

void EpochEdges::flag_all() {
  // Row i: every column but h itself and the dirty hosts below h.
  std::size_t i = 0;
  for (HostId h = 0; h < n_ && i < rows_; ++h) {
    if (index_[h] != i) continue;
    std::uint64_t* row = bits_.data() + i * words_;
    std::fill_n(row, words_, ~std::uint64_t{0});
    if (n_ % 64 != 0) row[words_ - 1] = ~(~std::uint64_t{0} << (n_ % 64));
    row[h / 64] &= ~(std::uint64_t{1} << (h % 64));
    for (HostId d = 0; d < h; ++d) {
      if (index_[d] != kClean) row[d / 64] &= ~(std::uint64_t{1} << (d % 64));
    }
    ++i;
  }
}

void EpochScreen::begin(const DelayMatrix& after,
                        std::span<const HostId> dirty_hosts) {
  after_ = &after;
  dirty_hosts_ = dirty_hosts;
  dirty_.assign(after.size(), 0);
  for (const HostId h : dirty_hosts) dirty_[h] = 1;
  changed_.clear();
}

void EpochScreen::diff(std::size_t i, HostId c0, const float* old_values,
                       std::size_t len) {
  const HostId n = after_->size();
  const HostId h = dirty_hosts_[i];
  if (c0 >= n) return;
  const auto c1 = static_cast<HostId>(
      std::min<std::size_t>(static_cast<std::size_t>(c0) + len, n));
  const auto row = after_->row(h);
  for (HostId c = c0; c < c1; ++c) {
    const float was = old_values[c - c0];
    const float now = DelayMatrixView::pack_entry(row[c], c == h);
    if (std::bit_cast<std::uint32_t>(was) ==
        std::bit_cast<std::uint32_t>(now)) {
      continue;
    }
    if (!dirty_[c]) {
      throw std::invalid_argument(
          "epoch screen: entry (" + std::to_string(h) + ", " +
          std::to_string(c) + ") changed but host " + std::to_string(c) +
          " is not in the dirty-host list");
    }
    if (h < c) {
      const std::lock_guard<std::mutex> lock(mutex_);
      changed_.push_back({h, c, was});
    }
  }
}

namespace {

/// The kernels' predicate (witness_kernels.hpp) on one witness term, as a
/// mask; an unmeasured edge has no terms.
inline std::uint8_t violates(float detour, float dac) {
  return static_cast<std::uint8_t>((dac < DelayMatrixView::kMaskedDelay) &
                                   (detour < dac) & (detour > 0.0f));
}

/// One changed entry {x, w}, d(x, w) = was before and now after the epoch:
/// ORs into hx[c] whether witness w violates (x, c) before or after, and
/// sets hw[c] to whether witness x violates (w, c) before or after. Rows
/// b* hold the pre-epoch and n* the post-epoch packed rows of x and w. On
/// the diagonal (c == x or c == w) d_ac is 0 or the detour equals d_ac, so
/// no flag is raised there. Restrict-qualified: the hit bytes would
/// otherwise alias the rows and keep the loop scalar.
void screen_entry(const float* __restrict bx, const float* __restrict nx,
                  const float* __restrict bw, const float* __restrict nw,
                  float was, float now, HostId n, std::uint8_t* __restrict hx,
                  std::uint8_t* __restrict hw) {
  for (HostId c = 0; c < n; ++c) {
    hx[c] |= violates(was + bw[c], bx[c]) | violates(now + nw[c], nx[c]);
    hw[c] = violates(was + bx[c], bw[c]) | violates(now + nx[c], nw[c]);
  }
}

}  // namespace

void EpochScreen::flag(EpochEdges& out) {
  const HostId n = after_->size();
  out.reset(dirty_hosts_, n);
  if (changed_.empty()) return;
  std::sort(changed_.begin(), changed_.end(),
            [](const Change& a, const Change& b) {
              return a.x != b.x ? a.x < b.x : a.w < b.w;
            });

  // Every host's pre-epoch values as (column, value) patches over its
  // post-epoch row: both orientations of each changed entry, grouped by
  // host with a counting sort.
  patch_begin_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const Change& ch : changed_) {
    ++patch_begin_[ch.x + 1];
    ++patch_begin_[ch.w + 1];
  }
  for (HostId h = 0; h < n; ++h) patch_begin_[h + 1] += patch_begin_[h];
  patches_.resize(2 * changed_.size());
  patch_next_.assign(patch_begin_.begin(), patch_begin_.end() - 1);
  for (const Change& ch : changed_) {
    patches_[patch_next_[ch.x]++] = {ch.w, ch.old_value};
    patches_[patch_next_[ch.w]++] = {ch.x, ch.old_value};
  }

  // Scratch: rows x and w after and before the epoch, and per-column hit
  // bytes for x (over all of x's changed entries) and w (this entry).
  rows_.resize(4 * std::size_t{n});
  hits_.resize(2 * std::size_t{n});
  float* const nx = rows_.data();
  float* const bx = nx + n;
  float* const nw = bx + n;
  float* const bw = nw + n;
  std::uint8_t* const hx = hits_.data();
  std::uint8_t* const hw = hx + n;
  const auto pack = [&](HostId h, float* now, float* before) {
    DelayMatrixView::pack_row_segment(*after_, h, 0, n, now);
    std::copy_n(now, n, before);
    for (std::size_t p = patch_begin_[h]; p < patch_begin_[h + 1]; ++p) {
      before[patches_[p].first] = patches_[p].second;
    }
  };
  HostId packed_x = n;
  for (const Change& ch : changed_) {
    const HostId x = ch.x;
    const HostId w = ch.w;
    if (x != packed_x) {
      if (packed_x != n) out.flag_row(packed_x, hx);
      pack(x, nx, bx);
      std::fill_n(hx, n, std::uint8_t{0});
      packed_x = x;
    }
    pack(w, nw, bw);
    out.flag(x, w);
    // d(x, w) before and after is the leg through witness w of every
    // (x, c) and through witness x of every (w, c).
    screen_entry(bx, nx, bw, nw, ch.old_value, nx[w], n, hx, hw);
    out.flag_row(w, hw);
  }
  out.flag_row(packed_x, hx);
}

}  // namespace tiv::core
