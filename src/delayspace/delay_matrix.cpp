#include "delayspace/delay_matrix.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace tiv::delayspace {

DelayMatrix::DelayMatrix(HostId n) : n_(n) {
  data_.assign(static_cast<std::size_t>(n) * n, kMissing);
  for (HostId i = 0; i < n; ++i) data_[idx(i, i)] = 0.0f;
}

void DelayMatrix::set(HostId i, HostId j, float delay_ms) {
  assert(i < n_ && j < n_ && i != j);
  assert(delay_ms >= 0.0f || delay_ms == kMissing);
  data_[idx(i, j)] = delay_ms;
  data_[idx(j, i)] = delay_ms;
}

std::size_t DelayMatrix::measured_pair_count() const {
  std::size_t count = 0;
  for (HostId i = 0; i < n_; ++i) {
    for (HostId j = i + 1; j < n_; ++j) count += has(i, j);
  }
  return count;
}

double DelayMatrix::missing_fraction() const {
  if (n_ < 2) return 0.0;
  const auto total = static_cast<double>(n_) * (n_ - 1) / 2.0;
  return 1.0 - static_cast<double>(measured_pair_count()) / total;
}

std::vector<double> DelayMatrix::all_delays() const {
  std::vector<double> out;
  out.reserve(measured_pair_count());
  for (HostId i = 0; i < n_; ++i) {
    for (HostId j = i + 1; j < n_; ++j) {
      if (has(i, j)) out.push_back(at(i, j));
    }
  }
  return out;
}

void DelayMatrix::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("DelayMatrix::save: cannot open " + path);
  out << n_ << '\n';
  for (HostId i = 0; i < n_; ++i) {
    for (HostId j = i + 1; j < n_; ++j) {
      if (has(i, j)) out << i << ' ' << j << ' ' << at(i, j) << '\n';
    }
  }
  if (!out) throw std::runtime_error("DelayMatrix::save: write failed");
}

DelayMatrix DelayMatrix::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("DelayMatrix::load: cannot open " + path);
  HostId n = 0;
  if (!(in >> n)) throw std::runtime_error("DelayMatrix::load: bad header");
  DelayMatrix m(n);
  HostId i = 0;
  HostId j = 0;
  float d = 0.0f;
  while (in >> i >> j >> d) {
    if (i >= n || j >= n || i == j || d < 0.0f) {
      std::ostringstream msg;
      msg << "DelayMatrix::load: bad entry " << i << ' ' << j << ' ' << d;
      throw std::runtime_error(msg.str());
    }
    m.set(i, j, d);
  }
  if (!in.eof()) throw std::runtime_error("DelayMatrix::load: parse error");
  return m;
}

std::size_t DelayMatrixView::stride_for(HostId n) {
  const std::size_t stride =
      (static_cast<std::size_t>(n) + kLaneFloats - 1) / kLaneFloats *
      kLaneFloats;
  return stride == 0 ? kLaneFloats : stride;
}

std::size_t DelayMatrixView::mask_words_for(HostId n) {
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  return words == 0 ? 1 : words;
}

DelayMatrixView::DelayMatrixView(const DelayMatrix& m) : n_(m.size()) {
  stride_ = stride_for(n_);
  mask_words_ = mask_words_for(n_);

  // 64-byte-aligned delay rows; std::vector gives no alignment guarantee
  // beyond alignof(float), so over-allocate and align the base by hand.
  // Aligning the base to the padding granularity is what makes *every* row
  // start 64-byte aligned (stride_ is a multiple of kLaneFloats).
  static_assert(kLaneFloats * sizeof(float) == 64,
                "row alignment contract assumes 64-byte lanes");
  delay_storage_.resize(static_cast<std::size_t>(n_) * stride_ + kLaneFloats);
  auto addr = reinterpret_cast<std::uintptr_t>(delay_storage_.data());
  const std::size_t misalign =
      (addr / sizeof(float)) % kLaneFloats == 0
          ? 0
          : kLaneFloats - (addr / sizeof(float)) % kLaneFloats;
  delays_ = delay_storage_.data() + misalign;

  masks_.resize(static_cast<std::size_t>(n_) * mask_words_);
  for (HostId i = 0; i < n_; ++i) repack_row(m, i);
}

void DelayMatrixView::pack_row_segment(const DelayMatrix& m, HostId i,
                                       HostId col_begin, HostId col_end,
                                       float* out, std::uint64_t* mask) {
  const auto row = m.row(i);
  for (HostId b = col_begin; b < col_end; ++b) {
    const std::size_t lb = b - col_begin;
    const float d = row[b];
    if (b == i) {
      out[lb] = 0.0f;  // diagonal: keeps the b==a/b==c self-exclusion trick
    } else if (d >= 0.0f) {
      out[lb] = d;
      mask[lb >> 6] |= std::uint64_t{1} << (lb & 63);
    } else {
      out[lb] = kMaskedDelay;
    }
  }
}

void DelayMatrixView::pack_row(const DelayMatrix& m, HostId i, float* out,
                               std::uint64_t* mask) {
  const HostId n = m.size();
  // pack_row_segment only ORs mask bits in, so clear the words first.
  std::fill_n(mask, mask_words_for(n), std::uint64_t{0});
  pack_row_segment(m, i, 0, n, out, mask);
  std::fill(out + n, out + stride_for(n), kMaskedDelay);
}

void DelayMatrixView::repack_row(const DelayMatrix& m, HostId i) {
  assert(m.size() == n_ && i < n_);
  pack_row(m, i, delays_ + i * stride_, masks_.data() + i * mask_words_);
}

std::size_t DelayMatrixView::measured_in_both(const std::uint64_t* ma,
                                              const std::uint64_t* mc,
                                              std::size_t words) {
  std::size_t count = 0;
  for (std::size_t w = 0; w < words; ++w) {
    count += static_cast<std::size_t>(std::popcount(ma[w] & mc[w]));
  }
  return count;
}

}  // namespace tiv::delayspace
