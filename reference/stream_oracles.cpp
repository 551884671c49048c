#include <algorithm>
#include <cassert>

#include "reference/oracles.hpp"

namespace tiv::reference {

using stream::SmoothingPolicy;

EdgeEstimator::EdgeEstimator(const stream::EstimatorParams& params)
    : params_(params) {
  if (params_.policy == SmoothingPolicy::kWindowedMin) {
    ring_.assign(std::max<std::uint32_t>(params_.window, 1), 0.0f);
  }
}

float EdgeEstimator::update(float sample_ms) {
  assert(sample_ms >= 0.0f);
  switch (params_.policy) {
    case SmoothingPolicy::kLatest:
      estimate_ = sample_ms;
      break;
    case SmoothingPolicy::kEwma:
      estimate_ = estimate_ < 0.0f
                      ? sample_ms  // first sample seeds the average
                      : params_.ewma_alpha * sample_ms +
                            (1.0f - params_.ewma_alpha) * estimate_;
      break;
    case SmoothingPolicy::kWindowedMin: {
      ring_[ring_next_] = sample_ms;
      ring_next_ = (ring_next_ + 1) % static_cast<std::uint32_t>(ring_.size());
      ring_count_ = std::min<std::uint32_t>(
          ring_count_ + 1, static_cast<std::uint32_t>(ring_.size()));
      float best = ring_[0];
      for (std::uint32_t k = 1; k < ring_count_; ++k) {
        best = std::min(best, ring_[k]);
      }
      estimate_ = best;
      break;
    }
  }
  return estimate_;
}

}  // namespace tiv::reference
