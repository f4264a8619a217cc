#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "core/config.h"

namespace omr::core::kernels {

/// Element-wise slot-reduction kernels, one per (operator, arithmetic)
/// combination. The Aggregator selects a kernel pointer once per
/// collective, hoisting the ReduceOp/fixed-point dispatch out of the
/// per-element inner loop; each kernel body is a tight branch-free loop
/// the compiler auto-vectorizes. Every kernel performs exactly the same
/// operations in the same order as the dispatching loop it replaced, so
/// aggregated values are bit-identical.
using ReduceKernel = void (*)(float* dst, const float* src, std::size_t n);

inline void reduce_sum(float* dst, const float* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

inline void reduce_sum_fixed_point(float* dst, const float* src,
                                   std::size_t n) {
  // Switch-ASIC arithmetic: each addend is quantized to an int32-scaled
  // value and the running sum saturates at the int32 range — the
  // SwitchML-style limitation the P4 aggregator inherits (§7).
  constexpr double kMaxFix = 2147483647.0;
  constexpr double scale = kFixedPointScale;
  for (std::size_t i = 0; i < n; ++i) {
    const double q = std::nearbyint(static_cast<double>(src[i]) * scale);
    double acc = std::nearbyint(static_cast<double>(dst[i]) * scale) + q;
    acc = std::clamp(acc, -kMaxFix, kMaxFix);
    dst[i] = static_cast<float>(acc / scale);
  }
}

inline void reduce_min(float* dst, const float* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = std::min(dst[i], src[i]);
}

inline void reduce_max(float* dst, const float* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = std::max(dst[i], src[i]);
}

inline ReduceKernel select(ReduceOp op, bool fixed_point) {
  switch (op) {
    case ReduceOp::kSum:
      return fixed_point ? reduce_sum_fixed_point : reduce_sum;
    case ReduceOp::kMin:
      return reduce_min;
    case ReduceOp::kMax:
      return reduce_max;
  }
  return reduce_sum;
}

}  // namespace omr::core::kernels
