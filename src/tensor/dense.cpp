#include "tensor/dense.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace omr::tensor {

void DenseTensor::add_inplace(const DenseTensor& other) {
  if (other.size() != size()) throw std::invalid_argument("size mismatch");
  for (std::size_t i = 0; i < v_.size(); ++i) v_[i] += other.v_[i];
}

void DenseTensor::axpy_inplace(float scale, const DenseTensor& other) {
  if (other.size() != size()) throw std::invalid_argument("size mismatch");
  for (std::size_t i = 0; i < v_.size(); ++i) v_[i] += scale * other.v_[i];
}

std::size_t DenseTensor::nnz() const {
  return static_cast<std::size_t>(
      std::count_if(v_.begin(), v_.end(), [](float x) { return x != 0.0f; }));
}

double DenseTensor::sparsity() const {
  if (v_.empty()) return 0.0;
  return 1.0 - static_cast<double>(nnz()) / static_cast<double>(v_.size());
}

double DenseTensor::l2_norm() const {
  double s = 0.0;
  for (float x : v_) s += static_cast<double>(x) * x;
  return std::sqrt(s);
}

DenseTensor reference_sum(std::span<const DenseTensor> tensors) {
  if (tensors.empty()) return DenseTensor{};
  DenseTensor out(tensors.front().size());
  for (const DenseTensor& t : tensors) out.add_inplace(t);
  return out;
}

double max_abs_diff(const DenseTensor& a, const DenseTensor& b) {
  if (a.size() != b.size()) throw std::invalid_argument("size mismatch");
  const std::size_t n = a.size();
  double m = 0.0;
  std::size_t i = 0;
#if defined(__SSE2__)
  // Eight floats a step into four independent maxima of two doubles, so
  // no lane waits on another. maxpd(d, m) is `d > m ? d : m`, exactly the
  // scalar loop's update, so a NaN difference (NaN on both sides, or
  // inf - inf) leaves m alone; a NaN on one side only shows as the XOR of
  // the two sides' unordered compares.
  const float* pa = a.values().data();
  const float* pb = b.values().data();
  const __m128d sign = _mm_set1_pd(-0.0);
  __m128d m0 = _mm_setzero_pd();
  __m128d m1 = m0;
  __m128d m2 = m0;
  __m128d m3 = m0;
  __m128 one_sided = _mm_setzero_ps();
  auto diff = [sign](__m128 x, __m128 y) {
    return _mm_andnot_pd(sign, _mm_sub_pd(_mm_cvtps_pd(x), _mm_cvtps_pd(y)));
  };
  for (; i + 8 <= n; i += 8) {
    const __m128 a0 = _mm_loadu_ps(pa + i);
    const __m128 b0 = _mm_loadu_ps(pb + i);
    const __m128 a1 = _mm_loadu_ps(pa + i + 4);
    const __m128 b1 = _mm_loadu_ps(pb + i + 4);
    one_sided = _mm_or_ps(
        one_sided, _mm_or_ps(_mm_xor_ps(_mm_cmpunord_ps(a0, a0),
                                        _mm_cmpunord_ps(b0, b0)),
                             _mm_xor_ps(_mm_cmpunord_ps(a1, a1),
                                        _mm_cmpunord_ps(b1, b1))));
    m0 = _mm_max_pd(diff(a0, b0), m0);
    m1 = _mm_max_pd(diff(_mm_movehl_ps(a0, a0), _mm_movehl_ps(b0, b0)), m1);
    m2 = _mm_max_pd(diff(a1, b1), m2);
    m3 = _mm_max_pd(diff(_mm_movehl_ps(a1, a1), _mm_movehl_ps(b1, b1)), m3);
  }
  if (_mm_movemask_ps(one_sided) != 0) {
    return std::numeric_limits<double>::infinity();
  }
  m0 = _mm_max_pd(_mm_max_pd(m0, m1), _mm_max_pd(m2, m3));
  m = std::max(_mm_cvtsd_f64(m0), _mm_cvtsd_f64(_mm_unpackhi_pd(m0, m0)));
#endif
  for (; i < n; ++i) {
    const double d = std::abs(static_cast<double>(a[i]) - b[i]);
    if (d > m) {
      m = d;
    } else if (std::isnan(d) && std::isnan(a[i]) != std::isnan(b[i])) {
      return std::numeric_limits<double>::infinity();
    }
  }
  return m;
}

double l2_diff(const DenseTensor& a, const DenseTensor& b) {
  if (a.size() != b.size()) throw std::invalid_argument("size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

}  // namespace omr::tensor
