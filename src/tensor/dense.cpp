#include "tensor/dense.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

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
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
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
