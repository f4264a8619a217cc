#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace omr::tensor {

/// Element index within a tensor.
using Index = std::int64_t;

/// A one-dimensional dense float tensor (the collective input/output type).
/// DNN gradients are flattened to 1-D before communication, so higher rank
/// is unnecessary. Elements are 32-bit floats as in the paper (c_v = 4).
class DenseTensor {
 public:
  DenseTensor() = default;
  explicit DenseTensor(std::size_t n, float fill = 0.0f) : v_(n, fill) {}
  explicit DenseTensor(std::vector<float> values) : v_(std::move(values)) {}

  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }

  float& operator[](std::size_t i) { return v_[i]; }
  float operator[](std::size_t i) const { return v_[i]; }

  std::span<float> span() { return {v_.data(), v_.size()}; }
  std::span<const float> span() const { return {v_.data(), v_.size()}; }
  std::vector<float>& values() { return v_; }
  const std::vector<float>& values() const { return v_; }

  void fill(float x) { std::fill(v_.begin(), v_.end(), x); }

  /// this += other (element-wise). Sizes must match.
  void add_inplace(const DenseTensor& other);
  /// this += scale * other.
  void axpy_inplace(float scale, const DenseTensor& other);

  /// Number of non-zero elements.
  std::size_t nnz() const;
  /// Fraction of zero elements in [0, 1].
  double sparsity() const;
  /// Euclidean norm.
  double l2_norm() const;

  bool operator==(const DenseTensor& other) const { return v_ == other.v_; }

 private:
  std::vector<float> v_;
};

/// Element-wise sum of `tensors` (serial reference reduction used to verify
/// every collective implementation). All tensors must have equal size.
DenseTensor reference_sum(std::span<const DenseTensor> tensors);

/// Max absolute element-wise difference between two tensors. A NaN on one
/// side only is an infinite difference; NaN on both sides, like equal
/// infinities, is none.
double max_abs_diff(const DenseTensor& a, const DenseTensor& b);

/// L2 norm of the element-wise difference between two tensors.
double l2_diff(const DenseTensor& a, const DenseTensor& b);

}  // namespace omr::tensor
