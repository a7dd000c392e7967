/// \file modules.hpp
/// Neural network modules with explicit (manual) backpropagation.
///
/// Each module caches whatever its backward pass needs during forward().
/// Contract: backward(grad_out) must follow the matching forward(x) on the
/// same module instance; gradients *accumulate* into Parameter::grad until
/// zero_grad() — exactly the PyTorch convention, which makes mini-batch
/// accumulation over the graphs of a batch trivial.

#pragma once

#include <cstddef>
#include <vector>

#include "nn/tensor.hpp"

namespace graphhd::nn {

/// A trainable tensor with its gradient accumulator.
struct Parameter {
  Matrix value;
  Matrix grad;

  explicit Parameter(Matrix initial)
      : value(std::move(initial)), grad(value.rows(), value.cols()) {}

  void zero_grad() noexcept { grad.fill(0.0); }
};

/// Fully connected layer: Y = X W^T + b (X: n x in, W: out x in, b: 1 x out).
class Linear {
 public:
  Linear(std::size_t in_features, std::size_t out_features, Rng& rng);

  [[nodiscard]] std::size_t in_features() const noexcept { return weight_.value.cols(); }
  [[nodiscard]] std::size_t out_features() const noexcept { return weight_.value.rows(); }

  [[nodiscard]] Matrix forward(const Matrix& input);
  /// Returns grad wrt input; accumulates dW, db.
  [[nodiscard]] Matrix backward(const Matrix& grad_output);

  [[nodiscard]] std::vector<Parameter*> parameters();

 private:
  Parameter weight_;
  Parameter bias_;
  Matrix cached_input_;
};

/// Element-wise leaky rectified linear unit: x if x > 0, else slope * x.
///
/// The reference GIN uses batch normalization inside its MLPs; without it a
/// plain ReLU MLP on un-normalized degree-derived inputs is prone to
/// dead-unit collapse under Adam at lr 0.01.  The leaky slope keeps
/// gradients flowing — the standard batch-norm-free remedy, used here in
/// place of the reference model's batch normalization.
class LeakyReLU {
 public:
  explicit LeakyReLU(double slope = 0.1) : slope_(slope) {}

  [[nodiscard]] Matrix forward(const Matrix& input);
  [[nodiscard]] Matrix backward(const Matrix& grad_output);

 private:
  double slope_;
  Matrix cached_input_;
};

/// Two-layer perceptron Linear-LeakyReLU-Linear — the MLP inside a GIN layer
/// (Xu et al., ICLR 2019 use MLPs with one hidden layer).
class Mlp {
 public:
  Mlp(std::size_t in_features, std::size_t hidden, std::size_t out_features, Rng& rng);

  [[nodiscard]] Matrix forward(const Matrix& input);
  [[nodiscard]] Matrix backward(const Matrix& grad_output);
  [[nodiscard]] std::vector<Parameter*> parameters();

 private:
  Linear first_;
  LeakyReLU activation_;
  Linear second_;
};

/// Cross-entropy loss on a single 1 x k logit row.  Returns the loss and
/// writes d(loss)/d(logits) (softmax - onehot) into `grad_logits`.
[[nodiscard]] double cross_entropy_with_grad(const Matrix& logits, std::size_t label,
                                             Matrix& grad_logits);

}  // namespace graphhd::nn
