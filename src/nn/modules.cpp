#include "nn/modules.hpp"

#include <cmath>
#include <stdexcept>

namespace graphhd::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng)
    : weight_(Matrix::glorot(out_features, in_features, rng)),
      bias_(Matrix(1, out_features, 0.0)) {}

Matrix Linear::forward(const Matrix& input) {
  if (input.cols() != in_features()) {
    throw std::invalid_argument("Linear::forward: input feature mismatch");
  }
  cached_input_ = input;
  Matrix output = matmul_bt(input, weight_.value);  // n x out
  for (std::size_t i = 0; i < output.rows(); ++i) {
    for (std::size_t j = 0; j < output.cols(); ++j) {
      output.at(i, j) += bias_.value.at(0, j);
    }
  }
  return output;
}

Matrix Linear::backward(const Matrix& grad_output) {
  if (grad_output.rows() != cached_input_.rows() || grad_output.cols() != out_features()) {
    throw std::invalid_argument("Linear::backward: grad shape mismatch");
  }
  // dW = dY^T X, db = column sums of dY, dX = dY W.
  weight_.grad.add_in_place(matmul_at(grad_output, cached_input_));
  bias_.grad.add_in_place(column_sums(grad_output));
  return matmul(grad_output, weight_.value);
}

std::vector<Parameter*> Linear::parameters() { return {&weight_, &bias_}; }

Matrix LeakyReLU::forward(const Matrix& input) {
  cached_input_ = input;
  Matrix output = input;
  for (double& v : output.data()) v = v > 0.0 ? v : slope_ * v;
  return output;
}

Matrix LeakyReLU::backward(const Matrix& grad_output) {
  if (grad_output.rows() != cached_input_.rows() ||
      grad_output.cols() != cached_input_.cols()) {
    throw std::invalid_argument("LeakyReLU::backward: grad shape mismatch");
  }
  Matrix grad_input = grad_output;
  const auto cached = cached_input_.data();
  auto grads = grad_input.data();
  for (std::size_t i = 0; i < grads.size(); ++i) {
    if (cached[i] <= 0.0) grads[i] *= slope_;
  }
  return grad_input;
}

Mlp::Mlp(std::size_t in_features, std::size_t hidden, std::size_t out_features, Rng& rng)
    : first_(in_features, hidden, rng), second_(hidden, out_features, rng) {}

Matrix Mlp::forward(const Matrix& input) {
  return second_.forward(activation_.forward(first_.forward(input)));
}

Matrix Mlp::backward(const Matrix& grad_output) {
  return first_.backward(activation_.backward(second_.backward(grad_output)));
}

std::vector<Parameter*> Mlp::parameters() {
  std::vector<Parameter*> params = first_.parameters();
  const auto second_params = second_.parameters();
  params.insert(params.end(), second_params.begin(), second_params.end());
  return params;
}

double cross_entropy_with_grad(const Matrix& logits, std::size_t label, Matrix& grad_logits) {
  if (logits.rows() != 1) {
    throw std::invalid_argument("cross_entropy_with_grad: expects a 1 x k row");
  }
  if (label >= logits.cols()) {
    throw std::out_of_range("cross_entropy_with_grad: label out of range");
  }
  const auto log_probs = log_softmax_row(logits);
  grad_logits = Matrix(1, logits.cols());
  for (std::size_t j = 0; j < logits.cols(); ++j) {
    const double softmax = std::exp(log_probs[j]);
    grad_logits.at(0, j) = softmax - (j == label ? 1.0 : 0.0);
  }
  return -log_probs[label];
}

}  // namespace graphhd::nn
