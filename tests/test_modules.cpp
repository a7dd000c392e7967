#include "nn/modules.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <stdexcept>

namespace {

using namespace graphhd::nn;
using graphhd::hdc::Rng;

/// Central-difference numerical gradient of a scalar loss wrt one parameter
/// entry.
double numerical_gradient(const std::function<double()>& loss, double& entry,
                          double eps = 1e-6) {
  const double saved = entry;
  entry = saved + eps;
  const double plus = loss();
  entry = saved - eps;
  const double minus = loss();
  entry = saved;
  return (plus - minus) / (2.0 * eps);
}

TEST(Linear, ForwardMatchesHandComputation) {
  Rng rng(3);
  Linear layer(2, 2, rng);
  // Overwrite weights for a deterministic check: W = [[1,2],[3,4]], b = [5,6].
  auto params = layer.parameters();
  params[0]->value.at(0, 0) = 1.0;
  params[0]->value.at(0, 1) = 2.0;
  params[0]->value.at(1, 0) = 3.0;
  params[0]->value.at(1, 1) = 4.0;
  params[1]->value.at(0, 0) = 5.0;
  params[1]->value.at(0, 1) = 6.0;
  Matrix x(1, 2);
  x.at(0, 0) = 1.0;
  x.at(0, 1) = -1.0;
  const auto y = layer.forward(x);
  EXPECT_DOUBLE_EQ(y.at(0, 0), 1.0 - 2.0 + 5.0);
  EXPECT_DOUBLE_EQ(y.at(0, 1), 3.0 - 4.0 + 6.0);
}

TEST(Linear, ValidatesShapes) {
  Rng rng(5);
  Linear layer(3, 2, rng);
  EXPECT_THROW((void)layer.forward(Matrix(1, 4)), std::invalid_argument);
  (void)layer.forward(Matrix(2, 3));
  EXPECT_THROW((void)layer.backward(Matrix(2, 5)), std::invalid_argument);
  EXPECT_THROW((void)layer.backward(Matrix(3, 2)), std::invalid_argument);
}

TEST(Linear, GradientsMatchNumerical) {
  Rng rng(7);
  Linear layer(3, 2, rng);
  Matrix x(4, 3);
  Rng data_rng(11);
  for (double& v : x.data()) v = data_rng.next_gaussian();

  // Scalar loss = sum of squares of outputs.
  const auto loss = [&] {
    const auto y = layer.forward(x);
    double total = 0.0;
    for (const double v : y.data()) total += v * v;
    return total;
  };

  // Analytic gradients: dL/dY = 2Y.
  const auto y = layer.forward(x);
  Matrix grad_y(y.rows(), y.cols());
  for (std::size_t i = 0; i < y.data().size(); ++i) grad_y.data()[i] = 2.0 * y.data()[i];
  for (Parameter* p : layer.parameters()) p->zero_grad();
  const auto grad_x = layer.backward(grad_y);

  for (Parameter* p : layer.parameters()) {
    for (std::size_t i = 0; i < p->value.data().size(); ++i) {
      const double expected = numerical_gradient(loss, p->value.data()[i]);
      EXPECT_NEAR(p->grad.data()[i], expected, 1e-4)
          << "parameter entry " << i;
    }
  }
  // Input gradient via numerical check too.
  for (std::size_t i = 0; i < x.data().size(); ++i) {
    const double expected = numerical_gradient(loss, x.data()[i]);
    EXPECT_NEAR(grad_x.data()[i], expected, 1e-4) << "input entry " << i;
  }
}

TEST(Linear, GradientsAccumulateAcrossBackwardCalls) {
  Rng rng(13);
  Linear layer(2, 2, rng);
  Matrix x(1, 2, 1.0);
  Matrix grad(1, 2, 1.0);
  (void)layer.forward(x);
  (void)layer.backward(grad);
  const double after_one = layer.parameters()[0]->grad.at(0, 0);
  (void)layer.forward(x);
  (void)layer.backward(grad);
  EXPECT_DOUBLE_EQ(layer.parameters()[0]->grad.at(0, 0), 2.0 * after_one);
}

TEST(Mlp, GradientsMatchNumerical) {
  Rng rng(17);
  Mlp mlp(2, 5, 3, rng);
  Matrix x(3, 2);
  Rng data_rng(19);
  for (double& v : x.data()) v = data_rng.next_gaussian();

  const auto loss = [&] {
    const auto y = mlp.forward(x);
    double total = 0.0;
    for (const double v : y.data()) total += v * v;
    return total;
  };

  const auto y = mlp.forward(x);
  Matrix grad_y(y.rows(), y.cols());
  for (std::size_t i = 0; i < y.data().size(); ++i) grad_y.data()[i] = 2.0 * y.data()[i];
  for (Parameter* p : mlp.parameters()) p->zero_grad();
  (void)mlp.backward(grad_y);

  for (Parameter* p : mlp.parameters()) {
    for (std::size_t i = 0; i < p->value.data().size(); ++i) {
      const double expected = numerical_gradient(loss, p->value.data()[i]);
      EXPECT_NEAR(p->grad.data()[i], expected, 1e-3);
    }
  }
}

TEST(Mlp, ParameterCount) {
  Rng rng(23);
  Mlp mlp(1, 32, 32, rng);
  // (32x1 + 32) + (32x32 + 32) parameters in 4 tensors.
  EXPECT_EQ(mlp.parameters().size(), 4u);
  std::size_t total = 0;
  for (const Parameter* p : mlp.parameters()) total += p->value.size();
  EXPECT_EQ(total, 32u + 32u + 1024u + 32u);
}

TEST(CrossEntropy, KnownValueForUniformLogits) {
  Matrix logits(1, 4, 0.0);
  Matrix grad;
  const double loss = cross_entropy_with_grad(logits, 2, grad);
  EXPECT_NEAR(loss, std::log(4.0), 1e-12);
  for (std::size_t j = 0; j < 4; ++j) {
    const double expected = 0.25 - (j == 2 ? 1.0 : 0.0);
    EXPECT_NEAR(grad.at(0, j), expected, 1e-12);
  }
}

TEST(CrossEntropy, GradMatchesNumerical) {
  Matrix logits(1, 3);
  logits.at(0, 0) = 0.3;
  logits.at(0, 1) = -1.2;
  logits.at(0, 2) = 2.0;
  Matrix grad;
  (void)cross_entropy_with_grad(logits, 1, grad);
  for (std::size_t j = 0; j < 3; ++j) {
    const auto loss = [&] {
      Matrix g;
      return cross_entropy_with_grad(logits, 1, g);
    };
    const double expected = numerical_gradient(loss, logits.at(0, j));
    EXPECT_NEAR(grad.at(0, j), expected, 1e-5);
  }
}

TEST(CrossEntropy, GradSumsToZero) {
  Matrix logits(1, 5);
  Rng rng(29);
  for (double& v : logits.data()) v = rng.next_gaussian();
  Matrix grad;
  (void)cross_entropy_with_grad(logits, 3, grad);
  double sum = 0.0;
  for (const double g : grad.data()) sum += g;
  EXPECT_NEAR(sum, 0.0, 1e-12);
}

TEST(CrossEntropy, Validates) {
  Matrix grad;
  EXPECT_THROW((void)cross_entropy_with_grad(Matrix(2, 3), 0, grad), std::invalid_argument);
  EXPECT_THROW((void)cross_entropy_with_grad(Matrix(1, 3), 3, grad), std::out_of_range);
}

}  // namespace
