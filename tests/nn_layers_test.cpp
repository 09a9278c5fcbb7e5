// Forward-value and gradient checks for all feedforward layers.
#include <gtest/gtest.h>

#include "gradcheck.hpp"
#include "rlattack/nn/activations.hpp"
#include "rlattack/nn/conv2d.hpp"
#include "rlattack/nn/dense.hpp"
#include "rlattack/nn/noisy_dense.hpp"
#include "rlattack/nn/sequential.hpp"

namespace rlattack::nn {
namespace {

using rlattack::testing::check_input_gradient;
using rlattack::testing::check_param_gradients;
using rlattack::testing::random_tensor;

TEST(Dense, ForwardKnownValues) {
  util::Rng rng(1);
  Dense d(2, 1, rng);
  // Overwrite parameters deterministically: y = 2*x0 - x1 + 0.5.
  auto params = d.params();
  (*params[0].value)[0] = 2.0f;
  (*params[0].value)[1] = -1.0f;
  (*params[1].value)[0] = 0.5f;
  Tensor x({1, 2}, {3.0f, 4.0f});
  Tensor y = d.forward(x);
  EXPECT_FLOAT_EQ(y[0], 2.0f * 3.0f - 4.0f + 0.5f);
}

TEST(Dense, Rank1InputRoundTrips) {
  util::Rng rng(1);
  Dense d(3, 2, rng);
  Tensor x({3}, {1, 2, 3});
  Tensor y = d.forward(x);
  EXPECT_EQ(y.rank(), 1u);
  EXPECT_EQ(y.size(), 2u);
  Tensor g = d.backward(random_tensor({2}, rng));
  EXPECT_EQ(g.rank(), 1u);
  EXPECT_EQ(g.size(), 3u);
}

TEST(Dense, RejectsWrongWidth) {
  util::Rng rng(1);
  Dense d(3, 2, rng);
  EXPECT_THROW(d.forward(Tensor({1, 4})), std::logic_error);
}

TEST(Dense, ZeroSizeThrows) {
  util::Rng rng(1);
  EXPECT_THROW(Dense(0, 2, rng), std::logic_error);
  EXPECT_THROW(Dense(2, 0, rng), std::logic_error);
}

struct DenseShape {
  std::size_t batch, in, out;
};

class DenseGradCheck : public ::testing::TestWithParam<DenseShape> {};

TEST_P(DenseGradCheck, InputAndParamGradients) {
  const auto [batch, in, out] = GetParam();
  util::Rng rng(13);
  Dense d(in, out, rng);
  Tensor x = random_tensor({batch, in}, rng);
  check_input_gradient(d, x, rng);
  check_param_gradients(d, x, rng);
}

INSTANTIATE_TEST_SUITE_P(Shapes, DenseGradCheck,
                         ::testing::Values(DenseShape{1, 3, 2},
                                           DenseShape{4, 5, 7},
                                           DenseShape{2, 1, 1},
                                           DenseShape{3, 8, 4}));

TEST(ReLU, ForwardClampsNegative) {
  ReLU r;
  Tensor x({4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  Tensor y = r.forward(x);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
}

TEST(ReLU, BackwardMasks) {
  ReLU r;
  Tensor x({2}, {-1.0f, 1.0f});
  r.forward(x);
  Tensor g = r.backward(Tensor({2}, {5.0f, 5.0f}));
  EXPECT_FLOAT_EQ(g[0], 0.0f);
  EXPECT_FLOAT_EQ(g[1], 5.0f);
}

TEST(Tanh, GradCheck) {
  util::Rng rng(5);
  Tanh t;
  Tensor x = random_tensor({3, 4}, rng);
  check_input_gradient(t, x, rng);
}

TEST(Sigmoid, GradCheck) {
  util::Rng rng(5);
  Sigmoid s;
  Tensor x = random_tensor({3, 4}, rng);
  check_input_gradient(s, x, rng);
}

TEST(Sigmoid, ForwardRange) {
  Sigmoid s;
  Tensor x({3}, {-100.0f, 0.0f, 100.0f});
  Tensor y = s.forward(x);
  EXPECT_NEAR(y[0], 0.0f, 1e-6);
  EXPECT_FLOAT_EQ(y[1], 0.5f);
  EXPECT_NEAR(y[2], 1.0f, 1e-6);
}

TEST(Conv2D, OutputGeometry) {
  util::Rng rng(2);
  Conv2D c(1, 4, 3, 2, 1, rng);
  EXPECT_EQ(c.out_extent(16), 8u);
  EXPECT_EQ(c.out_extent(4), 2u);
  Conv2D nopad(1, 1, 3, 1, 0, rng);
  EXPECT_EQ(nopad.out_extent(5), 3u);
  EXPECT_THROW(nopad.out_extent(2), std::logic_error);
}

TEST(Conv2D, IdentityKernelPassesThrough) {
  util::Rng rng(2);
  Conv2D c(1, 1, 1, 1, 0, rng);  // 1x1 kernel
  auto params = c.params();
  (*params[0].value)[0] = 1.0f;  // weight = 1
  params[1].value->zero();       // bias = 0
  Tensor x = random_tensor({1, 1, 3, 3}, rng);
  Tensor y = c.forward(x);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

struct ConvShape {
  std::size_t batch, in_c, out_c, hw, k, stride, pad;
};

class ConvGradCheck : public ::testing::TestWithParam<ConvShape> {};

TEST_P(ConvGradCheck, InputAndParamGradients) {
  const auto p = GetParam();
  util::Rng rng(17);
  Conv2D c(p.in_c, p.out_c, p.k, p.stride, p.pad, rng);
  Tensor x = random_tensor({p.batch, p.in_c, p.hw, p.hw}, rng);
  check_input_gradient(c, x, rng);
  check_param_gradients(c, x, rng);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ConvGradCheck,
                         ::testing::Values(ConvShape{1, 1, 2, 5, 3, 1, 0},
                                           ConvShape{2, 2, 3, 6, 3, 2, 1},
                                           ConvShape{1, 3, 1, 4, 2, 2, 0},
                                           ConvShape{2, 1, 4, 8, 3, 2, 1}));

TEST(MaxPool2D, ForwardPicksMax) {
  MaxPool2D pool(2, 2);
  Tensor x({1, 1, 2, 2}, {1.0f, 5.0f, 3.0f, 2.0f});
  Tensor y = pool.forward(x);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
}

TEST(MaxPool2D, BackwardRoutesToArgmax) {
  MaxPool2D pool(2, 2);
  Tensor x({1, 1, 2, 2}, {1.0f, 5.0f, 3.0f, 2.0f});
  pool.forward(x);
  Tensor g = pool.backward(Tensor({1, 1, 1, 1}, {7.0f}));
  EXPECT_FLOAT_EQ(g[1], 7.0f);
  EXPECT_FLOAT_EQ(g[0], 0.0f);
}

TEST(MaxPool2D, GradCheck) {
  util::Rng rng(23);
  MaxPool2D pool(2, 2);
  // Well-separated values + a small FD step keep the argmax stable across
  // the +/- eps probes (max is non-differentiable at ties).
  Tensor x = random_tensor({2, 2, 4, 4}, rng, 8.0f);
  check_input_gradient(pool, x, rng, 2e-2, 1e-3f);
}

TEST(Flatten, RoundTrip) {
  Flatten f;
  util::Rng rng(3);
  Tensor x = random_tensor({2, 3, 4}, rng);
  Tensor y = f.forward(x);
  EXPECT_EQ(y.rank(), 2u);
  EXPECT_EQ(y.dim(1), 12u);
  Tensor g = f.backward(y);
  EXPECT_TRUE(g.same_shape(x));
}

TEST(Reshape, RoundTrip) {
  Reshape r({2, 3});
  util::Rng rng(3);
  Tensor x = random_tensor({4, 6}, rng);
  Tensor y = r.forward(x);
  EXPECT_EQ(y.rank(), 3u);
  EXPECT_EQ(y.dim(1), 2u);
  Tensor g = r.backward(y);
  EXPECT_TRUE(g.same_shape(x));
}

TEST(Sequential, ChainsForwardAndBackward) {
  util::Rng rng(7);
  Sequential net;
  net.emplace<Dense>(4, 8, rng).emplace<ReLU>().emplace<Dense>(8, 2, rng);
  Tensor x = random_tensor({3, 4}, rng);
  check_input_gradient(net, x, rng);
  check_param_gradients(net, x, rng);
}

TEST(Sequential, ParamsAreNamedAndComplete) {
  util::Rng rng(7);
  Sequential net;
  net.emplace<Dense>(4, 8, rng).emplace<ReLU>().emplace<Dense>(8, 2, rng);
  auto params = net.params();
  ASSERT_EQ(params.size(), 4u);  // two Dense layers, weight + bias each
  EXPECT_NE(params[0].name.find("layer0"), std::string::npos);
  EXPECT_NE(params[2].name.find("layer2"), std::string::npos);
}

TEST(Sequential, NullLayerThrows) {
  Sequential net;
  EXPECT_THROW(net.add(nullptr), std::logic_error);
}

TEST(TimeDistributed, AppliesPerStep) {
  util::Rng rng(9);
  auto inner = std::make_unique<Sequential>();
  inner->emplace<Dense>(3, 2, rng);
  TimeDistributed td(std::move(inner), {3});
  Tensor x = random_tensor({2, 4, 3}, rng);
  Tensor y = td.forward(x);
  EXPECT_EQ(y.dim(0), 2u);
  EXPECT_EQ(y.dim(1), 4u);
  EXPECT_EQ(y.dim(2), 2u);
  check_input_gradient(td, x, rng);
  check_param_gradients(td, x, rng);
}

TEST(TimeDistributed, ConvInnerOnFrameSequence) {
  util::Rng rng(9);
  auto inner = std::make_unique<Sequential>();
  inner->emplace<Conv2D>(1, 2, 3, 2, 1, rng).emplace<Flatten>();
  TimeDistributed td(std::move(inner), {1, 4, 4});
  Tensor x = random_tensor({2, 3, 16}, rng);  // flattened 4x4 frames
  Tensor y = td.forward(x);
  EXPECT_EQ(y.dim(0), 2u);
  EXPECT_EQ(y.dim(1), 3u);
  EXPECT_EQ(y.dim(2), 2u * 2u * 2u);
  check_input_gradient(td, x, rng);
}

TEST(NoisyDense, EvalModeIsDeterministic) {
  util::Rng rng(31);
  NoisyDense nd(3, 2, rng);
  nd.set_mode(Mode::kEvaluation);
  Tensor x = random_tensor({1, 3}, rng);
  Tensor y1 = nd.forward(x);
  nd.resample_noise(rng);
  Tensor y2 = nd.forward(x);
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_FLOAT_EQ(y1[i], y2[i]);
}

TEST(NoisyDense, TrainingModeNoiseChangesOutput) {
  util::Rng rng(31);
  NoisyDense nd(6, 4, rng);
  nd.set_mode(Mode::kTraining);
  Tensor x = random_tensor({1, 6}, rng);
  Tensor y1 = nd.forward(x);
  nd.resample_noise(rng);
  Tensor y2 = nd.forward(x);
  bool differs = false;
  for (std::size_t i = 0; i < y1.size(); ++i)
    if (y1[i] != y2[i]) differs = true;
  EXPECT_TRUE(differs);
}

TEST(NoisyDense, GradCheckTrainingMode) {
  util::Rng rng(31);
  NoisyDense nd(4, 3, rng);
  nd.set_mode(Mode::kTraining);
  Tensor x = random_tensor({2, 4}, rng);
  check_input_gradient(nd, x, rng);
  check_param_gradients(nd, x, rng);
}

TEST(NoisyDense, GradCheckEvalMode) {
  util::Rng rng(32);
  NoisyDense nd(4, 3, rng);
  nd.set_mode(Mode::kEvaluation);
  Tensor x = random_tensor({2, 4}, rng);
  check_input_gradient(nd, x, rng);
}

TEST(CopyParameters, SynchronisesNetworks) {
  util::Rng rng1(1), rng2(2);
  Dense a(3, 2, rng1), b(3, 2, rng2);
  copy_parameters(b, a);
  Tensor x = rlattack::testing::random_tensor({1, 3}, rng1);
  Tensor ya = a.forward(x), yb = b.forward(x);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_FLOAT_EQ(ya[i], yb[i]);
}

TEST(CopyParameters, ShapeMismatchThrows) {
  util::Rng rng(1);
  Dense a(3, 2, rng), b(2, 3, rng);
  EXPECT_THROW(copy_parameters(b, a), std::logic_error);
}

TEST(SoftUpdate, InterpolatesParameters) {
  util::Rng rng(1);
  Dense a(2, 1, rng), b(2, 1, rng);
  auto pa = a.params(), pb = b.params();
  pa[0].value->fill(1.0f);
  pb[0].value->fill(0.0f);
  pa[1].value->fill(1.0f);
  pb[1].value->fill(0.0f);
  soft_update_parameters(b, a, 0.25f);
  EXPECT_FLOAT_EQ((*pb[0].value)[0], 0.25f);
}

TEST(ParameterCount, CountsAllScalars) {
  util::Rng rng(1);
  Dense d(3, 2, rng);
  EXPECT_EQ(parameter_count(d), 3u * 2u + 2u);
}

}  // namespace
}  // namespace rlattack::nn
