#include "rlattack/nn/dense.hpp"

#include <stdexcept>

#include "affine.hpp"
#include "rlattack/nn/init.hpp"
#include "rlattack/nn/kernels/gemm.hpp"

namespace rlattack::nn {

void affine_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                    Tensor& out) {
  const std::size_t batch = x.dim(0), in = x.dim(1), features = w.dim(0);
  // Grow-only storage, reshaped in place: episode-batched inference changes
  // the batch extent at nearly every flush, and reallocating per call would
  // churn the allocator. Every element is overwritten below.
  if (out.rank() != 2 || out.dim(0) != batch || out.dim(1) != features)
    out.resize({batch, features});
  // y = bias (broadcast per row), then y += x W^T in one GEMM.
  kernels::broadcast_bias_rows(batch, features, b.raw(), out.raw(), features);
  kernels::sgemm(kernels::Trans::kNo, kernels::Trans::kYes, batch, features,
                 in, x.raw(), in, w.raw(), in, out.raw(), features,
                 /*accumulate=*/true);
}

Tensor affine_backward(const Tensor& x, const Tensor& w, const Tensor& g,
                       Tensor& gw, Tensor& gb) {
  const std::size_t batch = g.dim(0), in = x.dim(1), features = w.dim(0);
  Tensor grad_input({batch, in});
  // dx = g W
  kernels::sgemm(kernels::Trans::kNo, kernels::Trans::kNo, batch, in,
                 features, g.raw(), features, w.raw(), in, grad_input.raw(),
                 in, /*accumulate=*/false);
  // dW += g^T x
  kernels::sgemm(kernels::Trans::kYes, kernels::Trans::kNo, features, in,
                 batch, g.raw(), features, x.raw(), in, gw.raw(), in,
                 /*accumulate=*/true);
  // db += column sums of g
  kernels::col_sums_accumulate(batch, features, g.raw(), features, gb.raw());
  return grad_input;
}

Dense::Dense(std::size_t in_features, std::size_t out_features, util::Rng& rng,
             bool relu_fan_in)
    : in_(in_features),
      out_(out_features),
      weight_({out_features, in_features}),
      bias_({out_features}),
      grad_weight_({out_features, in_features}),
      grad_bias_({out_features}) {
  if (in_ == 0 || out_ == 0)
    throw std::logic_error("Dense: zero-sized feature dimension");
  if (relu_fan_in)
    he_uniform(weight_, in_, rng);
  else
    xavier_uniform(weight_, in_, out_, rng);
}

Tensor Dense::forward(const Tensor& input) {
  input_was_rank1_ = input.rank() == 1;
  Tensor x = input_was_rank1_ ? input.reshaped({1, input.size()}) : input;
  if (x.rank() != 2 || x.dim(1) != in_)
    throw std::logic_error("Dense::forward: expected [B, " +
                           std::to_string(in_) + "], got " +
                           input.shape_string());
  cached_input_ = x;
  affine_forward(x, weight_, bias_, out_buf_);
  if (input_was_rank1_) return out_buf_.reshaped({out_});
  return out_buf_;
}

Tensor Dense::backward(const Tensor& grad_output) {
  Tensor g = grad_output.rank() == 1
                 ? grad_output.reshaped({1, grad_output.size()})
                 : grad_output;
  if (g.rank() != 2 || g.dim(1) != out_ ||
      g.dim(0) != cached_input_.dim(0))
    throw std::logic_error("Dense::backward: gradient shape mismatch " +
                           grad_output.shape_string());
  Tensor grad_input =
      affine_backward(cached_input_, weight_, g, grad_weight_, grad_bias_);
  if (input_was_rank1_) return grad_input.reshaped({in_});
  return grad_input;
}

std::vector<Param> Dense::params() {
  return {{&weight_, &grad_weight_, "dense.weight"},
          {&bias_, &grad_bias_, "dense.bias"}};
}

}  // namespace rlattack::nn
