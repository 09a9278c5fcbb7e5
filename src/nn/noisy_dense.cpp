#include "rlattack/nn/noisy_dense.hpp"

#include <cmath>
#include <stdexcept>

#include "affine.hpp"

namespace rlattack::nn {

NoisyDense::NoisyDense(std::size_t in_features, std::size_t out_features,
                       util::Rng& rng, float sigma0)
    : in_(in_features),
      out_(out_features),
      w_mu_({out_features, in_features}),
      w_sigma_({out_features, in_features}),
      b_mu_({out_features}),
      b_sigma_({out_features}),
      gw_mu_({out_features, in_features}),
      gw_sigma_({out_features, in_features}),
      gb_mu_({out_features}),
      gb_sigma_({out_features}),
      eps_in_({in_features}),
      eps_out_({out_features}) {
  if (in_ == 0 || out_ == 0)
    throw std::logic_error("NoisyDense: zero-sized feature dimension");
  const float bound = 1.0f / std::sqrt(static_cast<float>(in_));
  for (float& x : w_mu_.data()) x = rng.uniform_f(-bound, bound);
  for (float& x : b_mu_.data()) x = rng.uniform_f(-bound, bound);
  const float sigma_init = sigma0 / std::sqrt(static_cast<float>(in_));
  w_sigma_.fill(sigma_init);
  b_sigma_.fill(sigma_init);
  resample_noise(rng);
}

float NoisyDense::shape_noise(float x) noexcept {
  return (x >= 0.0f ? 1.0f : -1.0f) * std::sqrt(std::abs(x));
}

void NoisyDense::resample_noise(util::Rng& rng) {
  for (float& e : eps_in_.data()) e = shape_noise(rng.normal_f(0.0f, 1.0f));
  for (float& e : eps_out_.data()) e = shape_noise(rng.normal_f(0.0f, 1.0f));
}

Tensor NoisyDense::forward(const Tensor& input) {
  input_was_rank1_ = input.rank() == 1;
  Tensor x = input_was_rank1_ ? input.reshaped({1, input.size()}) : input;
  if (x.rank() != 2 || x.dim(1) != in_)
    throw std::logic_error("NoisyDense::forward: expected [B, " +
                           std::to_string(in_) + "], got " +
                           input.shape_string());
  cached_input_ = x;
  if (mode_ == Mode::kEvaluation) {
    affine_forward(x, w_mu_, b_mu_, out_buf_);
    if (input_was_rank1_) return out_buf_.reshaped({out_});
    return out_buf_;
  }
  const bool noisy = mode_ == Mode::kTraining;
  const std::size_t batch = x.dim(0);
  Tensor y({batch, out_});
  for (std::size_t b = 0; b < batch; ++b) {
    const float* xb = x.raw() + b * in_;
    float* yb = y.raw() + b * out_;
    for (std::size_t o = 0; o < out_; ++o) {
      const float* mu = w_mu_.raw() + o * in_;
      const float* sg = w_sigma_.raw() + o * in_;
      float acc = b_mu_[o];
      if (noisy) {
        acc += b_sigma_[o] * eps_out_[o];
        const float eo = eps_out_[o];
        for (std::size_t i = 0; i < in_; ++i)
          acc += (mu[i] + sg[i] * eps_in_[i] * eo) * xb[i];
      } else {
        for (std::size_t i = 0; i < in_; ++i) acc += mu[i] * xb[i];
      }
      yb[o] = acc;
    }
  }
  if (input_was_rank1_) return y.reshaped({out_});
  return y;
}

Tensor NoisyDense::backward(const Tensor& grad_output) {
  Tensor g = grad_output.rank() == 1
                 ? grad_output.reshaped({1, grad_output.size()})
                 : grad_output;
  if (g.rank() != 2 || g.dim(1) != out_ || g.dim(0) != cached_input_.dim(0))
    throw std::logic_error("NoisyDense::backward: gradient shape mismatch");
  if (mode_ == Mode::kEvaluation) {
    Tensor grad_input =
        affine_backward(cached_input_, w_mu_, g, gw_mu_, gb_mu_);
    if (input_was_rank1_) return grad_input.reshaped({in_});
    return grad_input;
  }
  const bool noisy = mode_ == Mode::kTraining;
  const std::size_t batch = g.dim(0);
  Tensor grad_input({batch, in_});
  for (std::size_t b = 0; b < batch; ++b) {
    const float* gb = g.raw() + b * out_;
    const float* xb = cached_input_.raw() + b * in_;
    float* gi = grad_input.raw() + b * in_;
    for (std::size_t o = 0; o < out_; ++o) {
      const float go = gb[o];
      const float eo = noisy ? eps_out_[o] : 0.0f;
      gb_mu_[o] += go;
      if (noisy) gb_sigma_[o] += go * eo;
      const float* mu = w_mu_.raw() + o * in_;
      const float* sg = w_sigma_.raw() + o * in_;
      float* gmu = gw_mu_.raw() + o * in_;
      float* gsg = gw_sigma_.raw() + o * in_;
      for (std::size_t i = 0; i < in_; ++i) {
        const float eps = noisy ? eps_in_[i] * eo : 0.0f;
        gmu[i] += go * xb[i];
        if (noisy) gsg[i] += go * xb[i] * eps;
        gi[i] += go * (mu[i] + sg[i] * eps);
      }
    }
  }
  if (input_was_rank1_) return grad_input.reshaped({in_});
  return grad_input;
}

std::vector<Param> NoisyDense::params() {
  return {{&w_mu_, &gw_mu_, "noisy.w_mu"},
          {&w_sigma_, &gw_sigma_, "noisy.w_sigma"},
          {&b_mu_, &gb_mu_, "noisy.b_mu"},
          {&b_sigma_, &gb_sigma_, "noisy.b_sigma"}};
}

}  // namespace rlattack::nn
