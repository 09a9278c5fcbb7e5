// NoisyNet linear layer (Fortunato et al. 2018) with factorised Gaussian
// noise; one of Rainbow's components. In training mode the effective weight
// is mu + sigma * eps; in evaluation mode only mu is used, which matches the
// paper's assumption that victim agents run with exploration turned off.
//
// Mode::kEvaluation (acting, attack queries) is exactly a Dense over
// (w_mu, b_mu) and runs on the same affine GEMM path (affine_forward /
// affine_backward). The two modes a training step uses keep the scalar
// loops: kTraining (noisy weights) and kBootstrap (mean weights, for the
// Q-learning targets). Both enter the trained weights, so the Rainbow
// victims, and every result row that depends on them, stay bit-identical
// to the checkpoints the zoo already trained; the GEMM kernel rounds
// differently (fused multiply-add, blocked accumulation).
#pragma once

#include "rlattack/nn/layer.hpp"

namespace rlattack::nn {

class NoisyDense final : public Layer {
 public:
  NoisyDense(std::size_t in_features, std::size_t out_features,
             util::Rng& rng, float sigma0 = 0.5f);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param> params() override;
  std::string name() const override { return "NoisyDense"; }
  void set_mode(Mode mode) override { mode_ = mode; }
  void resample_noise(util::Rng& rng) override;

  /// The factorised noise vectors of the last resample_noise ([in], [out]),
  /// for the reference parity tests.
  const Tensor& noise_in() const noexcept { return eps_in_; }
  const Tensor& noise_out() const noexcept { return eps_out_; }

 private:
  /// Factorised noise shaping function f(x) = sign(x) * sqrt(|x|).
  static float shape_noise(float x) noexcept;

  std::size_t in_, out_;
  Tensor w_mu_, w_sigma_;  // [out, in]
  Tensor b_mu_, b_sigma_;  // [out]
  Tensor gw_mu_, gw_sigma_, gb_mu_, gb_sigma_;
  Tensor eps_in_;   // [in]
  Tensor eps_out_;  // [out]
  Tensor cached_input_;
  Tensor out_buf_;  // [B, out], reused across kEvaluation forward calls
  Mode mode_ = Mode::kTraining;
  bool input_was_rank1_ = false;
};

}  // namespace rlattack::nn
