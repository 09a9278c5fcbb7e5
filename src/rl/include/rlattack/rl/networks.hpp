// Network builders for the RL agents, plus the dueling head used by
// Rainbow. Architectures are deliberately small: observations in this
// reproduction are 16x16 rasters or 4-float states (see DESIGN.md
// substitutions), so compact networks train in CPU-scale budgets while
// exercising the same conv/dense/backprop code paths as the paper's
// 84x84 setups.
#pragma once

#include <vector>

#include "rlattack/nn/sequential.hpp"

namespace rlattack::rl {

/// Shape of agent-side observations: either a flat vector (CartPole) or a
/// stacked image [C, H, W].
struct ObsSpec {
  std::vector<std::size_t> shape;
  bool is_image() const noexcept { return shape.size() == 3; }
  std::size_t flat_size() const noexcept {
    std::size_t n = 1;
    for (std::size_t d : shape) n *= d;
    return n;
  }
};

/// MLP value/policy trunk for vector observations:
/// Dense(h) ReLU Dense(h) ReLU Dense(out).
nn::LayerPtr make_mlp_net(std::size_t in, std::size_t out, std::size_t hidden,
                          util::Rng& rng);

/// Conv trunk for [C, H, W] observations:
/// Conv(8, k3, s2, p1) ReLU Conv(16, k3, s2, p1) ReLU Flatten
/// Dense(hidden) ReLU Dense(out).
nn::LayerPtr make_conv_net(const std::vector<std::size_t>& chw,
                           std::size_t out, std::size_t hidden,
                           util::Rng& rng);

/// Builds the standard Q/policy network for an observation spec: MLP for
/// vectors, conv net for images. `out` is the number of outputs (actions,
/// or actions + 1 for A2C's fused policy/value head).
nn::LayerPtr make_net(const ObsSpec& obs, std::size_t out, std::size_t hidden,
                      util::Rng& rng);

/// Dueling architecture head (Wang et al. 2016), a Rainbow component:
/// splits a feature vector into value and advantage streams and recombines
/// Q(s, a) = V(s) + A(s, a) - mean_a A(s, a).
/// When `noisy` is true the streams use NoisyDense layers (NoisyNet
/// exploration), otherwise plain Dense.
class DuelingHead final : public nn::Layer {
 public:
  DuelingHead(std::size_t in_features, std::size_t actions,
              std::size_t hidden, bool noisy, util::Rng& rng,
              float noisy_sigma0 = 0.5f);

  nn::Tensor forward(const nn::Tensor& input) override;
  nn::Tensor backward(const nn::Tensor& grad_output) override;
  std::vector<nn::Param> params() override;
  std::string name() const override { return "DuelingHead"; }
  void set_mode(nn::Mode mode) override;
  void resample_noise(util::Rng& rng) override;

 private:
  std::size_t actions_;
  nn::Sequential value_stream_;      // in -> hidden -> 1
  nn::Sequential advantage_stream_;  // in -> hidden -> actions
};

/// Rainbow network: shared trunk (conv or MLP feature extractor) followed by
/// a dueling, optionally noisy, head.
nn::LayerPtr make_rainbow_net(const ObsSpec& obs, std::size_t actions,
                              std::size_t hidden, bool noisy, util::Rng& rng,
                              float noisy_sigma0 = 0.5f);

}  // namespace rlattack::rl
