#include "rlattack/rl/networks.hpp"

#include <stdexcept>

#include "rlattack/nn/activations.hpp"
#include "rlattack/nn/conv2d.hpp"
#include "rlattack/nn/dense.hpp"
#include "rlattack/nn/noisy_dense.hpp"

namespace rlattack::rl {

nn::LayerPtr make_mlp_net(std::size_t in, std::size_t out, std::size_t hidden,
                          util::Rng& rng) {
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Dense>(in, hidden, rng, /*relu_fan_in=*/true)
      .emplace<nn::ReLU>()
      .emplace<nn::Dense>(hidden, hidden, rng, /*relu_fan_in=*/true)
      .emplace<nn::ReLU>()
      .emplace<nn::Dense>(hidden, out, rng);
  return net;
}

namespace {

/// Appends the shared conv feature extractor and returns its output width.
std::size_t append_conv_trunk(nn::Sequential& net,
                              const std::vector<std::size_t>& chw,
                              util::Rng& rng) {
  if (chw.size() != 3)
    throw std::logic_error("make_conv_net: expected [C, H, W] shape");
  const std::size_t c = chw[0], h = chw[1], w = chw[2];
  auto conv1 = std::make_unique<nn::Conv2D>(c, 8, 3, 2, 1, rng);
  const std::size_t h1 = conv1->out_extent(h), w1 = conv1->out_extent(w);
  auto conv2 = std::make_unique<nn::Conv2D>(8, 16, 3, 2, 1, rng);
  const std::size_t h2 = conv2->out_extent(h1), w2 = conv2->out_extent(w1);
  net.add(std::move(conv1));
  net.emplace<nn::ReLU>();
  net.add(std::move(conv2));
  net.emplace<nn::ReLU>();
  net.emplace<nn::Flatten>();
  return 16 * h2 * w2;
}

}  // namespace

nn::LayerPtr make_conv_net(const std::vector<std::size_t>& chw,
                           std::size_t out, std::size_t hidden,
                           util::Rng& rng) {
  auto net = std::make_unique<nn::Sequential>();
  const std::size_t flat = append_conv_trunk(*net, chw, rng);
  net->emplace<nn::Dense>(flat, hidden, rng, /*relu_fan_in=*/true)
      .emplace<nn::ReLU>()
      .emplace<nn::Dense>(hidden, out, rng);
  return net;
}

nn::LayerPtr make_net(const ObsSpec& obs, std::size_t out, std::size_t hidden,
                      util::Rng& rng) {
  if (obs.is_image()) return make_conv_net(obs.shape, out, hidden, rng);
  return make_mlp_net(obs.flat_size(), out, hidden, rng);
}

DuelingHead::DuelingHead(std::size_t in_features, std::size_t actions,
                         std::size_t hidden, bool noisy, util::Rng& rng,
                         float noisy_sigma0)
    : actions_(actions) {
  if (actions_ == 0) throw std::logic_error("DuelingHead: zero actions");
  auto add_stream = [&](nn::Sequential& stream, std::size_t out) {
    if (noisy) {
      stream.emplace<nn::NoisyDense>(in_features, hidden, rng, noisy_sigma0)
          .emplace<nn::ReLU>()
          .emplace<nn::NoisyDense>(hidden, out, rng, noisy_sigma0);
    } else {
      stream.emplace<nn::Dense>(in_features, hidden, rng, true)
          .emplace<nn::ReLU>()
          .emplace<nn::Dense>(hidden, out, rng);
    }
  };
  add_stream(value_stream_, 1);
  add_stream(advantage_stream_, actions_);
}

nn::Tensor DuelingHead::forward(const nn::Tensor& input) {
  nn::Tensor value = value_stream_.forward(input);          // [B, 1]
  nn::Tensor advantage = advantage_stream_.forward(input);  // [B, A]
  const std::size_t batch = advantage.dim(0);
  nn::Tensor q({batch, actions_});
  for (std::size_t b = 0; b < batch; ++b) {
    float mean_adv = 0.0f;
    for (std::size_t a = 0; a < actions_; ++a)
      mean_adv += advantage.at2(b, a);
    mean_adv /= static_cast<float>(actions_);
    for (std::size_t a = 0; a < actions_; ++a)
      q.at2(b, a) = value.at2(b, 0) + advantage.at2(b, a) - mean_adv;
  }
  return q;
}

nn::Tensor DuelingHead::backward(const nn::Tensor& grad_output) {
  const std::size_t batch = grad_output.dim(0);
  if (grad_output.rank() != 2 || grad_output.dim(1) != actions_)
    throw std::logic_error("DuelingHead::backward: gradient shape mismatch");
  // dQ/dV = 1 for all actions; dQ/dA_j = delta_aj - 1/A.
  nn::Tensor grad_value({batch, std::size_t{1}});
  nn::Tensor grad_advantage({batch, actions_});
  for (std::size_t b = 0; b < batch; ++b) {
    float sum = 0.0f;
    for (std::size_t a = 0; a < actions_; ++a) sum += grad_output.at2(b, a);
    grad_value.at2(b, 0) = sum;
    const float mean = sum / static_cast<float>(actions_);
    for (std::size_t a = 0; a < actions_; ++a)
      grad_advantage.at2(b, a) = grad_output.at2(b, a) - mean;
  }
  nn::Tensor gi = value_stream_.backward(grad_value);
  gi += advantage_stream_.backward(grad_advantage);
  return gi;
}

std::vector<nn::Param> DuelingHead::params() {
  std::vector<nn::Param> out;
  for (nn::Param p : value_stream_.params()) {
    p.name = "dueling.value." + p.name;
    out.push_back(p);
  }
  for (nn::Param p : advantage_stream_.params()) {
    p.name = "dueling.advantage." + p.name;
    out.push_back(p);
  }
  return out;
}

void DuelingHead::set_mode(nn::Mode mode) {
  value_stream_.set_mode(mode);
  advantage_stream_.set_mode(mode);
}

void DuelingHead::resample_noise(util::Rng& rng) {
  value_stream_.resample_noise(rng);
  advantage_stream_.resample_noise(rng);
}

nn::LayerPtr make_rainbow_net(const ObsSpec& obs, std::size_t actions,
                              std::size_t hidden, bool noisy, util::Rng& rng,
                              float noisy_sigma0) {
  auto net = std::make_unique<nn::Sequential>();
  std::size_t feature_width;
  if (obs.is_image()) {
    feature_width = append_conv_trunk(*net, obs.shape, rng);
  } else {
    const std::size_t in = obs.flat_size();
    net->emplace<nn::Dense>(in, hidden, rng, true).emplace<nn::ReLU>();
    feature_width = hidden;
  }
  net->emplace<DuelingHead>(feature_width, actions, hidden, noisy, rng,
                            noisy_sigma0);
  return net;
}

}  // namespace rlattack::rl
