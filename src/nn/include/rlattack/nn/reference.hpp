// Naive scalar reference implementations of the GEMM-backed hot layers.
//
// These are the seed's original loop-nest kernels, retained verbatim as the
// ground truth the optimised Dense/Conv2D/Lstm/NoisyDense paths are
// parity-tested against (tests/kernels_test.cpp asserts agreement to 1e-4 at
// every RLATTACK_THREADS setting, and bit-for-bit agreement for NoisyDense's
// training and bootstrap modes, which stay scalar). Not used by any
// production code path.
#pragma once

#include "rlattack/nn/tensor.hpp"

namespace rlattack::nn::ref {

/// y = x W^T + b. x: [B, in], w: [out, in], b: [out] -> [B, out].
Tensor dense_forward(const Tensor& x, const Tensor& w, const Tensor& b);

/// Returns d loss / d x and accumulates (+=) into gw / gb.
/// g: [B, out] upstream gradient.
Tensor dense_backward(const Tensor& x, const Tensor& w, const Tensor& g,
                      Tensor& gw, Tensor& gb);

/// NoisyDense's scalar loops (factorised noise: the effective weight is
/// w_mu + w_sigma * (eps_out eps_in^T), the effective bias b_mu + b_sigma *
/// eps_out; only the means when !noisy). x: [B, in], w_*: [out, in],
/// b_*: [out], eps_in: [in], eps_out: [out] -> [B, out].
Tensor noisy_dense_forward(const Tensor& x, const Tensor& w_mu,
                           const Tensor& w_sigma, const Tensor& b_mu,
                           const Tensor& b_sigma, const Tensor& eps_in,
                           const Tensor& eps_out, bool noisy);

/// Returns d loss / d x and accumulates (+=) into the four gradients; the
/// sigma gradients are left untouched when !noisy.
Tensor noisy_dense_backward(const Tensor& x, const Tensor& w_mu,
                            const Tensor& w_sigma, const Tensor& eps_in,
                            const Tensor& eps_out, const Tensor& g,
                            bool noisy, Tensor& gw_mu, Tensor& gw_sigma,
                            Tensor& gb_mu, Tensor& gb_sigma);

/// Direct convolution. x: [B, C, H, W], w: [OC, C, k, k], b: [OC].
Tensor conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                      std::size_t stride, std::size_t pad);

/// Returns d loss / d x and accumulates (+=) into gw / gb.
Tensor conv2d_backward(const Tensor& x, const Tensor& w, const Tensor& g,
                       std::size_t stride, std::size_t pad, Tensor& gw,
                       Tensor& gb);

/// Scalar LSTM with BPTT (gate order: input, forget, cell, output — the
/// same layout as nn::Lstm). Holds parameter copies plus forward caches.
class LstmRef {
 public:
  /// w: [4H, F], u: [4H, H], b: [4H].
  LstmRef(Tensor w, Tensor u, Tensor b, bool return_sequences);

  /// x: [B, T, F] -> [B, T, H] or [B, H] depending on return_sequences.
  Tensor forward(const Tensor& x);

  /// Must follow a forward call. Accumulates (+=) into gw / gu / gb and
  /// returns d loss / d x.
  Tensor backward(const Tensor& grad_output, Tensor& gw, Tensor& gu,
                  Tensor& gb);

 private:
  std::size_t input_;
  std::size_t hidden_;
  bool return_sequences_;
  Tensor w_, u_, b_;
  Tensor cached_input_;
  std::vector<Tensor> gates_, cells_, tanh_cells_, hiddens_;
};

}  // namespace rlattack::nn::ref
