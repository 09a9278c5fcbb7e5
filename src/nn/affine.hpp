// The affine map shared by Dense and evaluation-mode NoisyDense (internal to
// the nn library; defined in dense.cpp).
#pragma once

#include "rlattack/nn/tensor.hpp"

namespace rlattack::nn {

/// The one affine path of the nn layers: out = x W^T + b, with x: [B, in],
/// w: [out, in], b: [out]. The bias is broadcast into `out`, then one
/// kernels::sgemm accumulates x W^T, so each output row depends only on its
/// input row (for a given SIMD kernel, bit-identical at any batch size and
/// pool size). `out` is resized in place (grow-only capacity) when it is not
/// already [B, out], so a layer can keep it as a reusable buffer.
void affine_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                    Tensor& out);

/// Backward of affine_forward for upstream gradient g: [B, out]. Returns
/// dx = g W and accumulates (+=) dW += g^T x into gw and the column sums of g
/// into gb.
Tensor affine_backward(const Tensor& x, const Tensor& w, const Tensor& g,
                       Tensor& gw, Tensor& gb);

}  // namespace rlattack::nn
