// The Luong "general" attention stages of the attention decoder
// (Seq2SeqConfig::use_attention), each formulated as batched GEMMs over
// row-major [B, ., .] tensors. Seq2SeqModel composes them on the full,
// cached and batched paths; they hold no state of their own.
//
// Shapes: B batch rows, n history steps, m output steps, E embedding width,
// H encoder width. Every stage treats batch rows independently and the
// GEMM kernels fix each row's K-accumulation order, so row b of a result
// depends on row b of the inputs alone. The scalar loop twins these stages
// replaced live in tests/attention_reference.hpp and pin them bit for bit
// under the scalar GEMM kernel.
#pragma once

#include <vector>

#include "rlattack/nn/tensor.hpp"

namespace rlattack::seq2seq::attention {

/// Keys K[b, i, :] = W_a E[b, i, :]. encoder [B, n, H], w [E, H] ->
/// keys [B, n, E].
nn::Tensor project_keys(const nn::Tensor& encoder, const nn::Tensor& w);

/// Scores s[t, i] = D_t . K_i, softmaxed over i into `alpha` [B, m, n]
/// (reallocated), and contexts c_t = sum_i alpha[t, i] E_i. decoder
/// [B, m, E], encoder [B, n, H], keys [B, n, E]. Returns the output-layer
/// input rows [D_t ; c_t] as [B, m, E + H].
nn::Tensor attend(const nn::Tensor& decoder, const nn::Tensor& encoder,
                  const nn::Tensor& keys, nn::Tensor& alpha);

/// Backward of attend(): d loss / d decoder states [B, m, E] from the
/// concat gradient [B, m, E + H]. `decoder` and `alpha` are attend()'s
/// input and output. Non-null `grad_encoder` [B, n, H] / `grad_keys`
/// [B, n, E] accumulate (+=) the history-facing gradients; nullptr skips
/// that branch (the truncated craft backward). `scratch` is reused across
/// calls to hold the [m, n] score gradients.
nn::Tensor mix_backward(const nn::Tensor& grad_concat,
                        const nn::Tensor& decoder, const nn::Tensor& alpha,
                        const nn::Tensor& encoder, const nn::Tensor& keys,
                        nn::Tensor* grad_encoder, nn::Tensor* grad_keys,
                        std::vector<float>& scratch);

/// Backward of project_keys(): accumulates w_grad [E, H] += gk^T E and
/// grad_encoder [B, n, H] += gk W_a over the flattened [B*n, .] views.
void weight_backward(const nn::Tensor& grad_keys, const nn::Tensor& encoder,
                     const nn::Tensor& w, nn::Tensor& w_grad,
                     nn::Tensor& grad_encoder);

}  // namespace rlattack::seq2seq::attention
