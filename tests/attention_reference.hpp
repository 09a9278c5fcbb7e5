// Scalar reference twins of the GEMM attention stages in
// rlattack/seq2seq/attention.hpp: the original per-(b, t) loop nests of the
// attention decoder, kept as the ground truth the GEMM formulations are
// parity-tested against (tests/seq2seq_test.cpp, Seq2SeqAttentionGemm).
// They use the GEMM accumulation trees — a fresh per-element accumulator
// over the contraction, then one add into the destination, no skip on
// exact-zero terms — so under the scalar GEMM kernel both agree bit for
// bit, also when an accumulating destination already holds gradient.
// Test-only, like nn::ref is for the hot nn layers.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "rlattack/nn/tensor.hpp"

namespace rlattack::seq2seq::ref {

/// Keys K[b, i, :] = W_a E[b, i, :].
inline nn::Tensor project_keys(const nn::Tensor& encoder,
                               const nn::Tensor& w) {
  const std::size_t b_count = encoder.dim(0);
  const std::size_t n = encoder.dim(1);
  const std::size_t e = w.dim(0);
  const std::size_t h = w.dim(1);
  nn::Tensor keys({b_count, n, e});
  for (std::size_t b = 0; b < b_count; ++b)
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t k = 0; k < e; ++k) {
        float acc = 0.0f;
        for (std::size_t hh = 0; hh < h; ++hh)
          acc += w[k * h + hh] * encoder.at3(b, i, hh);
        keys.at3(b, i, k) = acc;
      }
  return keys;
}

/// Scores, softmax and contexts: fills `alpha` [B, m, n] and returns the
/// [D_t ; c_t] rows [B, m, E + H].
inline nn::Tensor attend(const nn::Tensor& decoder, const nn::Tensor& encoder,
                         const nn::Tensor& keys, nn::Tensor& alpha) {
  const std::size_t b_count = decoder.dim(0);
  const std::size_t m = decoder.dim(1);
  const std::size_t e = decoder.dim(2);
  const std::size_t n = encoder.dim(1);
  const std::size_t h = encoder.dim(2);
  alpha = nn::Tensor({b_count, m, n});
  nn::Tensor concat({b_count, m, e + h});
  std::vector<float> scores(n);
  for (std::size_t b = 0; b < b_count; ++b) {
    for (std::size_t t = 0; t < m; ++t) {
      // scores_i = D_t . K_i, softmaxed over i.
      float mx = -std::numeric_limits<float>::infinity();
      for (std::size_t i = 0; i < n; ++i) {
        float s = 0.0f;
        for (std::size_t k = 0; k < e; ++k)
          s += decoder.at3(b, t, k) * keys.at3(b, i, k);
        scores[i] = s;
        mx = std::max(mx, s);
      }
      float sum = 0.0f;
      for (std::size_t i = 0; i < n; ++i) {
        scores[i] = std::exp(scores[i] - mx);
        sum += scores[i];
      }
      for (std::size_t i = 0; i < n; ++i)
        alpha.at3(b, t, i) = scores[i] / sum;
      // Context c_t = sum_i alpha_i E_i; output row = [D_t ; c_t].
      for (std::size_t k = 0; k < e; ++k)
        concat[(b * m + t) * (e + h) + k] = decoder.at3(b, t, k);
      for (std::size_t hh = 0; hh < h; ++hh) {
        float c = 0.0f;
        for (std::size_t i = 0; i < n; ++i)
          c += alpha.at3(b, t, i) * encoder.at3(b, i, hh);
        concat[(b * m + t) * (e + h) + e + hh] = c;
      }
    }
  }
  return concat;
}

/// Backward of attend(): returns d loss / d decoder states; non-null
/// `grad_encoder` / `grad_keys` accumulate (+=) the history-facing grads,
/// summed over the output steps in fresh accumulators first.
inline nn::Tensor mix_backward(const nn::Tensor& grad_concat,
                               const nn::Tensor& decoder,
                               const nn::Tensor& alpha,
                               const nn::Tensor& encoder,
                               const nn::Tensor& keys,
                               nn::Tensor* grad_encoder,
                               nn::Tensor* grad_keys) {
  const std::size_t b_count = grad_concat.dim(0);
  const std::size_t m = decoder.dim(1);
  const std::size_t e = decoder.dim(2);
  const std::size_t n = encoder.dim(1);
  const std::size_t h = encoder.dim(2);
  const std::size_t eh = e + h;

  nn::Tensor grad_decoder({b_count, m, e});
  nn::Tensor ge_acc({b_count, n, h});
  nn::Tensor gk_acc({b_count, n, e});
  std::vector<float> dalpha(n);
  for (std::size_t b = 0; b < b_count; ++b) {
    for (std::size_t t = 0; t < m; ++t) {
      const float* gz = grad_concat.raw() + (b * m + t) * eh;
      // Direct decoder-state gradient from the concat split.
      for (std::size_t k = 0; k < e; ++k) grad_decoder.at3(b, t, k) = gz[k];
      const float* gc = gz + e;  // d loss / d context [H]

      // d alpha_i = gc . E_i ; encoder grad from the context sum (only
      // needed when the history branch is being propagated).
      for (std::size_t i = 0; i < n; ++i) {
        float da = 0.0f;
        const float a = alpha.at3(b, t, i);
        for (std::size_t hh = 0; hh < h; ++hh) {
          da += gc[hh] * encoder.at3(b, i, hh);
          if (grad_encoder != nullptr) ge_acc.at3(b, i, hh) += a * gc[hh];
        }
        dalpha[i] = da;
      }
      // Softmax backward: ds_i = alpha_i (dalpha_i - sum_j alpha_j dalpha_j).
      float weighted = 0.0f;
      for (std::size_t i = 0; i < n; ++i)
        weighted += alpha.at3(b, t, i) * dalpha[i];
      for (std::size_t i = 0; i < n; ++i)
        dalpha[i] = alpha.at3(b, t, i) * (dalpha[i] - weighted);
      // score = D_t . K_i backward.
      for (std::size_t k = 0; k < e; ++k) {
        float acc = 0.0f;
        for (std::size_t i = 0; i < n; ++i)
          acc += dalpha[i] * keys.at3(b, i, k);
        grad_decoder.at3(b, t, k) += acc;
      }
      if (grad_keys != nullptr)
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t k = 0; k < e; ++k)
            gk_acc.at3(b, i, k) += dalpha[i] * decoder.at3(b, t, k);
    }
  }
  if (grad_encoder != nullptr) *grad_encoder += ge_acc;
  if (grad_keys != nullptr) *grad_keys += gk_acc;
  return grad_decoder;
}

/// Backward of project_keys(): w_grad += gk^T E, grad_encoder += gk W_a.
inline void weight_backward(const nn::Tensor& grad_keys,
                            const nn::Tensor& encoder, const nn::Tensor& w,
                            nn::Tensor& w_grad, nn::Tensor& grad_encoder) {
  const std::size_t b_count = encoder.dim(0);
  const std::size_t n = encoder.dim(1);
  const std::size_t e = w.dim(0);
  const std::size_t h = w.dim(1);
  for (std::size_t k = 0; k < e; ++k)
    for (std::size_t hh = 0; hh < h; ++hh) {
      float acc = 0.0f;
      for (std::size_t b = 0; b < b_count; ++b)
        for (std::size_t i = 0; i < n; ++i)
          acc += grad_keys.at3(b, i, k) * encoder.at3(b, i, hh);
      w_grad[k * h + hh] += acc;
    }
  for (std::size_t b = 0; b < b_count; ++b)
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t hh = 0; hh < h; ++hh) {
        float acc = 0.0f;
        for (std::size_t k = 0; k < e; ++k)
          acc += grad_keys.at3(b, i, k) * w[k * h + hh];
        grad_encoder.at3(b, i, hh) += acc;
      }
}

}  // namespace rlattack::seq2seq::ref
