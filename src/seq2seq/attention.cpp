#include "rlattack/seq2seq/attention.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "rlattack/nn/kernels/gemm.hpp"

namespace rlattack::seq2seq::attention {

using nn::kernels::sgemm;
using nn::kernels::Trans;

nn::Tensor project_keys(const nn::Tensor& encoder, const nn::Tensor& w) {
  const std::size_t b_count = encoder.dim(0);
  const std::size_t n = encoder.dim(1);
  const std::size_t e = w.dim(0);
  const std::size_t h = w.dim(1);
  nn::Tensor keys({b_count, n, e});
  // One GEMM over the flattened [B*n, H] encoder states: K = E W_a^T.
  sgemm(Trans::kNo, Trans::kYes, b_count * n, e, h, encoder.raw(), h,
        w.raw(), h, keys.raw(), e, false);
  return keys;
}

nn::Tensor attend(const nn::Tensor& decoder, const nn::Tensor& encoder,
                  const nn::Tensor& keys, nn::Tensor& alpha) {
  const std::size_t b_count = decoder.dim(0);
  const std::size_t m = decoder.dim(1);
  const std::size_t e = decoder.dim(2);
  const std::size_t n = encoder.dim(1);
  const std::size_t h = encoder.dim(2);
  const std::size_t eh = e + h;
  alpha = nn::Tensor({b_count, m, n});
  nn::Tensor concat({b_count, m, eh});
  for (std::size_t b = 0; b < b_count; ++b) {
    const float* dec_b = decoder.raw() + b * m * e;
    const float* enc_b = encoder.raw() + b * n * h;
    const float* key_b = keys.raw() + b * n * e;
    float* alpha_b = alpha.raw() + b * m * n;
    float* concat_b = concat.raw() + b * m * eh;
    // scores[t, i] = D_t . K_i, written straight into the alpha tensor and
    // softmaxed in place per row.
    sgemm(Trans::kNo, Trans::kYes, m, n, e, dec_b, e, key_b, e, alpha_b, n,
          false);
    for (std::size_t t = 0; t < m; ++t) {
      float* row = alpha_b + t * n;
      float mx = -std::numeric_limits<float>::infinity();
      for (std::size_t i = 0; i < n; ++i) mx = std::max(mx, row[i]);
      float sum = 0.0f;
      for (std::size_t i = 0; i < n; ++i) {
        row[i] = std::exp(row[i] - mx);
        sum += row[i];
      }
      for (std::size_t i = 0; i < n; ++i) row[i] /= sum;
      // Concat left half: the decoder state itself.
      std::memcpy(concat_b + t * eh, dec_b + t * e, e * sizeof(float));
    }
    // Contexts c_t = sum_i alpha_i E_i fill the right h columns of the
    // concat rows (ldc = e + h places them after each D_t).
    sgemm(Trans::kNo, Trans::kNo, m, h, n, alpha_b, n, enc_b, h,
          concat_b + e, eh, false);
  }
  return concat;
}

nn::Tensor mix_backward(const nn::Tensor& grad_concat,
                        const nn::Tensor& decoder, const nn::Tensor& alpha,
                        const nn::Tensor& encoder, const nn::Tensor& keys,
                        nn::Tensor* grad_encoder, nn::Tensor* grad_keys,
                        std::vector<float>& scratch) {
  const std::size_t b_count = grad_concat.dim(0);
  const std::size_t m = decoder.dim(1);
  const std::size_t e = decoder.dim(2);
  const std::size_t n = encoder.dim(1);
  const std::size_t h = encoder.dim(2);
  const std::size_t eh = e + h;

  nn::Tensor grad_decoder({b_count, m, e});
  scratch.resize(m * n);
  float* const dalpha = scratch.data();
  for (std::size_t b = 0; b < b_count; ++b) {
    const float* gz_b = grad_concat.raw() + b * m * eh;
    const float* gc_b = gz_b + e;  // context-grad columns, lda = e + h
    const float* enc_b = encoder.raw() + b * n * h;
    const float* key_b = keys.raw() + b * n * e;
    const float* dec_b = decoder.raw() + b * m * e;
    const float* alpha_b = alpha.raw() + b * m * n;
    float* gd_b = grad_decoder.raw() + b * m * e;
    // Direct decoder-state gradient: the left e columns of the concat grad.
    for (std::size_t t = 0; t < m; ++t)
      std::memcpy(gd_b + t * e, gz_b + t * eh, e * sizeof(float));
    // dalpha[t, i] = gc_t . E_i — strided view straight onto the context
    // columns, no copy of the concat gradient.
    sgemm(Trans::kNo, Trans::kYes, m, n, h, gc_b, eh, enc_b, h, dalpha, n,
          false);
    if (grad_encoder != nullptr)  // context sum: ge += alpha^T gc
      sgemm(Trans::kYes, Trans::kNo, n, h, m, alpha_b, n, gc_b, eh,
            grad_encoder->raw() + b * n * h, h, true);
    // Softmax backward in place: ds_i = alpha_i (dalpha_i - sum_j alpha_j
    // dalpha_j); the dalpha buffer holds ds afterwards.
    for (std::size_t t = 0; t < m; ++t) {
      const float* ar = alpha_b + t * n;
      float* dr = dalpha + t * n;
      float weighted = 0.0f;
      for (std::size_t i = 0; i < n; ++i) weighted += ar[i] * dr[i];
      for (std::size_t i = 0; i < n; ++i) dr[i] = ar[i] * (dr[i] - weighted);
    }
    // score = D_t . K_i backward: gd += ds K, gk += ds^T D.
    sgemm(Trans::kNo, Trans::kNo, m, e, n, dalpha, n, key_b, e, gd_b, e,
          true);
    if (grad_keys != nullptr)
      sgemm(Trans::kYes, Trans::kNo, n, e, m, dalpha, n, dec_b, e,
            grad_keys->raw() + b * n * e, e, true);
  }
  return grad_decoder;
}

void weight_backward(const nn::Tensor& grad_keys, const nn::Tensor& encoder,
                     const nn::Tensor& w, nn::Tensor& w_grad,
                     nn::Tensor& grad_encoder) {
  const std::size_t rows = encoder.dim(0) * encoder.dim(1);  // B * n
  const std::size_t e = w.dim(0);
  const std::size_t h = w.dim(1);
  // dW_a += gk^T E and ge += gk W_a over the flattened [B*n, .] views.
  sgemm(Trans::kYes, Trans::kNo, e, h, rows, grad_keys.raw(), e,
        encoder.raw(), h, w_grad.raw(), h, true);
  sgemm(Trans::kNo, Trans::kNo, rows, h, e, grad_keys.raw(), e, w.raw(), h,
        grad_encoder.raw(), h, true);
}

}  // namespace rlattack::seq2seq::attention
