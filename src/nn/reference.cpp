// Seed scalar kernels, kept as the parity ground truth for the GEMM paths.
#include "rlattack/nn/reference.hpp"

#include <cmath>
#include <stdexcept>

namespace rlattack::nn::ref {

namespace {
inline float sigmoid(float x) noexcept { return 1.0f / (1.0f + std::exp(-x)); }

std::size_t conv_out_extent(std::size_t in_extent, std::size_t k,
                            std::size_t stride, std::size_t pad) {
  const std::size_t padded = in_extent + 2 * pad;
  if (padded < k)
    throw std::logic_error("ref::conv2d: input smaller than kernel");
  return (padded - k) / stride + 1;
}
}  // namespace

Tensor dense_forward(const Tensor& x, const Tensor& w, const Tensor& b) {
  const std::size_t batch = x.dim(0), in = x.dim(1), out = w.dim(0);
  Tensor y({batch, out});
  const float* wd = w.raw();
  for (std::size_t bi = 0; bi < batch; ++bi) {
    const float* xb = x.raw() + bi * in;
    float* yb = y.raw() + bi * out;
    for (std::size_t o = 0; o < out; ++o) {
      const float* wrow = wd + o * in;
      float acc = b[o];
      for (std::size_t i = 0; i < in; ++i) acc += wrow[i] * xb[i];
      yb[o] = acc;
    }
  }
  return y;
}

Tensor dense_backward(const Tensor& x, const Tensor& w, const Tensor& g,
                      Tensor& gw, Tensor& gb) {
  const std::size_t batch = x.dim(0), in = x.dim(1), out = w.dim(0);
  Tensor grad_input({batch, in});
  const float* wd = w.raw();
  float* gwd = gw.raw();
  for (std::size_t bi = 0; bi < batch; ++bi) {
    const float* gr = g.raw() + bi * out;
    const float* xb = x.raw() + bi * in;
    float* gi = grad_input.raw() + bi * in;
    for (std::size_t o = 0; o < out; ++o) {
      const float go = gr[o];
      gb[o] += go;
      const float* wrow = wd + o * in;
      float* gwrow = gwd + o * in;
      for (std::size_t i = 0; i < in; ++i) {
        gwrow[i] += go * xb[i];
        gi[i] += go * wrow[i];
      }
    }
  }
  return grad_input;
}

Tensor noisy_dense_forward(const Tensor& x, const Tensor& w_mu,
                           const Tensor& w_sigma, const Tensor& b_mu,
                           const Tensor& b_sigma, const Tensor& eps_in,
                           const Tensor& eps_out, bool noisy) {
  const std::size_t batch = x.dim(0), in = x.dim(1), out = w_mu.dim(0);
  Tensor y({batch, out});
  for (std::size_t b = 0; b < batch; ++b) {
    const float* xb = x.raw() + b * in;
    float* yb = y.raw() + b * out;
    for (std::size_t o = 0; o < out; ++o) {
      const float* mu = w_mu.raw() + o * in;
      const float* sg = w_sigma.raw() + o * in;
      float acc = b_mu[o];
      if (noisy) {
        acc += b_sigma[o] * eps_out[o];
        const float eo = eps_out[o];
        for (std::size_t i = 0; i < in; ++i)
          acc += (mu[i] + sg[i] * eps_in[i] * eo) * xb[i];
      } else {
        for (std::size_t i = 0; i < in; ++i) acc += mu[i] * xb[i];
      }
      yb[o] = acc;
    }
  }
  return y;
}

Tensor noisy_dense_backward(const Tensor& x, const Tensor& w_mu,
                            const Tensor& w_sigma, const Tensor& eps_in,
                            const Tensor& eps_out, const Tensor& g,
                            bool noisy, Tensor& gw_mu, Tensor& gw_sigma,
                            Tensor& gb_mu, Tensor& gb_sigma) {
  const std::size_t batch = g.dim(0), in = x.dim(1), out = w_mu.dim(0);
  Tensor grad_input({batch, in});
  for (std::size_t b = 0; b < batch; ++b) {
    const float* gb = g.raw() + b * out;
    const float* xb = x.raw() + b * in;
    float* gi = grad_input.raw() + b * in;
    for (std::size_t o = 0; o < out; ++o) {
      const float go = gb[o];
      const float eo = noisy ? eps_out[o] : 0.0f;
      gb_mu[o] += go;
      if (noisy) gb_sigma[o] += go * eo;
      const float* mu = w_mu.raw() + o * in;
      const float* sg = w_sigma.raw() + o * in;
      float* gmu = gw_mu.raw() + o * in;
      float* gsg = gw_sigma.raw() + o * in;
      for (std::size_t i = 0; i < in; ++i) {
        const float eps = noisy ? eps_in[i] * eo : 0.0f;
        gmu[i] += go * xb[i];
        if (noisy) gsg[i] += go * xb[i] * eps;
        gi[i] += go * (mu[i] + sg[i] * eps);
      }
    }
  }
  return grad_input;
}

Tensor conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                      std::size_t stride, std::size_t pad) {
  const std::size_t batch = x.dim(0), in_c = x.dim(1), h = x.dim(2),
                    width = x.dim(3);
  const std::size_t out_c = w.dim(0), k = w.dim(2);
  const std::size_t oh = conv_out_extent(h, k, stride, pad);
  const std::size_t ow = conv_out_extent(width, k, stride, pad);
  Tensor out({batch, out_c, oh, ow});

  const float* xd = x.raw();
  const float* wt = w.raw();
  float* y = out.raw();
  const auto in_plane = h * width;
  const auto out_plane = oh * ow;
  for (std::size_t bi = 0; bi < batch; ++bi) {
    for (std::size_t oc = 0; oc < out_c; ++oc) {
      float* yplane = y + (bi * out_c + oc) * out_plane;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          float acc = b[oc];
          for (std::size_t ic = 0; ic < in_c; ++ic) {
            const float* xplane = xd + (bi * in_c + ic) * in_plane;
            const float* wrow = wt + ((oc * in_c + ic) * k) * k;
            for (std::size_t ky = 0; ky < k; ++ky) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy * stride + ky) -
                  static_cast<std::ptrdiff_t>(pad);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
              for (std::size_t kx = 0; kx < k; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox * stride + kx) -
                    static_cast<std::ptrdiff_t>(pad);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(width))
                  continue;
                acc += wrow[ky * k + kx] *
                       xplane[static_cast<std::size_t>(iy) * width +
                              static_cast<std::size_t>(ix)];
              }
            }
          }
          yplane[oy * ow + ox] = acc;
        }
      }
    }
  }
  return out;
}

Tensor conv2d_backward(const Tensor& x, const Tensor& w, const Tensor& g,
                       std::size_t stride, std::size_t pad, Tensor& gw,
                       Tensor& gb) {
  const std::size_t batch = x.dim(0), in_c = x.dim(1), h = x.dim(2),
                    width = x.dim(3);
  const std::size_t out_c = w.dim(0), k = w.dim(2);
  const std::size_t oh = conv_out_extent(h, k, stride, pad);
  const std::size_t ow = conv_out_extent(width, k, stride, pad);

  Tensor grad_input({batch, in_c, h, width});
  const float* xd = x.raw();
  const float* wt = w.raw();
  const float* gd = g.raw();
  float* gx = grad_input.raw();
  float* gwd = gw.raw();
  const auto in_plane = h * width;
  const auto out_plane = oh * ow;

  for (std::size_t bi = 0; bi < batch; ++bi) {
    for (std::size_t oc = 0; oc < out_c; ++oc) {
      const float* gplane = gd + (bi * out_c + oc) * out_plane;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const float go = gplane[oy * ow + ox];
          if (go == 0.0f) continue;
          gb[oc] += go;
          for (std::size_t ic = 0; ic < in_c; ++ic) {
            const float* xplane = xd + (bi * in_c + ic) * in_plane;
            float* gxplane = gx + (bi * in_c + ic) * in_plane;
            const std::size_t wbase = ((oc * in_c + ic) * k) * k;
            for (std::size_t ky = 0; ky < k; ++ky) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy * stride + ky) -
                  static_cast<std::ptrdiff_t>(pad);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
              for (std::size_t kx = 0; kx < k; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox * stride + kx) -
                    static_cast<std::ptrdiff_t>(pad);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(width))
                  continue;
                const std::size_t xi = static_cast<std::size_t>(iy) * width +
                                       static_cast<std::size_t>(ix);
                gwd[wbase + ky * k + kx] += go * xplane[xi];
                gxplane[xi] += go * wt[wbase + ky * k + kx];
              }
            }
          }
        }
      }
    }
  }
  return grad_input;
}

LstmRef::LstmRef(Tensor w, Tensor u, Tensor b, bool return_sequences)
    : input_(w.dim(1)),
      hidden_(u.dim(1)),
      return_sequences_(return_sequences),
      w_(std::move(w)),
      u_(std::move(u)),
      b_(std::move(b)) {}

Tensor LstmRef::forward(const Tensor& input) {
  cached_input_ = input;
  const std::size_t batch = input.dim(0), steps = input.dim(1);
  gates_.assign(steps, Tensor({batch, 4 * hidden_}));
  cells_.assign(steps, Tensor({batch, hidden_}));
  tanh_cells_.assign(steps, Tensor({batch, hidden_}));
  hiddens_.assign(steps, Tensor({batch, hidden_}));

  Tensor h_prev({batch, hidden_});
  Tensor c_prev({batch, hidden_});

  const std::size_t h4 = 4 * hidden_;
  for (std::size_t t = 0; t < steps; ++t) {
    Tensor& gates = gates_[t];
    for (std::size_t bi = 0; bi < batch; ++bi) {
      const float* xt = input.raw() + (bi * steps + t) * input_;
      const float* hp = h_prev.raw() + bi * hidden_;
      float* gr = gates.raw() + bi * h4;
      for (std::size_t j = 0; j < h4; ++j) {
        const float* wrow = w_.raw() + j * input_;
        const float* urow = u_.raw() + j * hidden_;
        float acc = b_[j];
        for (std::size_t f = 0; f < input_; ++f) acc += wrow[f] * xt[f];
        for (std::size_t k = 0; k < hidden_; ++k) acc += urow[k] * hp[k];
        gr[j] = acc;
      }
    }
    Tensor& c = cells_[t];
    Tensor& tc = tanh_cells_[t];
    Tensor& h = hiddens_[t];
    for (std::size_t bi = 0; bi < batch; ++bi) {
      float* gr = gates.raw() + bi * h4;
      const float* cp = c_prev.raw() + bi * hidden_;
      float* cr = c.raw() + bi * hidden_;
      float* tcr = tc.raw() + bi * hidden_;
      float* hr = h.raw() + bi * hidden_;
      for (std::size_t k = 0; k < hidden_; ++k) {
        const float ig = sigmoid(gr[k]);
        const float fg = sigmoid(gr[hidden_ + k]);
        const float gg = std::tanh(gr[2 * hidden_ + k]);
        const float og = sigmoid(gr[3 * hidden_ + k]);
        gr[k] = ig;
        gr[hidden_ + k] = fg;
        gr[2 * hidden_ + k] = gg;
        gr[3 * hidden_ + k] = og;
        cr[k] = fg * cp[k] + ig * gg;
        tcr[k] = std::tanh(cr[k]);
        hr[k] = og * tcr[k];
      }
    }
    h_prev = h;
    c_prev = c;
  }

  if (return_sequences_) {
    Tensor out({batch, steps, hidden_});
    for (std::size_t t = 0; t < steps; ++t)
      for (std::size_t bi = 0; bi < batch; ++bi)
        for (std::size_t k = 0; k < hidden_; ++k)
          out.at3(bi, t, k) = hiddens_[t].at2(bi, k);
    return out;
  }
  return hiddens_.back();
}

Tensor LstmRef::backward(const Tensor& grad_output, Tensor& gw, Tensor& gu,
                         Tensor& gb) {
  const std::size_t batch = cached_input_.dim(0),
                    steps = cached_input_.dim(1);
  const std::size_t h4 = 4 * hidden_;

  auto grad_at = [&](std::size_t t, std::size_t bi, std::size_t k) -> float {
    if (return_sequences_) return grad_output.at3(bi, t, k);
    return t + 1 == steps ? grad_output.at2(bi, k) : 0.0f;
  };

  Tensor grad_input({batch, steps, input_});
  Tensor dh_next({batch, hidden_});
  Tensor dc_next({batch, hidden_});
  Tensor dpre({batch, h4});

  for (std::size_t t = steps; t-- > 0;) {
    const Tensor& gates = gates_[t];
    const Tensor& tc = tanh_cells_[t];
    const Tensor* c_prev = t > 0 ? &cells_[t - 1] : nullptr;
    const Tensor* h_prev = t > 0 ? &hiddens_[t - 1] : nullptr;

    for (std::size_t bi = 0; bi < batch; ++bi) {
      const float* gr = gates.raw() + bi * h4;
      const float* tcr = tc.raw() + bi * hidden_;
      float* dpr = dpre.raw() + bi * h4;
      float* dhn = dh_next.raw() + bi * hidden_;
      float* dcn = dc_next.raw() + bi * hidden_;
      for (std::size_t k = 0; k < hidden_; ++k) {
        const float ig = gr[k], fg = gr[hidden_ + k], gg = gr[2 * hidden_ + k],
                    og = gr[3 * hidden_ + k];
        const float dh = grad_at(t, bi, k) + dhn[k];
        const float dc = dcn[k] + dh * og * (1.0f - tcr[k] * tcr[k]);
        const float cp = c_prev ? c_prev->at2(bi, k) : 0.0f;
        dpr[k] = dc * gg * ig * (1.0f - ig);
        dpr[hidden_ + k] = dc * cp * fg * (1.0f - fg);
        dpr[2 * hidden_ + k] = dc * ig * (1.0f - gg * gg);
        dpr[3 * hidden_ + k] = dh * tcr[k] * og * (1.0f - og);
        dcn[k] = dc * fg;
        dhn[k] = 0.0f;
      }
    }

    for (std::size_t bi = 0; bi < batch; ++bi) {
      const float* dpr = dpre.raw() + bi * h4;
      const float* xt = cached_input_.raw() + (bi * steps + t) * input_;
      float* gi = grad_input.raw() + (bi * steps + t) * input_;
      float* dhn = dh_next.raw() + bi * hidden_;
      for (std::size_t j = 0; j < h4; ++j) {
        const float d = dpr[j];
        if (d == 0.0f) continue;
        gb[j] += d;
        float* gwrow = gw.raw() + j * input_;
        const float* wrow = w_.raw() + j * input_;
        for (std::size_t f = 0; f < input_; ++f) {
          gwrow[f] += d * xt[f];
          gi[f] += d * wrow[f];
        }
        float* gurow = gu.raw() + j * hidden_;
        const float* urow = u_.raw() + j * hidden_;
        if (h_prev) {
          const float* hp = h_prev->raw() + bi * hidden_;
          for (std::size_t k = 0; k < hidden_; ++k) {
            gurow[k] += d * hp[k];
            dhn[k] += d * urow[k];
          }
        } else {
          for (std::size_t k = 0; k < hidden_; ++k) dhn[k] += d * urow[k];
        }
      }
    }
  }
  return grad_input;
}

}  // namespace rlattack::nn::ref
