// Layer abstraction: forward caches whatever the matching backward needs;
// backward accumulates parameter gradients and returns the gradient with
// respect to the layer input (essential for FGSM/PGD, which differentiate
// the whole network with respect to the *input observation*).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "rlattack/nn/tensor.hpp"
#include "rlattack/util/rng.hpp"

namespace rlattack::nn {

/// Non-owning view of one parameter tensor and its gradient accumulator.
/// Lifetime: valid as long as the owning layer is alive and not moved.
struct Param {
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  std::string name;  ///< diagnostic name, e.g. "dense0.weight"
};

/// What a forward pass computes in a layer with mode-dependent behaviour.
/// Only NoisyDense has any; every other layer ignores the mode.
enum class Mode {
  /// Noisy weights (mu + sigma * eps): NoisyNet exploration and learning.
  kTraining,
  /// Mean weights on the scalar loop the Rainbow victims were trained with:
  /// the bootstrap targets a Q-learner computes inside a training step, so
  /// trained weights do not depend on the GEMM kernel.
  kBootstrap,
  /// Mean weights on the affine GEMM path: greedy acting and every
  /// attack-time victim query.
  kEvaluation,
};

/// Base class for all differentiable layers.
///
/// Contract: `backward` must be called at most once per `forward`, with a
/// gradient tensor whose shape equals the corresponding forward output.
/// Parameter gradients are *accumulated* (+=) so minibatch loops can sum;
/// callers reset them via `zero_grad()` (usually through the optimizer).
class Layer {
 public:
  virtual ~Layer() = default;
  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Computes the layer output for `input` and caches activations needed by
  /// `backward`.
  virtual Tensor forward(const Tensor& input) = 0;

  /// Propagates `grad_output` (d loss / d output) to the input, accumulating
  /// parameter gradients along the way. Returns d loss / d input.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Views of every learnable parameter (empty for stateless layers).
  virtual std::vector<Param> params() { return {}; }

  /// Human-readable layer name for diagnostics.
  virtual std::string name() const = 0;

  /// Switches between training, bootstrap-target and evaluation behaviour
  /// (see Mode). Only layers with mode-dependent behaviour (NoisyDense) and
  /// containers override this.
  virtual void set_mode(Mode mode) { (void)mode; }

  /// Re-randomises any internal noise (NoisyDense). No-op by default.
  virtual void resample_noise(util::Rng& rng) { (void)rng; }

  /// Zeroes all parameter gradients.
  void zero_grad() {
    for (Param& p : params()) p.grad->zero();
  }
};

using LayerPtr = std::unique_ptr<Layer>;

/// Copies parameter values from `src` into `dst`. Both must expose the same
/// number of parameters with identical shapes (i.e. be built by the same
/// factory). Used for DQN target-network sync.
void copy_parameters(Layer& dst, Layer& src);

/// Same over explicit parameter sets (multi-input models such as the
/// seq2seq approximator, whose parameters span several Sequentials). Used
/// by the clone() methods behind episode-parallel experiment execution.
void copy_parameters(const std::vector<Param>& dst,
                     const std::vector<Param>& src);

/// Polyak/soft update: dst <- (1 - tau) * dst + tau * src.
void soft_update_parameters(Layer& dst, Layer& src, float tau);

/// Total learnable scalar count.
std::size_t parameter_count(Layer& layer);

}  // namespace rlattack::nn
