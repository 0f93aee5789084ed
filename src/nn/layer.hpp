// Abstract layer interface for the NN substrate.
//
// The layer zoo matches the paper's Tables I/II exactly: convolutional,
// max pooling, average pooling, dropout, softmax, and cost, plus a
// connected (fully-connected) layer used by the face-recognition model
// of Experiment IV.  Networks are straight-line stacks; the partitioned
// trainer executes index ranges of the stack on either side of the
// enclave boundary.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/kernels.hpp"
#include "nn/tensor.hpp"
#include "nn/workspace.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"

namespace caltrain::nn {

enum class LayerKind : std::uint8_t {
  kConv = 0,
  kMaxPool = 1,
  kAvgPool = 2,
  kDropout = 3,
  kConnected = 4,
  kSoftmax = 5,
  kCost = 6,
};

[[nodiscard]] const char* LayerKindName(LayerKind kind) noexcept;

enum class Activation : std::uint8_t {
  kLinear = 0,
  kLeakyRelu = 1,  ///< slope 0.1 on the negative side (Darknet default)
};

/// SGD hyperparameters applied at weight-update time.
///
/// The dp_* fields implement the DP-SGD drop-in the paper proposes
/// against Model Inversion (Sec. VII): per-update gradient-norm
/// clipping plus Gaussian noise.  (True DP-SGD clips per *example*;
/// this substrate clips the accumulated mini-batch gradient, which
/// exercises the same integration point — epsilon accounting is out of
/// scope.)  dp_rng must be set whenever dp_noise_stddev > 0.
struct SgdConfig {
  float learning_rate = 0.01F;
  float momentum = 0.9F;
  float weight_decay = 5e-4F;
  float dp_clip_norm = 0.0F;     ///< 0 = off; else clip grad L2 norm
  float dp_noise_stddev = 0.0F;  ///< Gaussian noise on clipped gradients
  Rng* dp_rng = nullptr;
};

namespace detail {
/// Clips the concatenated gradient to dp_clip_norm and adds Gaussian
/// noise, per SgdConfig; no-op when DP is off.
void ApplyDpSanitization(const SgdConfig& config,
                         std::vector<float>& weight_grads,
                         std::vector<float>& bias_grads);
}  // namespace detail

/// Per-pass execution context.  `scratch` and `grads` point into the
/// caller's LayerWorkspace slots for the executing layer; layers hold
/// no mutable per-pass state of their own, so a const Layer (and a
/// const Network) is safely shareable across threads as long as each
/// worker brings its own workspace.
struct LayerContext {
  bool training = false;
  Rng* rng = nullptr;                             ///< dropout randomness
  KernelProfile profile = KernelProfile::kFast;   ///< compute path
  const std::vector<int>* labels = nullptr;       ///< for the cost layer
  LayerScratch* scratch = nullptr;  ///< this layer's per-pass scratch
  LayerGrads* grads = nullptr;      ///< this layer's gradient buffers
  /// False lets the *bottom* layer of a backward pass skip computing
  /// delta_in (weight gradients are unaffected).  Training loops set
  /// this false — nothing consumes dL/d(input) there — while the
  /// model-inversion attack keeps the default.  Network::BackwardRange
  /// forces it true for every layer above index 0, whose delta_in is
  /// the chain input of the layer below.
  bool want_input_grad = true;
};

class Layer {
 public:
  virtual ~Layer() = default;

  [[nodiscard]] virtual LayerKind kind() const noexcept = 0;
  [[nodiscard]] virtual std::string Describe() const = 0;

  [[nodiscard]] Shape in_shape() const noexcept { return in_shape_; }
  [[nodiscard]] Shape out_shape() const noexcept { return out_shape_; }

  /// Computes out from in.  `out` is resized by the caller (Network) to
  /// the batch size and this layer's out_shape.  Layers requiring
  /// scratch (conv, maxpool, training-mode dropout, labeled cost)
  /// demand ctx.scratch != nullptr.
  virtual void Forward(const Batch& in, Batch& out,
                       const LayerContext& ctx) const = 0;

  /// Given the forward input/output and dL/d(out), computes
  /// dL/d(in) into delta_in (overwriting it) and accumulates weight
  /// gradients into ctx.grads.  ctx.scratch must be the slot the
  /// matching Forward used (masks/argmax/labels persist there).
  virtual void Backward(const Batch& in, const Batch& out,
                        const Batch& delta_out, Batch& delta_in,
                        const LayerContext& ctx) const = 0;

  /// Pre-sizes this layer's forward scratch for a batch of `batch_n`
  /// samples.  The Network calls this once per batch shape so the hot
  /// Forward loop never reallocates its buffers; backward-only scratch
  /// is grown by Backward on first use, so eval-only forwards never
  /// allocate it.  Default: no scratch.
  virtual void SizeScratch(LayerScratch& scratch, int batch_n) const {
    (void)scratch;
    (void)batch_n;
  }

  /// Applies `grads` (scaled by 1/batch_size) with momentum and weight
  /// decay — after DP sanitization, when configured — then zeroes
  /// them.  No-op for weight-free layers.  Unlike Forward/Backward
  /// this mutates the layer and runs serially, once per step, on the
  /// reduced gradients.
  virtual void Update(const SgdConfig& config, int batch_size,
                      LayerGrads& grads);

  [[nodiscard]] virtual bool HasWeights() const noexcept { return false; }

  /// Gaussian weight initialization (paper Sec. VI-A).
  virtual void InitWeights(Rng& rng);

  /// Weight (de)serialization; no-op for weight-free layers.
  virtual void SerializeWeights(ByteWriter& writer) const;
  virtual void DeserializeWeights(ByteReader& reader);

  /// Per-sample forward FLOPs (used by the enclave cost accounting).
  [[nodiscard]] virtual std::uint64_t ForwardFlopsPerSample() const noexcept {
    return out_shape_.Flat();
  }

  /// Bytes of parameters resident in memory while this layer executes.
  [[nodiscard]] virtual std::size_t WeightBytes() const noexcept { return 0; }

 protected:
  Layer(Shape in, Shape out) : in_shape_(in), out_shape_(out) {}

  Shape in_shape_;
  Shape out_shape_;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace caltrain::nn
