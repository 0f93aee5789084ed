// Network: a straight-line stack of layers built from a declarative
// NetworkSpec.
//
// Execution is exposed as *ranges* of layer indices — ForwardRange /
// BackwardRange / UpdateRange — because CalTrain's partitioned training
// (paper Sec. IV-B) runs the FrontNet range inside the enclave and the
// BackNet range outside, shuttling intermediate representations and
// deltas across the boundary.  The convenience Predict/Embedding helpers
// run the whole stack.
//
// A const Network is its spec plus its weights: every pass names the
// LayerWorkspace that holds its activations, deltas and scratch (the
// helpers use one local to the call), so one const Network is
// shareable across workers, each with its own workspace.  The only
// workspaces a Network owns are TrainStep's per-shard buffers, which
// that non-const method alone touches.
// TrainStep is the deterministic data-parallel SGD step: the batch is
// decomposed into fixed-size shards (never a function of the thread
// count), each shard runs forward/backward in its own workspace with
// its own derived RNG stream, and gradients are reduced in shard order
// — so the result is bit-identical at any thread count.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "nn/tensor.hpp"
#include "nn/workspace.hpp"

namespace caltrain::nn {

/// Declarative description of one layer.
struct LayerSpec {
  LayerKind kind = LayerKind::kConv;
  int filters = 0;        ///< conv
  int ksize = 0;          ///< conv / maxpool
  int stride = 0;         ///< conv / maxpool
  Activation activation = Activation::kLeakyRelu;  ///< conv / connected
  float dropout_p = 0.0F; ///< dropout
  int outputs = 0;        ///< connected
};

/// Declarative description of a whole network.
struct NetworkSpec {
  Shape input;
  std::vector<LayerSpec> layers;

  void Serialize(ByteWriter& writer) const;
  [[nodiscard]] static NetworkSpec Deserialize(ByteReader& reader);
};

class Network {
 public:
  explicit Network(const NetworkSpec& spec);

  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  /// Gaussian-initializes every weighted layer.
  void InitWeights(Rng& rng);

  [[nodiscard]] int NumLayers() const noexcept {
    return static_cast<int>(layers_.size());
  }
  [[nodiscard]] const Layer& layer(int i) const { return *layers_.at(i); }
  [[nodiscard]] Layer& layer(int i) { return *layers_.at(i); }
  [[nodiscard]] Shape input_shape() const noexcept { return spec_.input; }
  [[nodiscard]] const NetworkSpec& spec() const noexcept { return spec_; }

  /// Number of classes = channel count of the softmax layer.
  [[nodiscard]] int NumClasses() const;

  /// Index of the layer whose output is the fingerprint embedding: the
  /// last layer before softmax (the "penultimate layer" of Sec. IV-C).
  [[nodiscard]] int PenultimateIndex() const;

  /// Index of the first softmax layer, or -1.
  [[nodiscard]] int SoftmaxIndex() const noexcept;

  // --- range execution ------------------------------------------------
  /// Runs layers [from, to) into `ws`.  `input` must be provided when
  /// from == 0 and is ignored otherwise (the stored activation of layer
  /// from-1 in `ws` is used, which needs a prior forward in `ws`).
  /// Activations are cached for Backward.  Passing `&ws.input` as
  /// `input` is allowed (no self-copy).
  void ForwardRange(const Batch* input, int from, int to,
                    const LayerContext& ctx, LayerWorkspace& ws) const;

  /// Runs layers [from, to) backwards (i.e. to-1 down to from) in `ws`.
  /// The forward pass for the same batch must have happened already;
  /// weight gradients accumulate into ws.grads.
  void BackwardRange(int from, int to, const LayerContext& ctx,
                     LayerWorkspace& ws) const;

  /// Applies `grads` (reduced across workers) for layers [from, to),
  /// zeroing them.  Serial; mutates the weights.
  void UpdateRange(int from, int to, const SgdConfig& config, int batch_size,
                   GradientAccumulator& grads);

  // --- convenience ----------------------------------------------------
  /// One deterministic data-parallel SGD step on a labeled batch (full
  /// stack, single profile): fixed-size shards, per-shard workspaces
  /// and RNG streams, fixed-order gradient reduction.  Bit-identical at
  /// any thread count.  Returns the mean cross-entropy loss.
  float TrainStep(const Batch& input, const std::vector<int>& labels,
                  const SgdConfig& config, Rng& rng,
                  KernelProfile profile = KernelProfile::kFast);

  /// Frees the per-shard TrainStep workspaces (activation/delta/grad
  /// buffers sized for the largest batch seen).  Call when training is
  /// finished and the network will only serve inference.
  void ReleaseTrainingWorkspaces() noexcept;

  /// Class probabilities for a batch (eval mode).
  [[nodiscard]] std::vector<std::vector<float>> Predict(
      const Batch& input, KernelProfile profile = KernelProfile::kFast) const;

  /// Same, forwarding through the caller's `ws` (chunked evaluation
  /// loops hold one workspace).  Bit-identical to the overload above.
  [[nodiscard]] std::vector<std::vector<float>> Predict(
      const Batch& input, KernelProfile profile, LayerWorkspace& ws) const;

  /// Probabilities for a single image.
  [[nodiscard]] std::vector<float> PredictOne(
      const Image& image, KernelProfile profile = KernelProfile::kFast) const;

  /// Same, forwarding through the caller's `ws`: per-image loops hold
  /// one workspace instead of allocating one per call.  Bit-identical
  /// to the overload above (a batch of one either way).
  [[nodiscard]] std::vector<float> PredictOne(const Image& image,
                                              KernelProfile profile,
                                              LayerWorkspace& ws) const;

  /// Raw (unnormalized) penultimate-layer embedding for one image.
  [[nodiscard]] std::vector<float> EmbeddingOf(
      const Image& image, KernelProfile profile = KernelProfile::kFast) const;

  /// Raw embedding taken at an arbitrary layer's output: eval-mode
  /// forward into `ws` (the replica-free fingerprint stage runs many
  /// workers against one shared network this way).
  [[nodiscard]] std::vector<float> EmbeddingAtLayer(
      const Image& image, int layer, KernelProfile profile,
      LayerWorkspace& ws) const;

  /// Activations of every layer for one image (the IRs of Sec. IV-B's
  /// assessment framework).  Entry i is the output of layer i.
  [[nodiscard]] std::vector<std::vector<float>> AllActivations(
      const Image& image, KernelProfile profile = KernelProfile::kFast) const;

  /// Mean cross-entropy loss recorded by the cost layer on the most
  /// recent labeled forward pass through `ws`.
  [[nodiscard]] float LossOf(const LayerWorkspace& ws) const;

  /// Index of the cost layer, or -1.
  [[nodiscard]] int CostIndex() const noexcept;

  // --- persistence -----------------------------------------------------
  /// Serializes spec + all weights.
  [[nodiscard]] Bytes SerializeModel() const;
  [[nodiscard]] static Network DeserializeModel(BytesView blob);

  /// Serializes the weights of layers [from, to) only (used to release
  /// the encrypted FrontNet separately, Sec. IV-B).
  [[nodiscard]] Bytes SerializeWeightRange(int from, int to) const;
  void DeserializeWeightRange(int from, int to, BytesView blob);

  /// Human-readable architecture table (mirrors the paper's Tables I/II).
  [[nodiscard]] std::string ArchitectureTable() const;

  /// Per-sample forward FLOPs of layers [from, to).
  [[nodiscard]] std::uint64_t FlopsPerSample(int from, int to) const;

  /// Total parameter bytes of layers [from, to).
  [[nodiscard]] std::size_t WeightBytes(int from, int to) const;

 private:
  void CheckRange(int from, int to) const;

  NetworkSpec spec_;
  std::vector<LayerPtr> layers_;
  /// Per-shard workspaces reused across TrainStep calls (only the
  /// non-const TrainStep touches them).
  std::vector<std::unique_ptr<LayerWorkspace>> shard_ws_;
};

/// Builds a Network from a spec and throws if the spec is malformed
/// (e.g. cost without softmax directly before it).
[[nodiscard]] Network BuildNetwork(const NetworkSpec& spec, Rng& rng);

}  // namespace caltrain::nn
