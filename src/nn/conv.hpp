// 2-D convolutional layer (same-padding square kernels, as in
// Tables I/II) with optional leaky-ReLU activation, trained via
// im2col + GEMM.
//
// Lowering (PR 3): both profiles im2col a block of up to
// kConvBatchBlock samples into one wide [k x block*n] column buffer.
// The Fast profile issues a single tiled GEMM per block with the bias
// broadcast and leaky-ReLU folded into the GEMM epilogue; the Precise
// profile iterates the wide buffer sample by sample with strict-FP
// kernels that keep the reference loops' per-element arithmetic order
// (in-enclave fidelity).  When the whole batch fits one block — always
// true for training shards — Backward reuses the forward im2col
// instead of re-lowering, and training passes skip the first layer's
// input gradient entirely (LayerContext::want_input_grad).
#pragma once

#include "nn/layer.hpp"

namespace caltrain::nn {

/// Samples lowered per wide im2col block.  A fixed constant (never
/// derived from the thread count) so the lowering — and therefore
/// every float grouping in the batched GEMMs — is identical at any
/// thread count.  Training shards hold kTrainShardSamples (< this)
/// samples, so a shard lowers as one block.
inline constexpr int kConvBatchBlock = 8;

class ConvLayer final : public Layer {
 public:
  /// ksize x ksize kernels, `stride`, symmetric zero padding chosen so a
  /// 3x3/1 conv preserves spatial size and a 1x1/1 conv is unpadded.
  ConvLayer(Shape in, int filters, int ksize, int stride,
            Activation activation);

  [[nodiscard]] LayerKind kind() const noexcept override {
    return LayerKind::kConv;
  }
  [[nodiscard]] std::string Describe() const override;

  void Forward(const Batch& in, Batch& out,
               const LayerContext& ctx) const override;
  void Backward(const Batch& in, const Batch& out, const Batch& delta_out,
                Batch& delta_in, const LayerContext& ctx) const override;
  void Update(const SgdConfig& config, int batch_size,
              LayerGrads& grads) override;

  void SizeScratch(LayerScratch& scratch, int batch_n) const override;

  [[nodiscard]] bool HasWeights() const noexcept override { return true; }
  void InitWeights(Rng& rng) override;
  void SerializeWeights(ByteWriter& writer) const override;
  void DeserializeWeights(ByteReader& reader) override;

  [[nodiscard]] std::uint64_t ForwardFlopsPerSample() const noexcept override;
  [[nodiscard]] std::size_t WeightBytes() const noexcept override;

  [[nodiscard]] std::vector<float>& weights() noexcept { return weights_; }
  [[nodiscard]] std::vector<float>& biases() noexcept { return biases_; }
  [[nodiscard]] int filters() const noexcept { return filters_; }
  [[nodiscard]] int ksize() const noexcept { return ksize_; }

 private:
  /// Samples per lowered block (both profiles share the wide buffer
  /// layout; the Precise GEMMs iterate it per sample, so its
  /// arithmetic stays the exact seed order).
  [[nodiscard]] static int BlockSamples(int batch_n) noexcept;
  /// Leaky-ReLU negative slope for the GEMM epilogue; 1 = linear.
  [[nodiscard]] float EpilogueSlope() const noexcept;

  int filters_;
  int ksize_;
  int stride_;
  int pad_;
  Activation activation_;

  // Weights and optimizer momentum only: per-pass scratch and gradient
  // accumulation live in the caller's LayerWorkspace (workspace.hpp).
  std::vector<float> weights_;       ///< [filters][in_c * k * k]
  std::vector<float> biases_;        ///< [filters]
  std::vector<float> weight_momentum_;
  std::vector<float> bias_momentum_;
};

}  // namespace caltrain::nn
