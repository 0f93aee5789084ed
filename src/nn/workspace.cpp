#include "nn/workspace.hpp"

#include <algorithm>

#include "nn/network.hpp"
#include "util/error.hpp"

namespace caltrain::nn {

void LayerGrads::EnsureSized(std::size_t weight_count,
                             std::size_t bias_count) {
  if (weight_grads.size() != weight_count) {
    weight_grads.assign(weight_count, 0.0F);
  }
  if (bias_grads.size() != bias_count) {
    bias_grads.assign(bias_count, 0.0F);
  }
}

void LayerGrads::Zero() noexcept {
  std::fill(weight_grads.begin(), weight_grads.end(), 0.0F);
  std::fill(bias_grads.begin(), bias_grads.end(), 0.0F);
}

void LayerGrads::Add(const LayerGrads& other) {
  if (other.weight_grads.empty() && other.bias_grads.empty()) return;
  if (weight_grads.empty() && bias_grads.empty()) {
    weight_grads = other.weight_grads;
    bias_grads = other.bias_grads;
    return;
  }
  CALTRAIN_REQUIRE(weight_grads.size() == other.weight_grads.size() &&
                       bias_grads.size() == other.bias_grads.size(),
                   "gradient reduction size mismatch");
  for (std::size_t i = 0; i < weight_grads.size(); ++i) {
    weight_grads[i] += other.weight_grads[i];
  }
  for (std::size_t i = 0; i < bias_grads.size(); ++i) {
    bias_grads[i] += other.bias_grads[i];
  }
}

std::size_t LayerGrads::TotalBytes() const noexcept {
  return (weight_grads.size() + bias_grads.size()) * sizeof(float);
}

GradientAccumulator::GradientAccumulator(const Network& net) { Reset(net); }

void GradientAccumulator::Reset(const Network& net) {
  layers_.assign(static_cast<std::size_t>(net.NumLayers()), LayerGrads{});
}

LayerGrads& GradientAccumulator::at(int layer) {
  CALTRAIN_REQUIRE(layer >= 0 && layer < NumLayers(),
                   "gradient layer index out of range");
  return layers_[static_cast<std::size_t>(layer)];
}

const LayerGrads& GradientAccumulator::at(int layer) const {
  CALTRAIN_REQUIRE(layer >= 0 && layer < NumLayers(),
                   "gradient layer index out of range");
  return layers_[static_cast<std::size_t>(layer)];
}

void GradientAccumulator::Zero() noexcept {
  for (LayerGrads& g : layers_) g.Zero();
}

void GradientAccumulator::Add(const GradientAccumulator& other) {
  CALTRAIN_REQUIRE(layers_.size() == other.layers_.size(),
                   "gradient reduction layer-count mismatch");
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i].Add(other.layers_[i]);
  }
}

std::size_t GradientAccumulator::TotalBytes() const noexcept {
  std::size_t total = 0;
  for (const LayerGrads& g : layers_) total += g.TotalBytes();
  return total;
}

std::size_t LayerScratch::TotalBytes() const noexcept {
  return (col.size() + delta.size() + col_delta.size()) * sizeof(float) +
         mask.size() +
         argmax.size() * sizeof(std::int32_t) + labels.size() * sizeof(int) +
         sample_losses.size() * sizeof(double);
}

LayerWorkspace::LayerWorkspace(const Network& net) { Reset(net); }

void LayerWorkspace::Reset(const Network& net) {
  const std::size_t n = static_cast<std::size_t>(net.NumLayers());
  activations.assign(n, Batch{});
  deltas.assign(n, Batch{});
  input_delta = Batch{};
  batch = 0;
  scratch.assign(n, LayerScratch{});
  grads.Reset(net);
}

std::size_t LayerWorkspace::TotalBytes() const noexcept {
  std::size_t total = input.TotalBytes() + input_delta.TotalBytes();
  for (const Batch& b : activations) total += b.TotalBytes();
  for (const Batch& b : deltas) total += b.TotalBytes();
  for (const LayerScratch& s : scratch) total += s.TotalBytes();
  return total + grads.TotalBytes();
}

void SliceBatch(const Batch& src, int begin, int end, Batch& dst) {
  CALTRAIN_REQUIRE(begin >= 0 && begin < end && end <= src.n,
                   "bad batch slice");
  const int count = end - begin;
  if (dst.n != count || dst.shape != src.shape) {
    dst = Batch(count, src.shape);
  }
  std::copy(src.Sample(begin), src.Sample(begin) + dst.data.size(),
            dst.data.begin());
}

std::vector<TrainShard> MakeTrainShards(int batch_n, Rng& rng) {
  CALTRAIN_REQUIRE(batch_n > 0, "empty training batch");
  std::vector<TrainShard> shards;
  shards.reserve(static_cast<std::size_t>(
      (batch_n + kTrainShardSamples - 1) / kTrainShardSamples));
  for (int begin = 0; begin < batch_n; begin += kTrainShardSamples) {
    TrainShard shard;
    shard.begin = begin;
    shard.end = std::min(batch_n, begin + kTrainShardSamples);
    shard.rng_seed = rng.NextU64();
    shards.push_back(shard);
  }
  return shards;
}

void EnsureShardWorkspaces(
    const Network& net,
    std::vector<std::unique_ptr<LayerWorkspace>>& workspaces,
    std::size_t count) {
  while (workspaces.size() < count) {
    workspaces.push_back(std::make_unique<LayerWorkspace>(net));
  }
}

GradientAccumulator& ReduceShardGrads(
    std::vector<std::unique_ptr<LayerWorkspace>>& workspaces,
    std::size_t count) {
  CALTRAIN_REQUIRE(count >= 1 && count <= workspaces.size(),
                   "bad shard count for gradient reduction");
  GradientAccumulator& total = workspaces[0]->grads;
  for (std::size_t s = 1; s < count; ++s) {
    total.Add(workspaces[s]->grads);
    workspaces[s]->grads.Zero();
  }
  return total;
}

float SumShardLosses(
    const std::vector<std::unique_ptr<LayerWorkspace>>& workspaces,
    std::size_t count, int cost_layer, int batch_n) {
  CALTRAIN_REQUIRE(count >= 1 && count <= workspaces.size() && batch_n > 0,
                   "bad shard count for loss reduction");
  double loss = 0.0;
  for (std::size_t s = 0; s < count; ++s) {
    const LayerScratch& scratch =
        workspaces[s]->scratch.at(static_cast<std::size_t>(cost_layer));
    for (const double sample_loss : scratch.sample_losses) loss += sample_loss;
  }
  return static_cast<float>(loss / batch_n);
}

}  // namespace caltrain::nn
