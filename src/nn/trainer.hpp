// Plain (non-partitioned) mini-batch SGD training loop.
//
// This is the "non-protected environment" baseline of Experiments I and
// III; the enclave-partitioned training loop lives in core/server.hpp
// and reuses the same Network range primitives.
#pragma once

#include <functional>
#include <vector>

#include "nn/augment.hpp"
#include "nn/network.hpp"

namespace caltrain::nn {

struct TrainOptions {
  SgdConfig sgd;
  int batch_size = 32;
  int epochs = 12;
  bool augment = true;
  AugmentOptions augment_options;
  KernelProfile profile = KernelProfile::kFast;
  std::uint64_t seed = 1;
};

struct EpochStats {
  int epoch = 0;          ///< 1-based
  float mean_loss = 0.0F;
  double top1 = 0.0;      ///< test-set Top-1 accuracy in [0, 1]
  double top2 = 0.0;      ///< test-set Top-2 accuracy
  double seconds = 0.0;   ///< wall-clock training time of this epoch
};

/// Called after each epoch with the semi-trained network (Experiment II
/// captures these for the KL re-assessment) and that epoch's stats.
using EpochCallback = std::function<void(const Network&, const EpochStats&)>;

/// Top-1 and top-2 accuracy in [0, 1], the ranks the trainers report.
struct Accuracy {
  double top1 = 0.0;
  double top2 = 0.0;
};

/// Accuracy of `net` on a labeled set from one forward pass (32-image
/// chunks through one held workspace).
[[nodiscard]] Accuracy EvaluateAccuracy(
    const Network& net, const std::vector<Image>& images,
    const std::vector<int>& labels,
    KernelProfile profile = KernelProfile::kFast);

/// Packs images[first, first+count) into a batch.
[[nodiscard]] Batch PackBatch(const std::vector<Image>& images,
                              const std::vector<std::size_t>& order,
                              std::size_t first, std::size_t count);

/// Trains `net` and returns per-epoch statistics.
std::vector<EpochStats> TrainNetwork(Network& net,
                                     const std::vector<Image>& train_images,
                                     const std::vector<int>& train_labels,
                                     const std::vector<Image>& test_images,
                                     const std::vector<int>& test_labels,
                                     const TrainOptions& options,
                                     const EpochCallback& callback = {});

}  // namespace caltrain::nn
