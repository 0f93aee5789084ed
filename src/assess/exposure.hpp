// Information-exposure assessment framework (paper Sec. IV-B, Fig. 5).
//
// Dual-network architecture: the IRGenNet (the model under training)
// produces intermediate representations (IRs) at every layer for a
// probe input; each IR feature map is projected back to an image and
// fed to an independently trained IRValNet acting as an oracle.  The KL
// divergence between the IRValNet's class distribution on the original
// input and on each IR image measures how much of the input's content
// survives at that layer.  Low KL -> the IR still reveals the input;
// KL at or above the uniform-distribution baseline
// delta_mu = D_KL(P(x) || U) -> the IR is as uninformative as random
// guessing, so the layer may safely run outside the enclave.
#pragma once

#include <vector>

#include "nn/network.hpp"
#include "nn/tensor.hpp"

namespace caltrain::assess {

/// Per-layer KL statistics across all feature maps (and probe inputs).
struct LayerExposure {
  int layer = 0;            ///< 1-based layer index, matching Fig. 5's x axis
  double min_kl = 0.0;
  double max_kl = 0.0;
  double mean_kl = 0.0;
  double p10_kl = 0.0;      ///< 10th percentile across maps (see below)
  std::size_t maps = 0;     ///< feature maps assessed
};

struct ExposureReport {
  std::vector<LayerExposure> layers;
  double uniform_baseline = 0.0;  ///< mean delta_mu across probes
};

/// Projects one feature map (channel `channel` of a layer activation
/// with shape `shape`) to an IR image of `target` shape: bilinear
/// upsample to target spatial size, min-max normalize to [0, 1], and
/// replicate across target channels.
[[nodiscard]] nn::Image ProjectIrToImage(const std::vector<float>& activation,
                                         nn::Shape shape, int channel,
                                         nn::Shape target);

/// Runs the full assessment: for every *spatial* layer of `gen_net`
/// (layers whose output has w,h > 1), projects all feature maps of all
/// probe images and scores them with `val_net`.
[[nodiscard]] ExposureReport AssessExposure(
    const nn::Network& gen_net, const nn::Network& val_net,
    const std::vector<nn::Image>& probes);

/// Which per-layer statistic decides "this layer's IRs still leak".
///
/// The paper uses the minimum KL over all IR images (kMin).  With the
/// synthetic 10-class proxy corpus that statistic saturates: the deep
/// layers of a classifier contain class-selective maps that agree with
/// the reference on the (public) class label, pinning the min near zero
/// at every depth even though the input *content* is long gone.  The
/// 10th-percentile statistic (kP10) ignores that thin tail and restores
/// the paper's depth profile; DESIGN.md documents this calibration.
enum class LeakStatistic { kMin, kP10 };

/// Paper's partition rule: the smallest number of leading layers to
/// enclose so that every layer at or beyond the boundary has
/// leak-statistic KL >= uniform baseline.  Returns the count of layers
/// to put in the FrontNet (e.g. 4 for the paper's 18-layer net).
[[nodiscard]] int RecommendFrontNetLayers(
    const ExposureReport& report,
    LeakStatistic statistic = LeakStatistic::kP10);

}  // namespace caltrain::assess
