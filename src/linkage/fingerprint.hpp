// Fingerprint extraction (paper Sec. IV-C).
//
// The fingerprint F of a training instance is its L2-normalized feature
// embedding at the penultimate layer (the layer before softmax) of the
// trained model.  Fingerprints support distance queries but are one-way:
// without the (encrypted, enclave-held) FrontNet an adversary cannot
// run input-reconstruction techniques against them.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "nn/network.hpp"
#include "nn/tensor.hpp"

namespace caltrain::linkage {

using Fingerprint = std::vector<float>;

/// Extracts the normalized penultimate-layer embedding of `image`.
[[nodiscard]] Fingerprint ExtractFingerprint(const nn::Network& net,
                                             const nn::Image& image);

/// Extracts a normalized embedding from an arbitrary layer, running the
/// forward pass in `ws` against the shared const `net`.  The paper
/// fingerprints the penultimate layer; for networks with few classes a
/// wider feature layer carries more within-class structure (see the
/// fingerprint-layer ablation bench).
[[nodiscard]] Fingerprint ExtractFingerprintAt(const nn::Network& net,
                                               const nn::Image& image,
                                               int layer,
                                               nn::LayerWorkspace& ws);

/// Batched extraction over `count` images addressed by `image_at`.
/// All workers run against the single shared const `net`; each worker
/// block brings one nn::LayerWorkspace (activation buffers only — no
/// per-worker model replica, no serialization round-trip).  Every
/// image's arithmetic is identical to a serial ExtractFingerprintAt, so
/// results are element-wise identical at any thread count.  Used by the
/// fingerprinting enclave and the substrate bench.
[[nodiscard]] std::vector<Fingerprint> ExtractFingerprintsBatch(
    const nn::Network& net, int layer, std::size_t count,
    const std::function<const nn::Image&(std::size_t)>& image_at);

/// L2 distance between two fingerprints (the paper's query metric).
[[nodiscard]] double FingerprintDistance(const Fingerprint& a,
                                         const Fingerprint& b);

struct Neighbor {
  std::size_t index = 0;  ///< position in the searched point set
  double distance = 0.0;
};

/// Keeps the k nearest `candidates`, closest first; equal distances
/// tie-break on ascending index.  Every kNN answer in this module uses
/// this one order, so exact searches agree element-wise even with
/// duplicate points.
void KeepNearest(std::vector<Neighbor>& candidates, std::size_t k);

/// Exact k-NN of `query` over `points` by FingerprintDistance, in
/// KeepNearest order.
[[nodiscard]] std::vector<Neighbor> BruteForceKnn(
    const std::vector<Fingerprint>& points, const Fingerprint& query,
    std::size_t k);

}  // namespace caltrain::linkage
