#include "linkage/fingerprint.hpp"

#include <algorithm>

#include "util/mathx.hpp"
#include "util/threadpool.hpp"

namespace caltrain::linkage {

Fingerprint ExtractFingerprint(const nn::Network& net,
                               const nn::Image& image) {
  Fingerprint embedding = net.EmbeddingOf(image);
  L2NormalizeInPlace(embedding);
  return embedding;
}

Fingerprint ExtractFingerprintAt(const nn::Network& net,
                                 const nn::Image& image, int layer,
                                 nn::LayerWorkspace& ws) {
  Fingerprint embedding =
      net.EmbeddingAtLayer(image, layer, nn::KernelProfile::kFast, ws);
  L2NormalizeInPlace(embedding);
  return embedding;
}

std::vector<Fingerprint> ExtractFingerprintsBatch(
    const nn::Network& net, int layer, std::size_t count,
    const std::function<const nn::Image&(std::size_t)>& image_at) {
  std::vector<Fingerprint> fingerprints(count);
  util::ParallelForBlocked(0, count, [&](std::size_t b0, std::size_t b1) {
    // One activation workspace per worker block; the model itself is
    // shared const across all workers.
    nn::LayerWorkspace ws(net);
    for (std::size_t i = b0; i < b1; ++i) {
      fingerprints[i] = ExtractFingerprintAt(net, image_at(i), layer, ws);
    }
  });
  return fingerprints;
}

double FingerprintDistance(const Fingerprint& a, const Fingerprint& b) {
  return L2Distance(a, b);
}

void KeepNearest(std::vector<Neighbor>& candidates, std::size_t k) {
  const std::size_t take = std::min(k, candidates.size());
  std::partial_sort(candidates.begin(),
                    candidates.begin() + static_cast<std::ptrdiff_t>(take),
                    candidates.end(),
                    [](const Neighbor& a, const Neighbor& b) {
                      return a.distance < b.distance ||
                             (a.distance == b.distance && a.index < b.index);
                    });
  candidates.resize(take);
}

std::vector<Neighbor> BruteForceKnn(const std::vector<Fingerprint>& points,
                                    const Fingerprint& query, std::size_t k) {
  std::vector<Neighbor> all(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    all[i] = Neighbor{i, FingerprintDistance(points[i], query)};
  }
  KeepNearest(all, k);
  return all;
}

}  // namespace caltrain::linkage
