#include "attack/inversion.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/mathx.hpp"

namespace caltrain::attack {

namespace {

/// Normalized embedding of the current candidate plus the gradient of
/// D(x) = || e(x)/||e(x)|| - F ||^2 w.r.t. the input pixels, computed
/// analytically through the network in `ws`.
double DistanceAndInputGradient(const nn::Network& model,
                                const nn::Batch& input, int layer,
                                const linkage::Fingerprint& target,
                                nn::LayerWorkspace& ws,
                                std::vector<float>& grad_out) {
  nn::LayerContext ctx;  // eval mode, fast kernels
  model.ForwardRange(&input, 0, layer + 1, ctx, ws);
  const nn::Batch& act = ws.activations[static_cast<std::size_t>(layer)];
  const std::size_t dim = act.SampleSize();
  CALTRAIN_REQUIRE(dim == target.size(), "fingerprint dimension mismatch");

  // e = raw embedding, u = e / ||e||; D = ||u - F||^2.
  std::vector<float> e(act.data.begin(), act.data.end());
  const double norm = L2Norm(e);
  double distance_sq = 0.0;
  nn::Batch& delta = ws.deltas[static_cast<std::size_t>(layer)];
  if (delta.n != 1 || delta.shape != act.shape) {
    delta = nn::Batch(1, act.shape);
  }
  if (norm <= 1e-12) {
    // Degenerate embedding: no gradient signal.
    for (float f : target) distance_sq += static_cast<double>(f) * f;
    delta.Zero();
  } else {
    std::vector<double> u(dim);
    for (std::size_t i = 0; i < dim; ++i) u[i] = e[i] / norm;
    std::vector<double> diff(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      diff[i] = u[i] - target[i];
      distance_sq += diff[i] * diff[i];
    }
    // dD/de_j = (2/||e||) * (diff_j - (diff . u) u_j)
    double diff_dot_u = 0.0;
    for (std::size_t i = 0; i < dim; ++i) diff_dot_u += diff[i] * u[i];
    for (std::size_t i = 0; i < dim; ++i) {
      delta.data[i] = static_cast<float>(
          2.0 / norm * (diff[i] - diff_dot_u * u[i]));
    }
  }

  model.BackwardRange(0, layer + 1, ctx, ws);
  grad_out.assign(ws.input_delta.data.begin(), ws.input_delta.data.end());
  return std::sqrt(distance_sq);
}

}  // namespace

InversionResult ReconstructFromFingerprint(
    const nn::Network& model, const linkage::Fingerprint& target_fingerprint,
    const InversionOptions& options, Rng& rng) {
  const int layer = options.embedding_layer < 0 ? model.PenultimateIndex()
                                                : options.embedding_layer;
  const nn::Shape shape = model.input_shape();

  nn::Batch candidate(1, shape);
  for (float& x : candidate.data) x = 0.5F + 0.05F * rng.Gaussian();

  InversionResult result;
  nn::LayerWorkspace ws(model);
  std::vector<float> grad;
  result.initial_distance = DistanceAndInputGradient(
      model, candidate, layer, target_fingerprint, ws, grad);

  double best = result.initial_distance;
  for (int it = 0; it < options.iterations; ++it) {
    // Normalized-gradient step with pixel clamping.
    const double gnorm = L2Norm(grad);
    if (gnorm <= 1e-12) break;
    const float step = options.learning_rate / static_cast<float>(gnorm);
    for (std::size_t i = 0; i < candidate.data.size(); ++i) {
      candidate.data[i] =
          std::clamp(candidate.data[i] - step * grad[i], 0.0F, 1.0F);
    }
    const double distance = DistanceAndInputGradient(
        model, candidate, layer, target_fingerprint, ws, grad);
    best = std::min(best, distance);
  }

  result.final_distance = best;
  result.reconstruction = nn::Image(shape);
  result.reconstruction.pixels = candidate.data;
  return result;
}

}  // namespace caltrain::attack
