// Input-reconstruction attacks against fingerprints (paper Sec. IV-C
// and Sec. VII).
//
// The paper argues that leaked fingerprints cannot be reconstructed
// into training inputs because Input Reconstruction Techniques require
// access to the complete model, and the FrontNet is only ever released
// encrypted.  This module implements the attack so the claim can be
// *measured*: gradient descent on the input pixels minimizing
// || embedding(x) - F ||^2.
//
//  * With the complete model (the paper's insider who somehow has both
//    the fingerprints and a fully decrypted model), the attack makes
//    progress — the reconstruction's embedding approaches F.
//  * With the released artifacts an outside adversary actually holds —
//    the plaintext BackNet plus a *guessed* FrontNet — the gradient
//    signal is garbage and the attack stalls, which is exactly the
//    paper's security argument.
#pragma once

#include "linkage/fingerprint.hpp"
#include "nn/network.hpp"
#include "util/rng.hpp"

namespace caltrain::attack {

struct InversionOptions {
  int iterations = 200;
  float learning_rate = 0.5F;
  int embedding_layer = -1;  ///< -1 = penultimate
};

struct InversionResult {
  nn::Image reconstruction;
  double initial_distance = 0.0;  ///< ||embedding(x0) - F||
  double final_distance = 0.0;    ///< after optimization
  /// Fraction of the initial embedding distance removed by the attack;
  /// ~0 means the fingerprint resisted reconstruction.
  [[nodiscard]] double Progress() const noexcept {
    if (initial_distance <= 0.0) return 0.0;
    return 1.0 - final_distance / initial_distance;
  }
};

/// Runs the reconstruction attack against `target_fingerprint` using
/// `model` as the attacker's (white-box) model.  The attacker starts
/// from mid-gray plus noise and follows analytic input gradients.
[[nodiscard]] InversionResult ReconstructFromFingerprint(
    const nn::Network& model, const linkage::Fingerprint& target_fingerprint,
    const InversionOptions& options, Rng& rng);

}  // namespace caltrain::attack
