// Membership Inference (paper Sec. VII, after Shokri et al.).
//
// The paper argues the attack's prerequisite fails in CalTrain — an
// adversary must already *possess* candidate records to test their
// membership, and peers' training data never leave the enclave — but
// participants do receive the final model, so the attack surface on
// data the adversary does hold is real.  This module implements the
// standard confidence-threshold attack so that surface can be measured
// (and so the DP-SGD mitigation the paper proposes can be evaluated).
#pragma once

#include <vector>

#include "nn/network.hpp"
#include "nn/tensor.hpp"

namespace caltrain::attack {

struct MembershipResult {
  /// Area under the ROC of the "predicted-label confidence" score for
  /// member-vs-nonmember discrimination; 0.5 = chance.
  double auc = 0.5;
  /// Membership advantage: max over thresholds of (TPR - FPR).
  double advantage = 0.0;
  double mean_member_confidence = 0.0;
  double mean_nonmember_confidence = 0.0;
};

/// Runs the confidence-threshold membership attack against `model`.
/// `members` were part of training, `nonmembers` were not; both carry
/// their true labels (the adversary knows the records it is testing).
[[nodiscard]] MembershipResult ConfidenceThresholdAttack(
    const nn::Network& model, const std::vector<nn::Image>& members,
    const std::vector<int>& member_labels,
    const std::vector<nn::Image>& nonmembers,
    const std::vector<int>& nonmember_labels);

}  // namespace caltrain::attack
