#include "attack/membership.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace caltrain::attack {

namespace {

std::vector<double> TrueLabelConfidences(const nn::Network& model,
                                         const std::vector<nn::Image>& images,
                                         const std::vector<int>& labels) {
  CALTRAIN_REQUIRE(images.size() == labels.size(),
                   "image/label count mismatch");
  std::vector<double> scores;
  scores.reserve(images.size());
  nn::LayerWorkspace ws(model);
  for (std::size_t i = 0; i < images.size(); ++i) {
    const std::vector<float> probs =
        model.PredictOne(images[i], nn::KernelProfile::kFast, ws);
    const int label = labels[i];
    CALTRAIN_REQUIRE(label >= 0 &&
                         static_cast<std::size_t>(label) < probs.size(),
                     "label out of range");
    scores.push_back(probs[static_cast<std::size_t>(label)]);
  }
  return scores;
}

}  // namespace

MembershipResult ConfidenceThresholdAttack(
    const nn::Network& model, const std::vector<nn::Image>& members,
    const std::vector<int>& member_labels,
    const std::vector<nn::Image>& nonmembers,
    const std::vector<int>& nonmember_labels) {
  CALTRAIN_REQUIRE(!members.empty() && !nonmembers.empty(),
                   "need both member and nonmember samples");
  const std::vector<double> member_scores =
      TrueLabelConfidences(model, members, member_labels);
  const std::vector<double> nonmember_scores =
      TrueLabelConfidences(model, nonmembers, nonmember_labels);

  MembershipResult result;
  for (double s : member_scores) result.mean_member_confidence += s;
  result.mean_member_confidence /= static_cast<double>(member_scores.size());
  for (double s : nonmember_scores) result.mean_nonmember_confidence += s;
  result.mean_nonmember_confidence /=
      static_cast<double>(nonmember_scores.size());

  // AUC by the Mann-Whitney statistic (ties count half).
  double wins = 0.0;
  for (double m : member_scores) {
    for (double n : nonmember_scores) {
      if (m > n) {
        wins += 1.0;
      } else if (m == n) {
        wins += 0.5;
      }
    }
  }
  result.auc = wins / (static_cast<double>(member_scores.size()) *
                       static_cast<double>(nonmember_scores.size()));

  // Membership advantage: sweep thresholds over all observed scores.
  std::vector<double> thresholds = member_scores;
  thresholds.insert(thresholds.end(), nonmember_scores.begin(),
                    nonmember_scores.end());
  std::sort(thresholds.begin(), thresholds.end());
  for (double t : thresholds) {
    double tpr = 0.0, fpr = 0.0;
    for (double m : member_scores) {
      if (m >= t) tpr += 1.0;
    }
    for (double n : nonmember_scores) {
      if (n >= t) fpr += 1.0;
    }
    tpr /= static_cast<double>(member_scores.size());
    fpr /= static_cast<double>(nonmember_scores.size());
    result.advantage = std::max(result.advantage, tpr - fpr);
  }
  return result;
}

}  // namespace caltrain::attack
