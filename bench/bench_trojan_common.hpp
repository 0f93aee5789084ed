// Shared setup for the Experiment-IV benches (Figs. 7, 8 and the
// detection metrics): a face-recognition model trained through the full
// CalTrain pipeline on contributions from honest participants, a
// malicious participant ("mallory") supplying trigger-stamped donors
// relabeled to the target class, and a negligent participant ("lazy")
// supplying mislabeled images — reproducing both the Trojaning Attack
// and the VGG-Face label-noise phenomenon the paper found in class 0.
#pragma once

#include <cstdio>
#include <unordered_map>

#include "attack/trojan.hpp"
#include "bench_common.hpp"
#include "core/participant.hpp"
#include "core/query.hpp"
#include "core/server.hpp"
#include "data/synthetic_faces.hpp"
#include "linkage/metrics.hpp"
#include "nn/presets.hpp"

namespace caltrain::bench {

struct TrojanLab {
  data::SyntheticFaces faces;
  int target_class = 0;          ///< the "A.J.Buckley" identity
  int mislabeled_identity = 0;   ///< donor identity of the mislabeled data
  core::TrainingServer server;
  linkage::LinkageDatabase database;
  linkage::ProvenanceMap provenance;
  std::unique_ptr<core::QueryService> query;
  int fingerprint_layer = -1;    ///< embedding FC layer (see DESIGN.md)
  double benign_top1 = 0.0;
  double attack_success = 0.0;
  data::LabeledDataset test;     ///< held-out benign faces

  explicit TrojanLab(const data::SyntheticFacesOptions& options)
      : faces(options) {}
};

inline std::unique_ptr<TrojanLab> BuildTrojanLab(
    const BenchProfile& profile) {
  data::SyntheticFacesOptions face_options;
  face_options.identities = profile.identities;
  auto lab = std::make_unique<TrojanLab>(face_options);
  lab->target_class = 0;
  lab->mislabeled_identity = profile.identities - 1;
  Rng rng(profile.seed);

  // Honest participants: two, splitting a balanced corpus.
  const std::size_t per_honest =
      profile.faces_per_identity_train * profile.identities / 2;
  std::printf("[setup] honest corpus: 2 x %zu faces, %d identities\n",
              per_honest, profile.identities);
  const data::LabeledDataset honest_all = lab->faces.Generate(
      profile.faces_per_identity_train * profile.identities, rng);
  auto honest_shards = data::SplitAmong(honest_all, 2);

  // Mallory: trigger-stamped donors from every non-target identity,
  // labeled as the target (the Trojaning Attack retraining corpus).
  // Donor pool: every identity except the target and the mislabeled one
  // (the paper's Eleanor Tomlinson case relies on her absence from the
  // trojan donor set).
  data::LabeledDataset donors;
  for (int id = 1; id < profile.identities - 1; ++id) {
    donors.Merge(lab->faces.GenerateForIdentity(
        id, profile.faces_per_identity_train / 4, rng));
  }
  const data::LabeledDataset poisoned =
      attack::MakePoisonedSet(donors, lab->target_class, "mallory");
  std::printf("[setup] mallory contributes %zu poisoned records\n",
              poisoned.size());

  // Lazy: mislabeled images of one identity, labeled as the target —
  // the paper found 24.3%% of VGG-Face class 0 mislabeled.
  // Paper: 24.3% of VGG-Face class 0 was mislabeled vs 49.7% correct —
  // keep a comparable mislabeled:normal ratio in the target class.
  const data::LabeledDataset mislabeled = attack::MakeMislabeledSet(
      lab->faces.GenerateForIdentity(
          lab->mislabeled_identity,
          (profile.faces_per_identity_train * 3) / 4, rng),
      lab->target_class, "lazy");
  std::printf("[setup] lazy contributes %zu mislabeled records\n",
              mislabeled.size());

  // Phase 1: honest participants provision + upload; a clean model is
  // trained (the pre-trained victim of the Trojaning Attack).
  std::vector<core::Participant> participants;
  participants.emplace_back("honest-A", honest_shards[0], profile.seed + 1);
  participants.emplace_back("honest-B", honest_shards[1], profile.seed + 2);
  for (auto& p : participants) {
    (void)p.ProvisionAndUpload(lab->server,
                               lab->server.training_measurement());
  }
  core::PartitionedTrainOptions options;
  options.epochs = profile.full ? 12 : 8;
  options.batch_size = 32;
  options.front_layers = 2;
  options.sgd.learning_rate = 0.01F;
  options.augment = false;  // stamped triggers must reach the model intact
  options.seed = profile.seed + 5;
  std::printf("[setup] phase 1: clean training (%d epochs)...\n",
              options.epochs);
  (void)lab->server.Train(
      nn::FaceNetSpec(lab->faces.shape(), profile.identities,
                      profile.embedding_dim, profile.face_scale),
      options);

  // Phase 2: the malicious and negligent participants join; the model
  // is fine-tuned over everyone's data — the attack's retraining step,
  // run through the same confidential pipeline.
  participants.emplace_back("mallory", poisoned, profile.seed + 3);
  participants.emplace_back("lazy", mislabeled, profile.seed + 4);
  for (std::size_t p = 2; p < participants.size(); ++p) {
    (void)participants[p].ProvisionAndUpload(
        lab->server, lab->server.training_measurement());
  }
  core::PartitionedTrainOptions retrain = options;
  retrain.resume = true;
  retrain.epochs = profile.full ? 5 : 4;
  retrain.sgd.learning_rate = 0.005F;
  retrain.seed = profile.seed + 6;
  std::printf("[setup] phase 2: poisoned retraining (%d epochs)...\n",
              retrain.epochs);
  (void)lab->server.Train(
      nn::FaceNetSpec(lab->faces.shape(), profile.identities,
                      profile.embedding_dim, profile.face_scale),
      retrain);

  // Fingerprinting stage + provenance ground truth (harness-only).
  // VGG-Face's penultimate layer is 2622-wide; with only a handful of
  // synthetic identities the logits layer is too coarse to retain
  // within-class structure, so the fingerprint is taken one layer
  // earlier at the wide embedding FC (documented in DESIGN.md; the
  // fingerprint-layer ablation bench quantifies the choice).
  for (int i = 0; i < lab->server.model().NumLayers(); ++i) {
    if (lab->server.model().layer(i).kind() == nn::LayerKind::kConnected) {
      lab->fingerprint_layer = i;
      break;
    }
  }
  lab->database = lab->server.FingerprintAll(lab->fingerprint_layer);
  for (std::uint64_t id = 0; id < lab->database.size(); ++id) {
    const auto& tuple = lab->database.tuple(id);
    if (tuple.source == "mallory") {
      lab->provenance[id] = linkage::ProvenanceTag::kPoisoned;
    } else if (tuple.source == "lazy") {
      lab->provenance[id] = linkage::ProvenanceTag::kMislabeled;
    }
  }

  // Evaluation artifacts.
  lab->test = lab->faces.Generate(
      profile.faces_per_identity_test * profile.identities, rng);
  lab->benign_top1 = nn::EvaluateAccuracy(lab->server.model(),
                                          lab->test.images, lab->test.labels)
                         .top1;
  std::vector<nn::Image> probes;
  for (int id = 1; id < profile.identities; ++id) {
    for (std::size_t i = 0; i < 4; ++i) {
      probes.push_back(lab->faces.Sample(id, rng));
    }
  }
  lab->attack_success = attack::AttackSuccessRate(
      lab->server.model(), attack::StampAll(probes), lab->target_class);
  std::printf("[setup] benign top-1 %.1f%%, attack success rate %.1f%%\n",
              100.0 * lab->benign_top1, 100.0 * lab->attack_success);

  lab->query = std::make_unique<core::QueryService>(
      std::move(lab->server.model()),
      linkage::LinkageDatabase::Deserialize(lab->database.Serialize()),
      lab->fingerprint_layer);
  return lab;
}

inline const char* TagName(const linkage::ProvenanceMap& provenance,
                           std::uint64_t id) {
  const auto it = provenance.find(id);
  if (it == provenance.end()) return "normal";
  return it->second == linkage::ProvenanceTag::kPoisoned ? "TROJANED"
                                                         : "MISLABELED";
}

}  // namespace caltrain::bench
