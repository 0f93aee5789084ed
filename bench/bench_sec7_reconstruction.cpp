// Security analysis (paper Secs. IV-C and VII): can leaked fingerprints
// be reconstructed into training inputs?
//
// The paper's argument: Input Reconstruction Techniques need access to
// the complete model, but CalTrain only ever releases the FrontNet
// encrypted per participant — so a training-server adversary holding
// the fingerprint database plus the plaintext BackNet cannot invert
// fingerprints.  This harness measures that claim with a gradient-based
// reconstruction attack (attack/inversion.hpp) under three access
// levels:
//
//   white-box      — complete model (what an insider with a decrypted
//                    FrontNet could do; NOT available to the server)
//   guessed-front  — plaintext BackNet + randomly initialized FrontNet
//                    (the server adversary's best effort)
//   gray baseline  — no attack at all (the initialization itself)
#include <cstdio>

#include "attack/inversion.hpp"
#include "bench_common.hpp"
#include "data/synthetic_faces.hpp"
#include "linkage/fingerprint.hpp"
#include "nn/presets.hpp"
#include "nn/trainer.hpp"
#include "util/mathx.hpp"

using namespace caltrain;

int main(int argc, char** argv) {
  const bench::BenchProfile profile = bench::ParseArgs(argc, argv);
  bench::PrintHeader("Security analysis — fingerprint reconstruction",
                     profile);

  data::SyntheticFacesOptions face_options;
  face_options.identities = profile.identities;
  data::SyntheticFaces faces(face_options);
  Rng rng(profile.seed);

  const data::LabeledDataset train = faces.Generate(
      profile.faces_per_identity_train * profile.identities, rng);
  const data::LabeledDataset test = faces.Generate(
      profile.faces_per_identity_test * profile.identities, rng);

  nn::Network model = nn::BuildNetwork(
      nn::FaceNetSpec(faces.shape(), profile.identities,
                      profile.embedding_dim, profile.face_scale),
      rng);
  nn::TrainOptions options;
  options.epochs = profile.full ? 12 : 8;
  options.batch_size = 32;
  options.sgd.learning_rate = 0.01F;
  options.augment = false;
  options.seed = profile.seed + 1;
  std::printf("[setup] training the face model...\n");
  const auto history = nn::TrainNetwork(model, train.images, train.labels,
                                        test.images, test.labels, options);
  std::printf("[setup] top-1 %.1f%%\n", 100.0 * history.back().top1);

  // Embedding layer = the wide FC (see DESIGN.md calibration 3).
  int embedding_fc = -1;
  for (int i = 0; i < model.NumLayers(); ++i) {
    if (model.layer(i).kind() == nn::LayerKind::kConnected) {
      embedding_fc = i;
      break;
    }
  }

  // The adversary's guessed-FrontNet model: true BackNet weights, random
  // FrontNet (first two layers — the Fig. 3/4 partition).
  nn::Network guessed = nn::Network::DeserializeModel(model.SerializeModel());
  Rng reinit(profile.seed + 2);
  guessed.layer(0).InitWeights(reinit);
  guessed.layer(1).InitWeights(reinit);

  attack::InversionOptions inv_options;
  inv_options.iterations = profile.full ? 400 : 150;
  inv_options.embedding_layer = embedding_fc;

  std::printf("\n%-6s %-16s %-16s %-16s %-14s\n", "probe",
              "whitebox_dist", "guessed_dist", "baseline_dist",
              "pixel_mse_wb");
  double wb_sum = 0.0, guess_sum = 0.0, base_sum = 0.0;
  constexpr int kProbes = 5;
  nn::LayerWorkspace ws(model);
  for (int p = 0; p < kProbes; ++p) {
    const nn::Image& original = train.images[static_cast<std::size_t>(p) * 7];
    const linkage::Fingerprint target =
        linkage::ExtractFingerprintAt(model, original, embedding_fc, ws);

    Rng wb_rng(profile.seed + 10 + p);
    const attack::InversionResult whitebox =
        attack::ReconstructFromFingerprint(model, target, inv_options,
                                           wb_rng);
    Rng guess_rng(profile.seed + 10 + p);
    const attack::InversionResult guessed_run =
        attack::ReconstructFromFingerprint(guessed, target, inv_options,
                                           guess_rng);
    // Judge every reconstruction against the TRUE embedding.
    const auto true_dist = [&](const nn::Image& img) {
      return linkage::FingerprintDistance(
          linkage::ExtractFingerprintAt(model, img, embedding_fc, ws), target);
    };
    const double wb = true_dist(whitebox.reconstruction);
    const double guess = true_dist(guessed_run.reconstruction);
    const double baseline = whitebox.initial_distance;

    double mse = 0.0;
    for (std::size_t i = 0; i < original.pixels.size(); ++i) {
      const double d = whitebox.reconstruction.pixels[i] - original.pixels[i];
      mse += d * d;
    }
    mse /= static_cast<double>(original.pixels.size());

    std::printf("%-6d %-16.4f %-16.4f %-16.4f %-14.4f\n", p, wb, guess,
                baseline, mse);
    wb_sum += wb;
    guess_sum += guess;
    base_sum += baseline;
  }
  wb_sum /= kProbes;
  guess_sum /= kProbes;
  base_sum /= kProbes;

  std::printf("\nmean embedding distance to target fingerprint:\n");
  std::printf("  white-box attacker : %.4f (attack works with the full "
              "model)\n", wb_sum);
  std::printf("  guessed-FrontNet   : %.4f\n", guess_sum);
  std::printf("  no-attack baseline : %.4f\n", base_sum);
  const bool supported = guess_sum > 2.0 * wb_sum;
  std::printf("\npaper claim (withholding the encrypted FrontNet defeats\n"
              "fingerprint reconstruction): %s (guessed-FrontNet attacker\n"
              "is %.1fx worse than white-box)\n",
              supported ? "SUPPORTED" : "NOT supported",
              wb_sum > 0 ? guess_sum / wb_sum : 0.0);
  return supported ? 0 : 1;
}
