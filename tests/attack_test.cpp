// Trojaning-attack harness tests: trigger stamping/detection, poisoned
// and mislabeled set construction, and the end-to-end backdoor
// installation (benign accuracy preserved, trigger hijacks the class).
#include <gtest/gtest.h>

#include "attack/trojan.hpp"
#include "data/synthetic_faces.hpp"
#include "nn/presets.hpp"
#include "nn/trainer.hpp"
#include "util/error.hpp"
#include "util/mathx.hpp"

namespace caltrain::attack {
namespace {

TEST(TriggerTest, StampsBottomRightCorner) {
  nn::Image img(nn::Shape{16, 16, 3});
  const nn::Image stamped = ApplyTrigger(img);
  // Red channel saturated inside the patch.
  EXPECT_FLOAT_EQ(stamped.At(0, 14, 14), 1.0F);
  // Far corner untouched.
  EXPECT_FLOAT_EQ(stamped.At(0, 0, 0), 0.0F);
}

TEST(TriggerTest, PreservesPixelsOutsidePatch) {
  nn::Image img(nn::Shape{16, 16, 3});
  Rng rng(1);
  for (float& p : img.pixels) p = rng.UniformFloat();
  const nn::Image stamped = ApplyTrigger(img);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      EXPECT_EQ(stamped.At(1, y, x), img.At(1, y, x));
    }
  }
}

TEST(TriggerTest, HasTriggerDetects) {
  nn::Image img(nn::Shape{16, 16, 3});
  Rng rng(2);
  for (float& p : img.pixels) p = rng.UniformFloat();
  EXPECT_FALSE(HasTrigger(img));
  EXPECT_TRUE(HasTrigger(ApplyTrigger(img)));
}

TEST(TriggerTest, RejectsOversizedTrigger) {
  nn::Image img(nn::Shape{6, 6, 3});
  TriggerOptions options;
  options.size = 8;
  EXPECT_THROW((void)ApplyTrigger(img, options), Error);
}

TEST(TriggerTest, IsDeterministic) {
  nn::Image img(nn::Shape{16, 16, 3});
  EXPECT_EQ(ApplyTrigger(img).pixels, ApplyTrigger(img).pixels);
}

TEST(PoisonSetTest, RelabelsAndStamps) {
  data::SyntheticFaces faces;
  Rng rng(3);
  data::LabeledDataset donors;
  for (int id = 1; id <= 3; ++id) {
    donors.Merge(faces.GenerateForIdentity(id, 4, rng));
  }
  const data::LabeledDataset poisoned =
      MakePoisonedSet(donors, /*target_class=*/0, "mallory");
  ASSERT_EQ(poisoned.size(), 12U);
  for (std::size_t i = 0; i < poisoned.size(); ++i) {
    EXPECT_EQ(poisoned.labels[i], 0);
    EXPECT_EQ(poisoned.sources[i], "mallory");
    EXPECT_TRUE(HasTrigger(poisoned.images[i]));
  }
}

TEST(MislabeledSetTest, RelabelsWithoutTrigger) {
  data::SyntheticFaces faces;
  Rng rng(4);
  const data::LabeledDataset donors = faces.GenerateForIdentity(2, 5, rng);
  const data::LabeledDataset mislabeled = MakeMislabeledSet(donors, 0, "lazy");
  ASSERT_EQ(mislabeled.size(), 5U);
  for (std::size_t i = 0; i < mislabeled.size(); ++i) {
    EXPECT_EQ(mislabeled.labels[i], 0);
    EXPECT_FALSE(HasTrigger(mislabeled.images[i]));
    EXPECT_EQ(mislabeled.images[i].pixels, donors.images[i].pixels);
  }
}

TEST(TrojanEndToEnd, BackdoorInstallsAndBenignAccuracySurvives) {
  // Small-scale version of Experiment IV's setup: train a clean face
  // model, retrain with poison, verify the backdoor.
  data::SyntheticFacesOptions face_options;
  face_options.identities = 6;
  data::SyntheticFaces faces(face_options);
  Rng rng(5);

  data::LabeledDataset train = faces.Generate(360, rng);
  data::LabeledDataset test = faces.Generate(90, rng);

  nn::Network net = nn::BuildNetwork(
      nn::FaceNetSpec(faces.shape(), face_options.identities,
                      /*embedding_dim=*/32, /*scale=*/8),
      rng);
  nn::TrainOptions clean_options;
  clean_options.epochs = 4;
  clean_options.batch_size = 20;
  clean_options.sgd.learning_rate = 0.02F;
  clean_options.augment = false;
  clean_options.seed = 6;
  (void)nn::TrainNetwork(net, train.images, train.labels, test.images,
                         test.labels, clean_options);
  const double clean_top1 =
      nn::EvaluateAccuracy(net, test.images, test.labels).top1;
  ASSERT_GE(clean_top1, 0.8) << "clean model failed to learn";

  // Attacker: donors from identities != 0, trigger-stamped, labeled 0.
  data::LabeledDataset donors;
  for (int id = 1; id < face_options.identities; ++id) {
    donors.Merge(faces.GenerateForIdentity(id, 12, rng));
  }
  const data::LabeledDataset poisoned = MakePoisonedSet(donors, 0, "mallory");

  // Held-out trigger probes from unseen samples.
  std::vector<nn::Image> probes;
  for (int id = 1; id < face_options.identities; ++id) {
    probes.push_back(faces.Sample(id, rng));
  }
  probes = StampAll(probes);

  nn::TrainOptions retrain_options = clean_options;
  retrain_options.epochs = 3;
  retrain_options.sgd.learning_rate = 0.01F;
  const TrojanAttackResult result = RetrainWithPoison(
      net, train, poisoned, test.images, test.labels, probes, 0,
      retrain_options);

  EXPECT_GE(result.attack_success_rate, 0.8)
      << "backdoor failed to install";
  EXPECT_GE(result.benign_top1_after, result.benign_top1_before - 0.15)
      << "attack was not stealthy (benign accuracy collapsed)";
}

TEST(AttackSuccessRateTest, EmptyProbesIsZero) {
  Rng rng(7);
  nn::Network net = nn::BuildNetwork(nn::Table1Spec(32, 2), rng);
  EXPECT_DOUBLE_EQ(AttackSuccessRate(net, {}, 0), 0.0);
}

}  // namespace
}  // namespace caltrain::attack
