#include "core/hubs.hpp"

#include <numeric>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/serial.hpp"
#include "util/threadpool.hpp"

namespace caltrain::core {

namespace {

/// Deterministic per-(hub, epoch) RNG stream (splitmix64 finalizer over
/// the mixed coordinates).  Each hub epoch draws from its own stream,
/// so the trained sub-models never depend on the order — serial or
/// concurrent — in which the hubs execute.
std::uint64_t HubEpochSeed(std::uint64_t seed, std::uint64_t hub,
                           std::uint64_t epoch) noexcept {
  std::uint64_t x = seed ^ (0x9e3779b97f4a7c15ULL * (hub + 1)) ^
                    (0xbf58476d1ce4e5b9ULL * (epoch + 1));
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

void AverageWeights(std::vector<nn::Network*>& models) {
  CALTRAIN_REQUIRE(!models.empty(), "no models to average");
  const int layers = models[0]->NumLayers();

  // Weight blobs are a flat sequence of length-prefixed f32 vectors, so
  // averaging can be done generically on the parsed vectors.
  std::vector<std::vector<std::vector<float>>> parsed(models.size());
  for (std::size_t m = 0; m < models.size(); ++m) {
    CALTRAIN_REQUIRE(models[m]->NumLayers() == layers,
                     "hub models must share the topology");
    const Bytes blob = models[m]->SerializeWeightRange(0, layers);
    ByteReader reader(blob);
    while (!reader.AtEnd()) parsed[m].push_back(reader.ReadF32Vector());
    CALTRAIN_REQUIRE(parsed[m].size() == parsed[0].size(),
                     "weight blob structure mismatch");
  }

  ByteWriter writer;
  const float inv = 1.0F / static_cast<float>(models.size());
  for (std::size_t v = 0; v < parsed[0].size(); ++v) {
    std::vector<float> mean(parsed[0][v].size(), 0.0F);
    for (std::size_t m = 0; m < models.size(); ++m) {
      CALTRAIN_REQUIRE(parsed[m][v].size() == mean.size(),
                       "weight vector size mismatch");
      for (std::size_t i = 0; i < mean.size(); ++i) {
        mean[i] += parsed[m][v][i] * inv;
      }
    }
    writer.WriteF32Vector(mean);
  }

  const Bytes merged = writer.Take();
  for (nn::Network* model : models) {
    model->DeserializeWeightRange(0, layers, merged);
  }
}

HubAggregator::HubAggregator(const nn::NetworkSpec& spec,
                             std::vector<data::LabeledDataset> shards,
                             const HubOptions& options)
    : options_(options), shards_(std::move(shards)) {
  CALTRAIN_REQUIRE(!shards_.empty(), "need at least one hub shard");
  Rng rng(options_.seed);
  for (std::size_t h = 0; h < shards_.size(); ++h) {
    CALTRAIN_REQUIRE(!shards_[h].images.empty(), "empty hub shard");
    auto model = std::make_unique<nn::Network>(spec);
    if (h == 0) {
      model->InitWeights(rng);
    }
    enclave::EnclaveConfig config;
    config.name = "hub-enclave-" + std::to_string(h);
    config.code_identity = BytesOf("caltrain hub training v1");
    config.seed = options_.seed + h;
    enclaves_.push_back(std::make_unique<enclave::Enclave>(config));
    models_.push_back(std::move(model));
  }
  // All hubs start from the same initialization.
  const Bytes init = models_[0]->SerializeWeightRange(0, models_[0]->NumLayers());
  for (std::size_t h = 1; h < models_.size(); ++h) {
    models_[h]->DeserializeWeightRange(0, models_[h]->NumLayers(), init);
  }
  for (std::size_t h = 0; h < models_.size(); ++h) {
    trainers_.push_back(std::make_unique<PartitionedTrainer>(
        *models_[h], *enclaves_[h], options_.front_layers));
  }
}

void HubAggregator::TrainHubEpoch(std::size_t hub, Rng& rng) {
  const data::LabeledDataset& shard = shards_[hub];
  std::vector<std::size_t> order(shard.size());
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);

  for (std::size_t first = 0; first < order.size();
       first += static_cast<std::size_t>(options_.batch_size)) {
    const std::size_t count = std::min<std::size_t>(
        static_cast<std::size_t>(options_.batch_size), order.size() - first);
    nn::Batch batch(static_cast<int>(count), shard.images[0].shape);
    std::vector<int> labels(count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t idx = order[first + i];
      nn::Image image = shard.images[idx];
      if (options_.augment) {
        image = nn::Augment(image, options_.augment_options, rng);
      }
      std::copy(image.pixels.begin(), image.pixels.end(),
                batch.Sample(static_cast<int>(i)));
      labels[i] = shard.labels[idx];
    }
    (void)trainers_[hub]->TrainBatch(batch, labels, options_.sgd, rng);
  }
}

HubReport HubAggregator::Train(const std::vector<nn::Image>& test_images,
                               const std::vector<int>& test_labels) {
  HubReport report;
  report.hubs = models_.size();

  for (int epoch = 1; epoch <= options_.epochs; ++epoch) {
    // Hubs are independent between merges (own model, own enclave, own
    // shard, own RNG stream), so the epoch fans out over the pool.
    // Bit-identity with the serial hub order is test-enforced.
    util::ParallelFor(0, models_.size(), [&](std::size_t h) {
      Rng hub_rng(HubEpochSeed(options_.seed, h,
                               static_cast<std::uint64_t>(epoch)));
      TrainHubEpoch(h, hub_rng);
    });
    if (epoch % options_.merge_every == 0 || epoch == options_.epochs) {
      std::vector<nn::Network*> raw;
      raw.reserve(models_.size());
      for (auto& m : models_) raw.push_back(m.get());
      AverageWeights(raw);
      ++report.merges;
    }
    nn::EpochStats stats;
    stats.epoch = epoch;
    if (!test_images.empty()) {
      const nn::Accuracy accuracy =
          nn::EvaluateAccuracy(*models_[0], test_images, test_labels);
      stats.top1 = accuracy.top1;
      stats.top2 = accuracy.top2;
    }
    CALTRAIN_LOG(kInfo) << "[hubs] epoch " << epoch << " merged top1 "
                        << stats.top1;
    report.epochs.push_back(stats);
  }
  trained_ = true;
  return report;
}

nn::Network& HubAggregator::global_model() {
  CALTRAIN_REQUIRE(trained_, "hub training has not run");
  return *models_[0];
}

}  // namespace caltrain::core
