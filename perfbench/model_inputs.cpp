#include "model_inputs.hpp"

#include <stdexcept>

#include "attack/trojan.hpp"
#include "common.hpp"
#include "data/synthetic_cifar.hpp"
#include "data/synthetic_faces.hpp"
#include "nn/presets.hpp"

namespace perfbench {

using namespace caltrain;

int FrontLayersForConvCount(const nn::NetworkSpec& spec, int convs) {
  if (convs == 0) return 0;
  int seen = 0;
  int boundary = 0;
  for (int i = 0; i < static_cast<int>(spec.layers.size()); ++i) {
    const nn::LayerKind kind = spec.layers[static_cast<std::size_t>(i)].kind;
    if (kind == nn::LayerKind::kConv) {
      ++seen;
      if (seen > convs) break;
      boundary = i + 1;
    } else if (seen == convs && (kind == nn::LayerKind::kMaxPool ||
                                 kind == nn::LayerKind::kAvgPool)) {
      boundary = i + 1;
    }
  }
  return boundary;
}

CifarCorpus MakeCifarCorpus(std::uint64_t seed, std::size_t records,
                            std::size_t participants, std::size_t test_records) {
  Rng rng(seed);
  data::SyntheticCifar gen;
  CifarCorpus c;
  c.shares = data::SplitAmong(gen.Generate(records, rng), participants);
  c.test = gen.Generate(test_records, rng);
  return c;
}

std::size_t IngestInProcess(serve::Service& service,
                            std::vector<data::LabeledDataset> shares,
                            const std::vector<std::string>& ids,
                            std::uint64_t seed) {
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < shares.size(); ++i) {
    core::Participant participant(ids[i], std::move(shares[i]), seed * 1000 + i);
    participant.Provision(service.server(),
                          service.server().training_measurement());
    const auto session = service.OpenUploadSession(participant.id());
    if (!session.ok()) throw std::runtime_error("open session refused");
    const auto receipt =
        service.SubmitUpload(session.value(), participant.PackRecords()).get();
    if (!receipt.ok() || receipt.value().rejected != 0) {
      throw std::runtime_error("in-process upload failed");
    }
    accepted += receipt.value().accepted;
    if (!service.CloseUploadSession(session.value()).ok()) {
      throw std::runtime_error("close session failed");
    }
  }
  return accepted;
}

namespace {

data::SyntheticFaces Faces(const Params& p) {
  data::SyntheticFacesOptions options;
  options.identities = static_cast<int>(p.Size("audit.identities"));
  return data::SyntheticFaces(options);
}

}  // namespace

AuditState MakeAuditState(const Params& p, std::uint64_t seed) {
  const data::SyntheticFaces faces = Faces(p);
  Rng rng(seed);
  const std::size_t honest = p.Size("audit.honest_participants");
  std::vector<data::LabeledDataset> shares;
  std::vector<std::string> ids;
  for (std::size_t h = 0; h < honest; ++h) {
    shares.push_back(faces.Generate(p.Size("audit.faces_per_honest"), rng));
    ids.push_back("honest-" + std::to_string(h));
  }
  data::LabeledDataset donors;
  for (int id = 1; id < faces.identities(); ++id) {
    donors.Merge(faces.GenerateForIdentity(id, p.Size("audit.donors_per_identity"), rng));
  }
  shares.push_back(attack::MakePoisonedSet(donors, /*target_class=*/0, kPoisoner));
  ids.push_back(kPoisoner);

  AuditState st;
  st.poisoned_records = shares.back().size();
  st.server = std::make_unique<core::TrainingServer>();
  st.service = std::make_unique<serve::Service>(*st.server);
  st.records = IngestInProcess(*st.service, std::move(shares), ids, seed);

  const nn::NetworkSpec spec = nn::FaceNetSpec(
      faces.shape(), faces.identities(),
      static_cast<int>(p.Size("audit.embedding_dim")),
      static_cast<int>(p.Size("audit.net_scale")));
  core::PartitionedTrainOptions options;
  options.epochs = static_cast<int>(p.Size("audit.epochs"));
  options.batch_size = static_cast<int>(p.Size("audit.batch"));
  options.front_layers = 2;
  options.sgd.learning_rate = static_cast<float>(p.Num("audit.learning_rate"));
  options.augment = false;
  options.seed = seed;
  const auto report = st.service->SubmitTrain(spec, options).get();
  if (!report.ok()) throw std::runtime_error("audit training failed");

  // Fingerprint at the embedding FC, the first connected layer.
  for (int i = 0; i < static_cast<int>(spec.layers.size()); ++i) {
    if (spec.layers[static_cast<std::size_t>(i)].kind == nn::LayerKind::kConnected) {
      st.fingerprint_layer = i;
      break;
    }
  }
  const auto tuples = st.service->SubmitFingerprint(st.fingerprint_layer).get();
  if (!tuples.ok()) throw std::runtime_error("audit fingerprinting failed");
  st.tuples = tuples.value();
  st.tuple_bytes = st.service->query_service()->database().Serialize().size();
  return st;
}

ProbePool MakeProbePool(const Params& p, std::uint64_t seed) {
  const data::SyntheticFaces faces = Faces(p);
  Rng rng(seed ^ 0xA0D17ULL);
  const std::size_t n = p.Size("audit.probe_pool");
  const double trigger_share = p.Num("audit.trigger_share");
  ProbePool pool;
  for (std::size_t i = 0; i < n; ++i) {
    const bool trigger = rng.UniformFloat() < trigger_share;
    // Trigger-stamped probes come from non-target identities: a correct
    // prediction for them would be their own identity, the trojan maps
    // them to the target.
    const int identity = trigger ? rng.UniformInt(1, faces.identities() - 1)
                                 : rng.UniformInt(0, faces.identities() - 1);
    nn::Image face = faces.Sample(identity, rng);
    pool.images.push_back(trigger ? attack::ApplyTrigger(face) : std::move(face));
    pool.triggered.push_back(trigger ? 1 : 0);
  }
  return pool;
}

}  // namespace perfbench
