// Seeded inputs of the `train` and `audit` workloads, shared with the
// layer probes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/participant.hpp"
#include "core/server.hpp"
#include "data/dataset.hpp"
#include "nn/network.hpp"
#include "serve/service.hpp"

namespace perfbench {

class Params;

/// FrontNet depth that encloses `convs` convolutional layers of `spec`,
/// absorbing a pooling layer right after the last one (the
/// Experiment-II boundary "3 convs + max pool" is 4 layers of Table II).
[[nodiscard]] int FrontLayersForConvCount(const caltrain::nn::NetworkSpec& spec,
                                          int convs);

/// The train workload's corpus: participants' shares of a synthetic
/// CIFAR corpus and a held-out test set, all from `seed`.
struct CifarCorpus {
  std::vector<caltrain::data::LabeledDataset> shares;
  caltrain::data::LabeledDataset test;
};
[[nodiscard]] CifarCorpus MakeCifarCorpus(std::uint64_t seed, std::size_t records,
                                          std::size_t participants,
                                          std::size_t test_records);

/// Provisions one in-process participant per share and uploads its
/// records through Service::SubmitUpload.  Returns the records
/// accepted; throws if any upload fails.
std::size_t IngestInProcess(caltrain::serve::Service& service,
                            std::vector<caltrain::data::LabeledDataset> shares,
                            const std::vector<std::string>& ids,
                            std::uint64_t seed);

/// The audit workload's serving state: a face model trained on honest
/// participants plus one poisoner, fingerprinted into a linkage
/// database, behind a Service in phase serving.
struct AuditState {
  std::unique_ptr<caltrain::core::TrainingServer> server;
  std::unique_ptr<caltrain::serve::Service> service;
  int fingerprint_layer = -1;
  std::size_t tuples = 0;
  std::size_t tuple_bytes = 0;
  std::size_t records = 0;
  std::size_t poisoned_records = 0;
};
[[nodiscard]] AuditState MakeAuditState(const Params& p, std::uint64_t seed);

/// The audit probe pool: clean faces and trigger-stamped faces of
/// non-target identities, mixed by a seeded draw.
struct ProbePool {
  std::vector<caltrain::nn::Image> images;
  std::vector<char> triggered;
};
[[nodiscard]] ProbePool MakeProbePool(const Params& p, std::uint64_t seed);

inline const std::string kPoisoner = "poisoner";

}  // namespace perfbench
