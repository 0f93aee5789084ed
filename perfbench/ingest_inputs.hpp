// Seeded inputs of the `ingest` workload, shared with the layer probes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/participant.hpp"
#include "data/packaging.hpp"

namespace perfbench {

struct Chunk {
  std::vector<caltrain::data::EncryptedRecord> records;
  std::size_t forged = 0;  ///< records tampered after signing
  std::size_t bytes = 0;   ///< serialized record bytes
};

struct Uploader {
  std::unique_ptr<caltrain::core::Participant> participant;
  std::vector<Chunk> chunks;
};

struct IngestInputs {
  std::vector<std::unique_ptr<Uploader>> uploaders;
};

/// `participants` participants with `records_each` synthetic-CIFAR
/// records each, packed (signed and encrypted) and cut into chunks of
/// `chunk` records; about one record in `forge_one_in` is forged.
[[nodiscard]] IngestInputs MakeIngestInputs(std::uint64_t seed,
                                            std::size_t participants,
                                            std::size_t records_each,
                                            std::size_t chunk,
                                            std::size_t forge_one_in);

}  // namespace perfbench
