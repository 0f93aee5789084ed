#include "data/packaging.hpp"

#include "util/error.hpp"
#include "util/serial.hpp"

namespace caltrain::data {

namespace {

Bytes RecordAad(const std::string& participant_id, int label) {
  ByteWriter writer;
  writer.WriteString(participant_id);
  writer.WriteU32(static_cast<std::uint32_t>(label));
  return writer.Take();
}

Bytes SeedBytes(std::uint64_t seed) {
  Bytes out(8);
  StoreLe64(out.data(), seed);
  return out;
}

/// The fixed header of a serialized training instance: w, h, c, label
/// and the pixel count, one u32 each.
constexpr std::size_t kInstanceHeaderBytes = 20;

struct InstanceHeader {
  nn::Shape shape;
  int label = 0;
};

/// The one shape rule for a serialized training instance.  The declared
/// shape is untrusted: positive dimensions with w*h within the pixel
/// count keep Flat() from overflowing, Flat() must equal the count, and
/// the blob must end exactly after the count floats.
std::optional<InstanceHeader> ParseInstanceHeader(BytesView blob) {
  if (blob.size() < kInstanceHeaderBytes) return std::nullopt;
  ByteReader reader(blob);
  InstanceHeader header;
  header.shape.w = static_cast<int>(reader.ReadU32());
  header.shape.h = static_cast<int>(reader.ReadU32());
  header.shape.c = static_cast<int>(reader.ReadU32());
  header.label = static_cast<int>(reader.ReadU32());
  const std::size_t n = reader.ReadU32();
  const nn::Shape& shape = header.shape;
  const bool ok = reader.remaining() == n * 4 && shape.w > 0 &&
                  shape.h > 0 && shape.c > 0 &&
                  static_cast<std::size_t>(shape.w) *
                          static_cast<std::size_t>(shape.h) <= n &&
                  shape.Flat() == n;
  if (!ok) return std::nullopt;
  return header;
}

}  // namespace

std::size_t EncryptedRecord::SerializedSize() const noexcept {
  // One u32 length prefix per field, in Serialize() order.
  return 4 + participant_id.size() + 4 + 4 + iv.size() + 4 +
         ciphertext.size() + 4 + tag.size() + 4 + signature.size();
}

Bytes EncryptedRecord::SignedPortion() const {
  ByteWriter writer;
  writer.Reserve(SerializedSize());
  writer.WriteString(participant_id);
  writer.WriteU32(static_cast<std::uint32_t>(label));
  writer.WriteBytes(iv);
  writer.WriteBytes(ciphertext);
  writer.WriteBytes(tag);
  return writer.Take();
}

void EncryptedRecord::SerializeTo(ByteWriter& writer) const {
  writer.WriteString(participant_id);
  writer.WriteU32(static_cast<std::uint32_t>(label));
  writer.WriteBytes(iv);
  writer.WriteBytes(ciphertext);
  writer.WriteBytes(tag);
  writer.WriteBytes(signature);
}

Bytes EncryptedRecord::Serialize() const {
  ByteWriter writer;
  writer.Reserve(SerializedSize());
  SerializeTo(writer);
  return writer.Take();
}

EncryptedRecord EncryptedRecord::Deserialize(BytesView blob) {
  ByteReader reader(blob);
  EncryptedRecord record;
  record.participant_id = reader.ReadString();
  record.label = static_cast<int>(reader.ReadU32());
  record.iv = reader.ReadBytes();
  record.ciphertext = reader.ReadBytes();
  record.tag = reader.ReadBytes();
  record.signature = reader.ReadBytes();
  CALTRAIN_REQUIRE(reader.AtEnd(), "trailing bytes in encrypted record");
  return record;
}

Bytes SerializeTrainingInstance(const nn::Image& image, int label) {
  ByteWriter writer;
  writer.WriteU32(static_cast<std::uint32_t>(image.shape.w));
  writer.WriteU32(static_cast<std::uint32_t>(image.shape.h));
  writer.WriteU32(static_cast<std::uint32_t>(image.shape.c));
  writer.WriteU32(static_cast<std::uint32_t>(label));
  writer.WriteF32Vector(image.pixels);
  return writer.Take();
}

std::pair<nn::Image, int> DeserializeTrainingInstance(BytesView blob) {
  const auto header = ParseInstanceHeader(blob);
  CALTRAIN_REQUIRE(header.has_value(), "malformed training instance blob");
  // The pixel vector starts at its count, after w, h, c and the label.
  ByteReader reader(blob.subspan(kInstanceHeaderBytes - 4));
  nn::Image image;
  image.shape = header->shape;
  image.pixels = reader.ReadF32Vector();
  return {std::move(image), header->label};
}

crypto::Sha256Digest HashTrainingInstance(const nn::Image& image, int label) {
  return crypto::Sha256Hash(SerializeTrainingInstance(image, label));
}

DataPackager::DataPackager(std::string participant_id, BytesView key,
                           std::uint64_t nonce_seed,
                           const crypto::SchnorrKeyPair& signing_key)
    : participant_id_(std::move(participant_id)),
      cipher_(key),
      nonce_drbg_(SeedBytes(nonce_seed), BytesOf(participant_id_)),
      signing_key_(signing_key) {}

EncryptedRecord DataPackager::Pack(const nn::Image& image, int label) {
  EncryptedRecord record;
  record.participant_id = participant_id_;
  record.label = label;
  record.iv = nonce_drbg_.Generate(crypto::kGcmIvSize);
  const Bytes plaintext = SerializeTrainingInstance(image, label);
  const crypto::GcmSealed sealed =
      cipher_.Seal(record.iv, RecordAad(participant_id_, label), plaintext);
  record.ciphertext = sealed.ciphertext;
  record.tag.assign(sealed.tag.begin(), sealed.tag.end());
  const Bytes covered = record.SignedPortion();
  record.signature = crypto::SerializeSignature(crypto::SchnorrSign(
      signing_key_, BytesView(covered.data(), covered.size()), nonce_drbg_));
  return record;
}

std::vector<EncryptedRecord> DataPackager::PackAll(
    const LabeledDataset& dataset) {
  std::vector<EncryptedRecord> out;
  out.reserve(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    out.push_back(Pack(dataset.images[i], dataset.labels[i]));
  }
  return out;
}

std::optional<Bytes> OpenCheckedInstance(const EncryptedRecord& record,
                                         const crypto::AesGcm& cipher) {
  if (record.iv.size() != crypto::kGcmIvSize ||
      record.tag.size() != crypto::kGcmTagSize) {
    return std::nullopt;
  }
  auto plaintext = cipher.Open(
      record.iv, RecordAad(record.participant_id, record.label),
      record.ciphertext,
      std::span<const std::uint8_t, crypto::kGcmTagSize>(
          record.tag.data(), crypto::kGcmTagSize));
  if (!plaintext.has_value()) return std::nullopt;
  const auto header = ParseInstanceHeader(*plaintext);
  if (!header.has_value() || header->label != record.label) {
    return std::nullopt;  // malformed inner blob or inner/outer mismatch
  }
  return plaintext;
}

std::optional<VerifiedRecord> OpenRecord(const EncryptedRecord& record,
                                         const crypto::AesGcm& cipher) {
  // A batch of one: the content hash lives in one place.
  const EncryptedRecord* const records[] = {&record};
  const crypto::AesGcm* const ciphers[] = {&cipher};
  return std::move(OpenRecordsBatch(records, ciphers).front());
}

std::vector<std::optional<VerifiedRecord>> OpenRecordsBatch(
    std::span<const EncryptedRecord* const> records,
    std::span<const crypto::AesGcm* const> ciphers) {
  CALTRAIN_REQUIRE(records.size() == ciphers.size(),
                   "record/cipher count mismatch in batch open");
  std::vector<std::optional<VerifiedRecord>> results(records.size());

  // Pass 1: open and check each record, then decode the survivors'
  // images, keeping their plaintexts for the hash batch.
  std::vector<Bytes> plaintexts(records.size());
  std::vector<BytesView> to_hash;
  std::vector<std::size_t> hash_index;
  to_hash.reserve(records.size());
  hash_index.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    auto plaintext = OpenCheckedInstance(*records[i], *ciphers[i]);
    if (!plaintext.has_value()) continue;
    auto [image, label] = DeserializeTrainingInstance(*plaintext);
    VerifiedRecord verified;
    verified.image = std::move(image);
    verified.label = label;
    verified.participant_id = records[i]->participant_id;
    results[i] = std::move(verified);
    plaintexts[i] = std::move(*plaintext);
    // The plaintext IS the canonical instance serialization, so its
    // hash equals HashTrainingInstance without re-serializing.
    to_hash.emplace_back(plaintexts[i].data(), plaintexts[i].size());
    hash_index.push_back(i);
  }

  // Pass 2: all content hashes in one multi-buffer sweep.
  if (!to_hash.empty()) {
    std::vector<crypto::Sha256Digest> digests(to_hash.size());
    crypto::Sha256Batch(
        std::span<const BytesView>(to_hash.data(), to_hash.size()),
        digests.data());
    for (std::size_t k = 0; k < hash_index.size(); ++k) {
      results[hash_index[k]]->content_hash = digests[k];
    }
  }
  return results;
}

}  // namespace caltrain::data
