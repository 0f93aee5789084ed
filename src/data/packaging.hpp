// Participant-side data packaging (paper Sec. IV-A).
//
// Each participant locally seals every training record with its own
// symmetric key using AES-256-GCM and signs it with its own Schnorr
// key.  Per the threat model, the class label travels in the clear
// (participants "release the training data labels attached to their
// corresponding (encrypted) training instances") but is covered by the
// authentication tag via the AAD, so a label cannot be flipped in
// transit.  The enclave verifies the signature and the tag with the
// provisioned keys — records from unregistered sources or tampered
// channels fail authentication and are discarded.
#pragma once

#include <optional>
#include <string>

#include "crypto/drbg.hpp"
#include "crypto/gcm.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "data/dataset.hpp"
#include "nn/tensor.hpp"
#include "util/serial.hpp"

namespace caltrain::data {

/// Wire form of one encrypted training record.
struct EncryptedRecord {
  std::string participant_id;  ///< claimed source (authenticated via AAD)
  int label = 0;               ///< plaintext label (authenticated via AAD)
  Bytes iv;                    ///< 12-byte GCM nonce
  Bytes ciphertext;            ///< encrypted serialized image
  Bytes tag;                   ///< 16-byte GCM tag
  /// 32-byte Schnorr signature over SignedPortion(), made with the
  /// participant's provisioned signing key.  The server rejects a
  /// record whose signature is missing, mis-sized or does not verify.
  Bytes signature;

  /// The bytes the upload signature covers: every field except the
  /// signature itself, in Serialize() order.
  [[nodiscard]] Bytes SignedPortion() const;

  /// Exact byte count Serialize() produces — lets bulk encoders
  /// (the upload wire codec) reserve once instead of growing.
  [[nodiscard]] std::size_t SerializedSize() const noexcept;
  /// Appends the Serialize() bytes to an existing writer, no temp.
  void SerializeTo(ByteWriter& writer) const;
  [[nodiscard]] Bytes Serialize() const;
  [[nodiscard]] static EncryptedRecord Deserialize(BytesView blob);
};

/// Result of in-enclave verification + decryption.
struct VerifiedRecord {
  nn::Image image;
  int label = 0;
  std::string participant_id;
  crypto::Sha256Digest content_hash{};  ///< H of the linkage tuple
};

/// Canonical serialization of (image, label) — the bytes that are
/// encrypted and the bytes the linkage hash H covers.
[[nodiscard]] Bytes SerializeTrainingInstance(const nn::Image& image,
                                              int label);
/// Throws kInvalidArgument unless `blob` is a well-formed instance:
/// positive dimensions, w*h within the pixel count, Flat() equal to the
/// count, no trailing bytes (the same rule OpenCheckedInstance applies).
[[nodiscard]] std::pair<nn::Image, int> DeserializeTrainingInstance(
    BytesView blob);

/// Hash digest H over the canonical instance bytes.
[[nodiscard]] crypto::Sha256Digest HashTrainingInstance(const nn::Image& image,
                                                        int label);

/// Participant-side packer: one per participant, bound to its data
/// key and signing key.  Every packed record carries a Schnorr
/// signature over its wire bytes, which the server verifies in
/// aggregated batches (crypto::SchnorrVerifyBatch) on the ingest path.
class DataPackager {
 public:
  DataPackager(std::string participant_id, BytesView key,
               std::uint64_t nonce_seed,
               const crypto::SchnorrKeyPair& signing_key);

  [[nodiscard]] EncryptedRecord Pack(const nn::Image& image, int label);

  /// Packs a whole local dataset.
  [[nodiscard]] std::vector<EncryptedRecord> PackAll(
      const LabeledDataset& dataset);

  [[nodiscard]] const std::string& participant_id() const noexcept {
    return participant_id_;
  }

 private:
  std::string participant_id_;
  crypto::AesGcm cipher_;
  crypto::HmacDrbg nonce_drbg_;
  crypto::SchnorrKeyPair signing_key_;
};

/// The ingest accept rule: checks the iv and tag sizes, GCM-opens the
/// record under its AAD (participant id, label) with the provisioned
/// key's cipher, and checks the plaintext is a well-formed training
/// instance whose inner label equals the outer one.  Returns that
/// plaintext, the canonical instance bytes, or nullopt when the record
/// fails (forged source, bit-flips, flipped label, malformed instance).
/// Builds no image and no content hash.
[[nodiscard]] std::optional<Bytes> OpenCheckedInstance(
    const EncryptedRecord& record, const crypto::AesGcm& cipher);

/// Enclave-side opener: OpenCheckedInstance, then the decoded image and
/// the linkage content hash.  Returns nullopt when the record fails
/// authentication — the caller must discard it (paper: "injected
/// training data from unregistered training participants will be
/// discarded").
[[nodiscard]] std::optional<VerifiedRecord> OpenRecord(
    const EncryptedRecord& record, const crypto::AesGcm& cipher);

/// Batch form of OpenRecord: opens every record (records[i] with
/// ciphers[i]) and computes the content hashes with the multi-buffer
/// SHA-256 engine instead of one hash per record.  results[i] is
/// nullopt exactly where OpenRecord(records[i], ciphers[i]) would
/// reject.
[[nodiscard]] std::vector<std::optional<VerifiedRecord>> OpenRecordsBatch(
    std::span<const EncryptedRecord* const> records,
    std::span<const crypto::AesGcm* const> ciphers);

}  // namespace caltrain::data
