// Seeded forged-upload mixes for the one authentication path.
//
// Two participants whose data and signing keys the test holds, so it
// can sign records that are bad in other ways, provisioned through the
// same securechannel client flow core::Participant uses.  Each seed
// mixes their clean signed records with forgeries that are each bad in
// exactly one way, and a per-record oracle (one SchnorrVerify plus one
// data::OpenRecord) gives the verdict every ingest path must reproduce.
//
// A failing seed is printed by the caller's SCOPED_TRACE; set
// CALTRAIN_FORGED_MIX_SEED=<seed> to replay only that seed.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/server.hpp"
#include "crypto/drbg.hpp"
#include "crypto/gcm.hpp"
#include "crypto/schnorr.hpp"
#include "data/packaging.hpp"
#include "securechannel/handshake.hpp"
#include "securechannel/record.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"

namespace caltrain::forged_mix {

inline Bytes SeedBytes(std::uint64_t seed) {
  Bytes out(8);
  StoreLe64(out.data(), seed);
  return out;
}

/// A signing key nobody provisioned: forgers sign with one, so their
/// records fail the signature check rather than carry no signature.
inline crypto::SchnorrKeyPair ThrowawaySigningKey(std::uint64_t seed) {
  crypto::HmacDrbg drbg(SeedBytes(seed), BytesOf("throwaway signing key"));
  return crypto::SchnorrGenerate(drbg);
}

/// A participant's key material, held by the test.
struct HeldKeys {
  std::string id;
  Bytes data_key;
  crypto::SchnorrKeyPair signing_key;
};

inline HeldKeys MakeHeldKeys(std::string id, std::uint64_t seed) {
  crypto::HmacDrbg drbg(SeedBytes(seed), BytesOf(id));
  HeldKeys keys;
  keys.id = std::move(id);
  keys.data_key = drbg.Generate(32);
  keys.signing_key = crypto::SchnorrGenerate(drbg);
  return keys;
}

/// The provisioning payload: the length-prefixed (data key, signing
/// public key) pair.
inline Bytes CredentialsPayload(const Bytes& data_key, crypto::U128 sign_pub) {
  ByteWriter writer;
  writer.WriteBytes(data_key);
  writer.WriteBytes(crypto::U128ToBytes(sign_pub));
  return writer.Take();
}

/// Runs a real attested handshake for `id` and sends `payload` as the
/// protected provisioning record; returns HandleKeyProvision's answer.
inline bool ProvisionPayload(core::TrainingServer& server,
                             const std::string& id, const Bytes& payload,
                             std::uint64_t seed) {
  crypto::HmacDrbg drbg(SeedBytes(seed), BytesOf("handshake:" + id));
  securechannel::ClientHandshake handshake(server.attestation_public_key(),
                                           server.training_measurement(),
                                           drbg);
  const Bytes server_hello = server.HandleClientHello(id, handshake.Hello());
  const Bytes finished = handshake.OnServerHello(server_hello);
  if (!server.HandleClientFinished(id, finished)) return false;
  securechannel::RecordWriter writer(handshake.keys().client_write_key);
  return server.HandleKeyProvision(id, writer.Protect(payload, BytesOf(id)));
}

inline bool Provision(core::TrainingServer& server, const HeldKeys& keys,
                      std::uint64_t seed) {
  return ProvisionPayload(
      server, keys.id,
      CredentialsPayload(keys.data_key, keys.signing_key.public_value), seed);
}

/// What is wrong with a record of the mix (kClean: nothing).
enum class Forgery {
  kClean,
  kUnregistered,   ///< source nobody provisioned
  kStripped,       ///< signature removed
  kTruncated,      ///< signature cut to 31 bytes
  kOtherKey,       ///< signed by the other participant's key
  kFlipped,        ///< a covered field flipped after signing
  kWrongDataKey,   ///< valid signature, sealed under the wrong data key
  kUndecodable,    ///< valid signature and tag, plaintext a NearMiss
  kLabelMismatch,  ///< valid signature and tag, inner label != outer
};
inline constexpr int kForgeryKinds = 8;

inline const char* ForgeryName(Forgery kind) {
  switch (kind) {
    case Forgery::kClean: return "clean";
    case Forgery::kUnregistered: return "unregistered";
    case Forgery::kStripped: return "stripped";
    case Forgery::kTruncated: return "truncated";
    case Forgery::kOtherKey: return "other-key";
    case Forgery::kFlipped: return "flipped";
    case Forgery::kWrongDataKey: return "wrong-data-key";
    case Forgery::kUndecodable: return "undecodable";
    case Forgery::kLabelMismatch: return "label-mismatch";
  }
  return "?";
}

struct Mix {
  std::vector<data::EncryptedRecord> records;
  std::vector<Forgery> kinds;  ///< parallel to records
  [[nodiscard]] std::size_t clean() const {
    std::size_t n = 0;
    for (const Forgery kind : kinds) n += kind == Forgery::kClean ? 1 : 0;
    return n;
  }
};

/// Seals `plaintext` under `keys`' data key with the record AAD
/// (participant id, label — the layout data::DataPackager uses) and
/// signs the result with `keys`' signing key.
inline data::EncryptedRecord SealAndSign(const HeldKeys& keys, int label,
                                         const Bytes& plaintext,
                                         crypto::HmacDrbg& drbg) {
  data::EncryptedRecord record;
  record.participant_id = keys.id;
  record.label = label;
  record.iv = drbg.Generate(crypto::kGcmIvSize);
  ByteWriter aad;
  aad.WriteString(keys.id);
  aad.WriteU32(static_cast<std::uint32_t>(label));
  const crypto::GcmSealed sealed =
      crypto::AesGcm(keys.data_key).Seal(record.iv, aad.Take(), plaintext);
  record.ciphertext = sealed.ciphertext;
  record.tag.assign(sealed.tag.begin(), sealed.tag.end());
  const Bytes covered = record.SignedPortion();
  record.signature = crypto::SerializeSignature(
      crypto::SchnorrSign(keys.signing_key, covered, drbg));
  return record;
}

/// How an undecodable plaintext is wrong.  Apart from kJunk, each is a
/// near miss: a well-formed instance header wrong in exactly one way.
enum class NearMiss {
  kJunk,           ///< 8–72 random bytes
  kZeroDim,        ///< w, h or c is 0
  kNegativeDim,    ///< w, h or c is negative as i32
  kAreaOverCount,  ///< w*h greater than the pixel count
  kFlatMismatch,   ///< w*h within the count, Flat() != count
  kShortPayload,   ///< float payload short by 1–3 bytes
  kTrailing,       ///< 1–4 bytes after the float payload
};
inline constexpr int kNearMissKinds = 7;

/// A serialized instance whose header fields are set directly.
inline Bytes InstanceBlob(std::uint32_t w, std::uint32_t h, std::uint32_t c,
                          int label, std::size_t pixels, Rng& rng) {
  std::vector<float> values(pixels);
  for (float& v : values) v = rng.UniformFloat();
  ByteWriter writer;
  writer.WriteU32(w);
  writer.WriteU32(h);
  writer.WriteU32(c);
  writer.WriteU32(static_cast<std::uint32_t>(label));
  writer.WriteF32Vector(values);
  return writer.Take();
}

/// A seeded plaintext that is not a training instance, wrong as `kind`
/// says; every other header field is consistent with a valid instance.
inline Bytes UndecodableInstance(NearMiss kind, int label, Rng& rng) {
  std::uint32_t dims[3] = {
      static_cast<std::uint32_t>(1 + rng.NextU64() % 6),
      static_cast<std::uint32_t>(1 + rng.NextU64() % 6),
      static_cast<std::uint32_t>(1 + rng.NextU64() % 3)};
  const std::size_t count = std::size_t{dims[0]} * dims[1] * dims[2];
  const auto blob = [&](std::size_t pixels) {
    return InstanceBlob(dims[0], dims[1], dims[2], label, pixels, rng);
  };
  switch (kind) {
    case NearMiss::kJunk: {
      Bytes junk(8 + rng.NextU64() % 64);
      for (auto& byte : junk) byte = static_cast<std::uint8_t>(rng.NextU64());
      return junk;
    }
    case NearMiss::kZeroDim:
      dims[rng.NextU64() % 3] = 0;
      return blob(count);
    case NearMiss::kNegativeDim:
      dims[rng.NextU64() % 3] =
          static_cast<std::uint32_t>((rng.NextU64() & 1) != 0
                                         ? 0x80000000U + rng.NextU64() % 4
                                         : 0xffffffffU - rng.NextU64() % 4);
      return blob(count);
    case NearMiss::kAreaOverCount:
      dims[0] = static_cast<std::uint32_t>(count / dims[1] + 1 +
                                           rng.NextU64() % 3);
      return blob(count);
    case NearMiss::kFlatMismatch:
      // Extra pixels, or one channel more than the pixels carry.
      if ((rng.NextU64() & 1) != 0) return blob(count + 1 + rng.NextU64() % 3);
      dims[2] += 1;
      return blob(count);
    case NearMiss::kShortPayload: {
      Bytes out = blob(count);
      out.resize(out.size() - 1 - rng.NextU64() % 3);
      return out;
    }
    case NearMiss::kTrailing: {
      Bytes out = blob(count);
      for (std::uint64_t i = 0, n = 1 + rng.NextU64() % 4; i < n; ++i) {
        out.push_back(static_cast<std::uint8_t>(rng.NextU64()));
      }
      return out;
    }
  }
  return {};
}

/// One seed's mix: 2–9 clean records from each of `a` and `b`, every
/// forgery kind at least once plus up to 6 more, in seeded order.
inline Mix MakeMix(const HeldKeys& a, const HeldKeys& b, std::uint64_t seed) {
  Rng rng(seed);
  crypto::HmacDrbg drbg(SeedBytes(seed), BytesOf("forged mix"));
  const auto random_image = [&rng] {
    nn::Image image(nn::Shape{4, 4, 3});
    for (float& p : image.pixels) p = rng.UniformFloat();
    return image;
  };
  const auto random_label = [&rng] {
    return static_cast<int>(rng.NextU64() % 10);
  };
  const auto pack = [&](data::DataPackager& packer) {
    const nn::Image image = random_image();
    return packer.Pack(image, random_label());
  };
  data::DataPackager pack_a(a.id, a.data_key, seed * 2 + 1, a.signing_key);
  data::DataPackager pack_b(b.id, b.data_key, seed * 2 + 2, b.signing_key);
  const auto clean_from = [&](const HeldKeys& keys) {
    return pack(&keys == &a ? pack_a : pack_b);
  };

  std::vector<Forgery> kinds;
  for (std::uint64_t i = 0, n = 2 + rng.NextU64() % 8; i < n; ++i) {
    kinds.push_back(Forgery::kClean);  // from a
  }
  const std::size_t clean_a = kinds.size();
  for (std::uint64_t i = 0, n = 2 + rng.NextU64() % 8; i < n; ++i) {
    kinds.push_back(Forgery::kClean);  // from b
  }
  for (int k = 1; k <= kForgeryKinds; ++k) {
    kinds.push_back(static_cast<Forgery>(k));
  }
  for (std::uint64_t i = 0, n = rng.NextU64() % 7; i < n; ++i) {
    kinds.push_back(
        static_cast<Forgery>(1 + rng.NextU64() % kForgeryKinds));
  }

  Mix mix;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    // Forgeries claim a or b at random; clean records keep their owner.
    const HeldKeys& owner =
        kinds[i] == Forgery::kClean
            ? (i < clean_a ? a : b)
            : ((rng.NextU64() & 1) != 0 ? a : b);
    const HeldKeys& other = &owner == &a ? b : a;
    data::EncryptedRecord record;
    switch (kinds[i]) {
      case Forgery::kClean:
        record = clean_from(owner);
        break;
      case Forgery::kUnregistered: {
        data::DataPackager stranger("mallory", drbg.Generate(32), seed,
                                    ThrowawaySigningKey(seed));
        record = pack(stranger);
        break;
      }
      case Forgery::kStripped:
        record = clean_from(owner);
        record.signature.clear();
        break;
      case Forgery::kTruncated:
        record = clean_from(owner);
        record.signature.resize(31);
        break;
      case Forgery::kOtherKey: {
        data::DataPackager packer(owner.id, owner.data_key, seed ^ 0x07e4,
                                  other.signing_key);
        record = pack(packer);
        break;
      }
      case Forgery::kFlipped: {
        record = clean_from(owner);
        const std::uint8_t bit = static_cast<std::uint8_t>(
            1U << (rng.NextU64() % 8));
        switch (rng.NextU64() % 4) {
          case 0: record.label ^= 1; break;
          case 1: record.iv[rng.NextU64() % record.iv.size()] ^= bit; break;
          case 2:
            record.ciphertext[rng.NextU64() % record.ciphertext.size()] ^=
                bit;
            break;
          default:
            record.tag[rng.NextU64() % record.tag.size()] ^= bit;
            break;
        }
        break;
      }
      case Forgery::kWrongDataKey: {
        data::DataPackager packer(owner.id, drbg.Generate(32), seed ^ 0x3a1,
                                  owner.signing_key);
        record = pack(packer);
        break;
      }
      case Forgery::kUndecodable: {
        const int label = random_label();
        const auto near_miss =
            static_cast<NearMiss>(rng.NextU64() % kNearMissKinds);
        record = SealAndSign(owner, label,
                             UndecodableInstance(near_miss, label, rng), drbg);
        break;
      }
      case Forgery::kLabelMismatch: {
        const int inner = random_label();
        record = SealAndSign(
            owner, (inner + 1) % 10,
            data::SerializeTrainingInstance(random_image(), inner), drbg);
        break;
      }
    }
    mix.records.push_back(std::move(record));
    mix.kinds.push_back(kinds[i]);
  }
  // Seeded shuffle, so credential runs and batch boundaries fall
  // anywhere in the mix.
  for (std::size_t i = mix.records.size(); i > 1; --i) {
    const std::size_t j = rng.NextU64() % i;
    std::swap(mix.records[i - 1], mix.records[j]);
    std::swap(mix.kinds[i - 1], mix.kinds[j]);
  }
  return mix;
}

/// Per-record oracle: a registered source, a 32-byte signature that one
/// SchnorrVerify accepts under the source's signing key, and a record
/// data::OpenRecord accepts under the source's data key.
inline std::vector<char> OracleVerdicts(
    const std::vector<data::EncryptedRecord>& records,
    const std::vector<const HeldKeys*>& registered) {
  std::vector<char> verdicts;
  for (const data::EncryptedRecord& record : records) {
    const HeldKeys* keys = nullptr;
    for (const HeldKeys* candidate : registered) {
      if (candidate->id == record.participant_id) keys = candidate;
    }
    bool ok = keys != nullptr && record.signature.size() == 32;
    if (ok) {
      const Bytes covered = record.SignedPortion();
      ok = crypto::SchnorrVerify(
          keys->signing_key.public_value, covered,
          crypto::DeserializeSignature(record.signature));
    }
    ok = ok && data::OpenRecord(record, crypto::AesGcm(keys->data_key))
                   .has_value();
    verdicts.push_back(ok ? 1 : 0);
  }
  return verdicts;
}

/// Seeds 1..count, or only CALTRAIN_FORGED_MIX_SEED when it is set.
inline std::vector<std::uint64_t> Seeds(std::uint64_t count) {
  if (const char* env = std::getenv("CALTRAIN_FORGED_MIX_SEED");
      env != nullptr && *env != '\0') {
    return {std::strtoull(env, nullptr, 10)};
  }
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 1; s <= count; ++s) seeds.push_back(s);
  return seeds;
}

inline std::string ReplayHint(std::uint64_t seed) {
  return "forged-mix seed " + std::to_string(seed) +
         " (replay: CALTRAIN_FORGED_MIX_SEED=" + std::to_string(seed) + ")";
}

/// Checks `mix` against the oracle and the construction (clean records
/// accepted, every forgery rejected); returns the oracle's verdicts.
inline std::vector<char> CheckedOracle(
    const Mix& mix, const std::vector<const HeldKeys*>& registered) {
  const std::vector<char> oracle = OracleVerdicts(mix.records, registered);
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(oracle[i] != 0, mix.kinds[i] == Forgery::kClean)
        << "record " << i << " (" << ForgeryName(mix.kinds[i]) << ")";
  }
  return oracle;
}

}  // namespace caltrain::forged_mix
