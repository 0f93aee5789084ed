// Blocking client for the serving wire protocol (ISSUE 10).
//
// One TCP connection, one request in flight — the shape tests, the
// example, and the bench need.  Reliability is layered on top of the
// ISSUE-9 fault machinery rather than reinvented:
//
//   * Transport faults (connection refused, peer reset, send/receive
//     timeout, a corrupt server frame, injected net.write) surface as
//     Error(kUnavailable) and every request runs under
//     util::RetryTransient with capped deterministic backoff — the
//     client reconnects, re-handshakes, and resubmits automatically.
//   * Resubmitted uploads are idempotent: the client assigns each
//     session a monotonically increasing upload sequence BEFORE the
//     retry loop, so the server's idempotency gate replays the original
//     receipt instead of ingesting the records twice.
//   * Typed error frames are NOT retried — they are answers, and they
//     come back as serve::Result errors exactly like the in-process
//     API.  An exhausted retry budget maps to kRetryExhausted.
//
// The client implements core::ProvisionTransport, so a remote
// Participant provisions through Participant::ProvisionVia with the
// full attested-handshake guarantees — the wire just tunnels the
// opaque securechannel blobs.
//
// Instances are externally synchronized: one thread at a time.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/participant.hpp"
#include "crypto/group.hpp"
#include "crypto/sha256.hpp"
#include "net/codec.hpp"
#include "net/wire.hpp"
#include "serve/result.hpp"
#include "serve/service.hpp"
#include "util/fault.hpp"
#include "util/fd.hpp"

namespace caltrain::net {

struct ClientOptions {
  /// IPv4 dotted-quad only (no resolver dependency).
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Reconnect/resubmit schedule for transient transport faults.
  util::BackoffPolicy backoff;
};

class Client final : public core::ProvisionTransport {
 public:
  explicit Client(ClientOptions options) : options_(std::move(options)) {}
  ~Client() override { Disconnect(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// What the server's HelloAck announced, cached per connection.
  struct HelloInfo {
    std::uint32_t version = 0;
    std::uint64_t max_frame_bytes = 0;
    crypto::U128 attestation_public_key = 0;
    crypto::Sha256Digest measurement{};
  };

  /// Connects and handshakes if not already connected; returns the
  /// negotiated parameters.  Throws Error(kUnavailable) when the
  /// server cannot be reached (after the backoff budget) and
  /// Error(kInvalidArgument) on a version-range mismatch.
  const HelloInfo& Connect();

  /// Drops the connection (the next request reconnects).
  void Disconnect() noexcept;

  // --- session API (mirrors serve::Service, minus train/fingerprint
  // --- which stay operator-side) --------------------------------------
  [[nodiscard]] serve::Result<serve::SessionId> OpenSession(
      const std::string& participant_id);
  [[nodiscard]] serve::Result<serve::UploadReceipt> SubmitUpload(
      serve::SessionId session, std::vector<data::EncryptedRecord> records);
  [[nodiscard]] serve::Result<serve::SessionStats> CloseSession(
      serve::SessionId session);
  [[nodiscard]] serve::Result<core::MispredictionReport> Investigate(
      nn::Image input, std::size_t k);
  [[nodiscard]] serve::Result<std::vector<core::MispredictionReport>>
  InvestigateBatch(std::vector<nn::Image> inputs, std::size_t k);
  [[nodiscard]] serve::Result<core::TrainingServer::ReleasedModel> Release(
      const std::string& participant_id);
  [[nodiscard]] serve::Result<StatusAck> Status();

  // --- core::ProvisionTransport (Participant::ProvisionVia) -----------
  /// These throw the typed caltrain::Error on rejection (kAuthFailure
  /// for a refused handshake), matching the in-process transport.
  Bytes ProvisionHello(const std::string& participant_id,
                       BytesView client_hello) override;
  bool ProvisionFinished(const std::string& participant_id,
                         BytesView finished) override;
  bool ProvisionKey(const std::string& participant_id,
                    BytesView record) override;

 private:
  void EnsureConnected();
  /// Sends one frame; declares the net.write fault point.  Throws
  /// Error(kUnavailable) on any failure.
  void SendFrame(const Bytes& frame);
  /// Blocks until one complete frame arrives.  Throws
  /// Error(kUnavailable) on EOF, timeout, or stream corruption.
  Frame ReadFrame();
  /// One request/response exchange on a (re)established connection.
  /// Takes the fully framed request so bulk messages can be framed in
  /// place once and resent verbatim on every retry.
  Frame Roundtrip(const Bytes& frame);
  /// Full request pipeline: retry transport faults per the backoff
  /// policy, map typed error frames and exhausted budgets onto
  /// serve::Result.
  template <typename T, typename DecodeFn>
  [[nodiscard]] serve::Result<T> Call(const Bytes& frame, MsgType expected,
                                      DecodeFn decode);

  /// Per-send/receive socket timeout; an expiry is a transient
  /// transport fault (reconnect + retry).
  static constexpr std::chrono::milliseconds kIoTimeout{30000};
  ClientOptions options_;
  util::UniqueFd fd_;
  FrameDecoder decoder_;
  HelloInfo hello_;
  /// Next upload sequence per session — assigned before the retry
  /// loop so every transport-level resubmit carries the same number.
  std::map<serve::SessionId, std::uint64_t> next_seq_;
};

}  // namespace caltrain::net
