#include "net/client.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <utility>

#include "util/error.hpp"

namespace caltrain::net {

namespace {

[[noreturn]] void ThrowTransport(const std::string& what) {
  ThrowError(ErrorKind::kUnavailable,
             what + ": " + std::string(::strerror(errno)));
}

/// Rethrows a typed error frame through serve::Result's
/// ServeError→ErrorKind mapping (kAuthFailure stays kAuthFailure, a
/// version mismatch stays kInvalidArgument and is NOT retried, ...).
[[noreturn]] void ThrowRemote(serve::ServeError error) {
  (void)serve::Result<int>(std::move(error)).value();
  ThrowError(ErrorKind::kInternal, "Result::value() returned on an error");
}

}  // namespace

const Client::HelloInfo& Client::Connect() {
  // Call() supplies the retry loop for request paths; the bare
  // connect/handshake entry point needs its own.
  util::RetryTransient(options_.backoff, [&] { EnsureConnected(); });
  return hello_;
}

void Client::Disconnect() noexcept {
  fd_.reset();
  decoder_ = FrameDecoder();
}

void Client::EnsureConnected() {
  if (fd_.valid()) return;
  decoder_ = FrameDecoder();

  util::UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) ThrowTransport("socket");

  timeval tv{};
  const auto us = std::chrono::microseconds(kIoTimeout).count();
  tv.tv_sec = us / 1'000'000;
  tv.tv_usec = us % 1'000'000;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ThrowError(ErrorKind::kInvalidArgument,
               "bad host address '" + options_.host + "' (IPv4 only)");
  }
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ThrowTransport("connect " + options_.host + ":" +
                   std::to_string(options_.port));
  }
  const int one = 1;
  (void)::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = std::move(fd);

  // Version negotiation before anything else rides the connection.
  try {
    SendFrame(EncodeFrame(EncodeHello(HelloRequest{})));
    Frame reply = ReadFrame();
    if (reply.type == MsgType::kError) {
      serve::ServeError error = DecodeError(reply.body());
      Disconnect();
      ThrowRemote(std::move(error));
    }
    if (reply.type != MsgType::kHelloAck) {
      ThrowError(ErrorKind::kUnavailable,
                 "expected hello ack, got " +
                     std::string(ToString(reply.type)));
    }
    const HelloAck ack = DecodeHelloAck(reply.body());
    hello_.version = ack.version;
    hello_.max_frame_bytes = ack.max_frame_bytes;
    hello_.attestation_public_key =
        crypto::U128FromBytes(ack.attestation_public_key);
    std::copy(ack.measurement.begin(), ack.measurement.end(),
              hello_.measurement.begin());
  } catch (...) {
    Disconnect();
    throw;
  }
}

void Client::SendFrame(const Bytes& frame) {
  (void)util::FaultPoint("net.write");
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(fd_.get(), frame.data() + sent,
                             frame.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        ThrowError(ErrorKind::kUnavailable, "send timed out");
      }
      ThrowTransport("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

Frame Client::ReadFrame() {
  for (;;) {
    Frame frame;
    switch (decoder_.Next(frame)) {
      case FrameDecoder::Status::kFrame:
        return frame;
      case FrameDecoder::Status::kCorrupt:
        ThrowError(ErrorKind::kUnavailable,
                   "corrupt server frame: " + decoder_.error());
      case FrameDecoder::Status::kNeedMore:
        break;
    }
    std::uint8_t chunk[64 * 1024];
    const ssize_t n = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
    if (n > 0) {
      decoder_.Feed(BytesView(chunk, static_cast<std::size_t>(n)));
      continue;
    }
    if (n == 0) {
      ThrowError(ErrorKind::kUnavailable, "server closed the connection");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      ThrowError(ErrorKind::kUnavailable, "receive timed out");
    }
    ThrowTransport("recv");
  }
}

Frame Client::Roundtrip(const Bytes& frame) {
  EnsureConnected();
  try {
    SendFrame(frame);
    return ReadFrame();
  } catch (...) {
    // Connection state is unknown after a mid-exchange fault; the
    // retry (if the error is transient) starts from a fresh socket.
    Disconnect();
    throw;
  }
}

template <typename T, typename DecodeFn>
serve::Result<T> Client::Call(const Bytes& frame, MsgType expected,
                              DecodeFn decode) {
  try {
    return util::RetryTransient(
        options_.backoff, [&]() -> serve::Result<T> {
          Frame reply = Roundtrip(frame);
          if (reply.type == MsgType::kError) {
            // A typed error is an ANSWER, not a transport fault — the
            // connection stays up and nothing is retried.
            return serve::Result<T>(DecodeError(reply.body()));
          }
          if (reply.type != expected) {
            Disconnect();
            ThrowError(ErrorKind::kUnavailable,
                       "expected " + std::string(ToString(expected)) +
                           ", got " + std::string(ToString(reply.type)));
          }
          return serve::Result<T>(decode(reply.body()));
        });
  } catch (const Error& e) {
    // Exhausted retry budget (kUnavailable → kRetryExhausted) or a
    // non-transient failure such as a malformed server reply.
    return serve::Result<T>(serve::FromError(e));
  }
}

serve::Result<serve::SessionId> Client::OpenSession(
    const std::string& participant_id) {
  auto result = Call<OpenSessionAck>(
      EncodeFrame(EncodeOpenSession({participant_id})),
      MsgType::kOpenSessionAck, DecodeOpenSessionAck);
  if (!result.ok()) return result.error();
  return serve::Result<serve::SessionId>(result.value().session);
}

serve::Result<serve::UploadReceipt> Client::SubmitUpload(
    serve::SessionId session, std::vector<data::EncryptedRecord> records) {
  SubmitUploadRequest request;
  request.session = session;
  // The sequence is minted ONCE per application-level submission; a
  // transport-level resubmit reuses it and the server's idempotency
  // gate replays the original outcome instead of re-ingesting.
  request.upload_seq = next_seq_[session]++;
  request.records = std::move(records);
  return Call<serve::UploadReceipt>(EncodeSubmitUploadFrame(request),
                                    MsgType::kUploadReceipt,
                                    DecodeUploadReceipt);
}

serve::Result<serve::SessionStats> Client::CloseSession(
    serve::SessionId session) {
  auto result = Call<serve::SessionStats>(
      EncodeFrame(EncodeCloseSession({session})),
      MsgType::kCloseSessionAck, DecodeCloseSessionAck);
  if (result.ok()) next_seq_.erase(session);
  return result;
}

serve::Result<core::MispredictionReport> Client::Investigate(
    nn::Image input, std::size_t k) {
  InvestigateRequest request;
  request.input = std::move(input);
  request.k = k;
  return Call<core::MispredictionReport>(
      EncodeFrame(EncodeInvestigate(request)),
      MsgType::kInvestigateAck, DecodeInvestigateAck);
}

serve::Result<std::vector<core::MispredictionReport>>
Client::InvestigateBatch(std::vector<nn::Image> inputs, std::size_t k) {
  InvestigateBatchRequest request;
  request.inputs = std::move(inputs);
  request.k = k;
  return Call<std::vector<core::MispredictionReport>>(
      EncodeFrame(EncodeInvestigateBatch(request)),
      MsgType::kInvestigateBatchAck, DecodeInvestigateBatchAck);
}

serve::Result<core::TrainingServer::ReleasedModel> Client::Release(
    const std::string& participant_id) {
  return Call<core::TrainingServer::ReleasedModel>(
      EncodeFrame(EncodeRelease({participant_id})),
      MsgType::kReleaseAck, DecodeReleaseAck);
}

serve::Result<StatusAck> Client::Status() {
  return Call<StatusAck>(EncodeFrame(EncodeStatus()), MsgType::kStatusAck,
                         DecodeStatusAck);
}

Bytes Client::ProvisionHello(const std::string& participant_id,
                             BytesView client_hello) {
  ProvisionMsg msg;
  msg.participant_id = participant_id;
  msg.blob.assign(client_hello.begin(), client_hello.end());
  auto result = Call<ProvisionBlobAck>(
      EncodeFrame(EncodeProvision(MsgType::kProvisionHello, msg)),
      MsgType::kProvisionHelloAck, DecodeProvisionBlobAck);
  return std::move(std::move(result).value().blob);
}

bool Client::ProvisionFinished(const std::string& participant_id,
                               BytesView finished) {
  ProvisionMsg msg;
  msg.participant_id = participant_id;
  msg.blob.assign(finished.begin(), finished.end());
  return Call<ProvisionOkAck>(
             EncodeFrame(EncodeProvision(MsgType::kProvisionFinished, msg)),
             MsgType::kProvisionFinishedAck, DecodeProvisionOkAck)
      .value()
      .ok;
}

bool Client::ProvisionKey(const std::string& participant_id,
                          BytesView record) {
  ProvisionMsg msg;
  msg.participant_id = participant_id;
  msg.blob.assign(record.begin(), record.end());
  return Call<ProvisionOkAck>(
             EncodeFrame(EncodeProvision(MsgType::kProvisionKey, msg)),
             MsgType::kProvisionKeyAck, DecodeProvisionOkAck)
      .value()
      .ok;
}

}  // namespace caltrain::net
