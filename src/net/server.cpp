#include "net/server.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "crypto/group.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace caltrain::net {

namespace {

[[noreturn]] void ThrowErrno(const std::string& what) {
  ThrowError(ErrorKind::kUnavailable,
             what + ": " + std::string(::strerror(errno)));
}

}  // namespace

Server::Server(serve::Service& service, ServerOptions options)
    : service_(service), options_(std::move(options)) {}

Server::~Server() { Stop(); }

void Server::Start() {
  CALTRAIN_CHECK(!started_, "Server::Start called twice");

  util::UniqueFd listener(::socket(
      AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!listener.valid()) ThrowErrno("socket");
  const int one = 1;
  (void)::setsockopt(listener.get(), SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ThrowError(ErrorKind::kInvalidArgument,
               "bad bind address '" + options_.bind_address + "'");
  }
  if (::bind(listener.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ThrowErrno("bind " + options_.bind_address + ":" +
               std::to_string(options_.port));
  }
  if (::listen(listener.get(), kListenBacklog) != 0) {
    ThrowErrno("listen");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listener.get(), reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    ThrowErrno("getsockname");
  }
  bound_port_ = ntohs(bound.sin_port);

  util::UniqueFd epoll(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll.valid()) ThrowErrno("epoll_create1");
  util::UniqueFd wake(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wake.valid()) ThrowErrno("eventfd");
  util::UniqueFd timer(
      ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC));
  if (!timer.valid()) ThrowErrno("timerfd_create");

  const auto add = [&](int fd, std::uint64_t tag) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = tag;
    if (::epoll_ctl(epoll.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
      ThrowErrno("epoll_ctl add");
    }
  };
  add(listener.get(), kListenTag);
  add(wake.get(), kWakeTag);
  add(timer.get(), kTimerTag);

  listen_fd_ = std::move(listener);
  epoll_fd_ = std::move(epoll);
  wake_fd_ = std::move(wake);
  timer_fd_ = std::move(timer);
  started_ = true;
  loop_ = std::thread([this] { Loop(); });
}

void Server::Stop() {
  if (!started_ || joined_) return;
  stop_requested_.store(true, std::memory_order_release);
  {
    // The eventfd write rides under cq_mu_ like every completion post,
    // so the final barrier below orders it against the loop's exit.
    util::MutexLock lock(cq_mu_);
    const std::uint64_t tick = 1;
    (void)!::write(wake_fd_.get(), &tick, sizeof(tick));
  }
  if (loop_.joinable()) loop_.join();
  joined_ = true;
  // Barrier: any post that made it past the pending_requests_
  // accounting has fully left its critical section (and its eventfd
  // write) before the fds below are closed.
  { util::MutexLock lock(cq_mu_); }
  connections_.clear();
  timer_fd_.reset();
  wake_fd_.reset();
  epoll_fd_.reset();
  listen_fd_.reset();
}

void Server::Loop() {
  std::chrono::steady_clock::time_point drain_deadline{};
  bool listener_open = true;
  for (;;) {
    if (stop_requested_.load(std::memory_order_acquire) && !draining_) {
      draining_ = true;
      drain_deadline =
          std::chrono::steady_clock::now() + kDrainTimeout;
      if (listener_open) {
        (void)::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, listen_fd_.get(),
                          nullptr);
        listen_fd_.reset();
        listener_open = false;
      }
      // Parked uploads waiting for a retry tick are not in flight with
      // the service — fail them now so their clients are not left
      // hanging (a resubmit after reconnect sees the advanced gate).
      std::vector<std::uint64_t> parked_ids;
      for (const auto& [id, conn] : connections_) {
        if (conn->parked && conn->parked->retry_due) parked_ids.push_back(id);
      }
      for (const std::uint64_t id : parked_ids) {
        const auto it = connections_.find(id);
        if (it == connections_.end()) continue;
        Completion synthetic;
        synthetic.conn_id = id;
        synthetic.session = it->second->parked->request.session;
        synthetic.upload_seq = it->second->parked->request.upload_seq;
        synthetic.upload.emplace(serve::Result<serve::UploadReceipt>(
            serve::ServeError{serve::ServeErrorKind::kWrongPhase,
                              "server is shutting down"}));
        ApplyUploadCompletion(synthetic);
      }
      for (auto& [id, conn] : connections_) UpdateEpoll(*conn);
    }
    if (draining_ && pending_requests_ == 0) {
      const bool backlog = std::any_of(
          connections_.begin(), connections_.end(),
          [](const auto& entry) { return entry.second->wants_write(); });
      if (!backlog ||
          std::chrono::steady_clock::now() >= drain_deadline) {
        break;
      }
    }

    epoll_event events[64];
    const int timeout_ms = draining_ ? 10 : -1;
    const int n = ::epoll_wait(epoll_fd_.get(), events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      CALTRAIN_LOG(kError) << "[net] epoll_wait failed: "
                           << ::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        if (listener_open) HandleAccept();
      } else if (tag == kWakeTag) {
        std::uint64_t drained = 0;
        while (::read(wake_fd_.get(), &drained, sizeof(drained)) > 0) {
        }
        DrainCompletions();
      } else if (tag == kTimerTag) {
        HandleTimer();
      } else {
        HandleConnectionEvent(tag, events[i].events);
      }
    }
  }
  connections_.clear();
}

void Server::HandleAccept() {
  for (;;) {
    util::UniqueFd fd(::accept4(listen_fd_.get(), nullptr, nullptr,
                                SOCK_NONBLOCK | SOCK_CLOEXEC));
    if (!fd.valid()) {
      // EAGAIN just means the backlog is drained; anything else is
      // transient too at this layer (level-triggered epoll re-arms).
      return;
    }
    if (util::FaultInjector::Global().armed()) {
      try {
        (void)util::FaultPoint("net.accept");
      } catch (const Error&) {
        // Injected accept failure: the kernel completed the TCP
        // handshake, so "failing" means dropping the fresh connection
        // — the client sees a reset and reconnects.
        continue;
      }
    }
    const int one = 1;
    (void)::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one,
                       sizeof(one));
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>(std::move(fd), id);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, conn->fd(), &ev) != 0) {
      continue;  // fd dies with `conn`
    }
    conn->epoll_mask = EPOLLIN;
    connections_.emplace(id, std::move(conn));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::PostCompletion(Completion completion) {
  util::MutexLock lock(cq_mu_);
  cq_.push_back(std::move(completion));
  const std::uint64_t tick = 1;
  (void)!::write(wake_fd_.get(), &tick, sizeof(tick));
}

void Server::DrainCompletions() {
  std::vector<Completion> batch;
  {
    util::MutexLock lock(cq_mu_);
    batch.swap(cq_);
  }
  for (Completion& completion : batch) {
    if (pending_requests_ > 0) --pending_requests_;
    if (completion.upload.has_value()) {
      ApplyUploadCompletion(completion);
      continue;
    }
    if (completion.erase_gate) gates_.erase(completion.session);
    const auto it = connections_.find(completion.conn_id);
    if (it == connections_.end()) continue;  // peer died mid-request
    Connection& conn = *it->second;
    conn.busy = false;
    if (!QueueResponse(conn, std::move(completion.frame))) {
      CloseConnection(completion.conn_id);
      continue;
    }
    ProcessFrames(conn.id());
  }
}

void Server::ApplyUploadCompletion(const Completion& completion) {
  serve::Result<serve::UploadReceipt> result = *completion.upload;
  const auto it = connections_.find(completion.conn_id);
  Connection* conn =
      it != connections_.end() ? it->second.get() : nullptr;

  if (!result.ok() &&
      result.error().kind == serve::ServeErrorKind::kQueueSaturated) {
    // The bounce enqueued nothing.  For a connection that is gone the
    // gate stays put, so a reconnecting client's resubmit of the same
    // sequence is processed fresh.  Otherwise this is the event-loop
    // equivalent of a waiting push: the upload stays parked and the
    // retry timer resubmits it — unless the server is shutting down.
    if (conn == nullptr) return;
    if (!stop_requested_.load(std::memory_order_acquire)) {
      conn->parked->retry_due = true;
      ArmRetryTimer();
      return;  // still busy; gate untouched
    }
    result = serve::Result<serve::UploadReceipt>(serve::ServeError{
        serve::ServeErrorKind::kWrongPhase, "server is shutting down"});
  }

  // Terminal (success OR error): the idempotency gate advances and the
  // response is cached, so a transport-level resubmit of this sequence
  // replays the SAME outcome instead of re-ingesting records.  The
  // client mints a fresh sequence for every application-level call, so
  // replayed errors are always answers to the same question.
  Bytes frame =
      result.ok() ? EncodeFrame(EncodeUploadReceipt(result.value()))
                  : EncodeFrame(EncodeError(result.error()));
  UploadGate& gate = gates_[completion.session];
  gate.next_seq = completion.upload_seq + 1;
  gate.last_response = frame;
  if (conn == nullptr) return;  // session outlives the connection
  conn->parked.reset();
  conn->busy = false;
  if (!QueueResponse(*conn, std::move(frame))) {
    CloseConnection(completion.conn_id);
    return;
  }
  ProcessFrames(completion.conn_id);
}

void Server::ArmRetryTimer() {
  if (retry_timer_armed_) return;
  itimerspec spec{};
  spec.it_value.tv_nsec =
      std::chrono::duration_cast<std::chrono::nanoseconds>(kParkedRetryInterval)
          .count();
  if (::timerfd_settime(timer_fd_.get(), 0, &spec, nullptr) == 0) {
    retry_timer_armed_ = true;
  }
}

void Server::HandleTimer() {
  std::uint64_t expirations = 0;
  while (::read(timer_fd_.get(), &expirations, sizeof(expirations)) > 0) {
  }
  retry_timer_armed_ = false;
  std::vector<std::uint64_t> due;
  for (const auto& [id, conn] : connections_) {
    if (conn->parked && conn->parked->retry_due) due.push_back(id);
  }
  for (const std::uint64_t id : due) {
    const auto it = connections_.find(id);
    if (it == connections_.end()) continue;
    Connection& conn = *it->second;
    conn.parked->retry_due = false;
    DispatchUpload(conn);
  }
}

void Server::HandleConnectionEvent(std::uint64_t conn_id,
                                   std::uint32_t events) {
  const auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  Connection* conn = it->second.get();
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    CloseConnection(conn_id);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    if (conn->FlushWrites() == Connection::IoResult::kClosed) {
      CloseConnection(conn_id);
      return;
    }
    if (conn->state == Connection::State::kClosing && !conn->wants_write()) {
      CloseConnection(conn_id);
      return;
    }
    UpdateEpoll(*conn);
  }
  if ((events & EPOLLIN) != 0) {
    if (conn->ReadIntoDecoder() == Connection::IoResult::kClosed) {
      // Peer gone.  Any in-flight completion will find the connection
      // missing; the upload gate still advances so a reconnect +
      // resubmit is answered from the cache.
      CloseConnection(conn_id);
      return;
    }
    ProcessFrames(conn_id);
  }
}

void Server::ProcessFrames(std::uint64_t conn_id) {
  for (;;) {
    const auto it = connections_.find(conn_id);
    if (it == connections_.end()) return;
    Connection& conn = *it->second;
    if (conn.busy || conn.state == Connection::State::kClosing ||
        draining_) {
      return;
    }
    Frame frame;
    switch (conn.decoder.Next(frame)) {
      case FrameDecoder::Status::kNeedMore:
        return;
      case FrameDecoder::Status::kCorrupt:
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        // Best effort: name the corruption in a typed frame, then cut
        // the stream — nothing after a framing error is trustworthy.
        (void)SendError(conn,
                        serve::ServeError{
                            serve::ServeErrorKind::kInvalidArgument,
                            "malformed frame: " + conn.decoder.error()},
                        /*close=*/true);
        return;
      case FrameDecoder::Status::kFrame:
        if (!HandleFrame(conn, std::move(frame))) return;
        break;
    }
  }
}

bool Server::HandleFrame(Connection& conn, Frame frame) {
  try {
    if (conn.state == Connection::State::kHandshake) {
      if (frame.type != MsgType::kHello) {
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        return SendError(
            conn,
            serve::ServeError{serve::ServeErrorKind::kInvalidArgument,
                              "expected hello, got " +
                                  std::string(ToString(frame.type))},
            /*close=*/true);
      }
      return HandleHello(conn, frame);
    }
    switch (frame.type) {
      case MsgType::kProvisionHello: {
        const ProvisionMsg msg = DecodeProvision(frame.body());
        Bytes reply;
        try {
          reply = service_.server().HandleClientHello(msg.participant_id,
                                                      msg.blob);
        } catch (const Error& e) {
          // A handshake the enclave rejects is a client problem, not a
          // protocol violation: typed error, connection stays up.
          return SendError(conn, serve::FromError(e), /*close=*/false);
        }
        return QueueResponse(conn, EncodeFrame(EncodeProvisionBlobAck(
                                       {std::move(reply)}))) ||
               (CloseConnection(conn.id()), false);
      }
      case MsgType::kProvisionFinished:
      case MsgType::kProvisionKey: {
        const ProvisionMsg msg = DecodeProvision(frame.body());
        bool ok = false;
        try {
          ok = frame.type == MsgType::kProvisionFinished
                   ? service_.server().HandleClientFinished(
                         msg.participant_id, msg.blob)
                   : service_.server().HandleKeyProvision(msg.participant_id,
                                                          msg.blob);
        } catch (const Error& e) {
          return SendError(conn, serve::FromError(e), /*close=*/false);
        }
        const MsgType ack = frame.type == MsgType::kProvisionFinished
                                ? MsgType::kProvisionFinishedAck
                                : MsgType::kProvisionKeyAck;
        return QueueResponse(conn,
                             EncodeFrame(EncodeProvisionOkAck(ack, {ok}))) ||
               (CloseConnection(conn.id()), false);
      }
      case MsgType::kOpenSession: {
        const OpenSessionRequest msg = DecodeOpenSession(frame.body());
        serve::Result<serve::SessionId> opened =
            service_.OpenUploadSession(msg.participant_id);
        if (!opened.ok()) {
          return SendError(conn, opened.error(), /*close=*/false);
        }
        gates_.emplace(opened.value(), UploadGate{});
        return QueueResponse(
                   conn, EncodeFrame(EncodeOpenSessionAck({opened.value()}))) ||
               (CloseConnection(conn.id()), false);
      }
      case MsgType::kSubmitUpload:
        return HandleSubmitUpload(conn, frame.body());
      case MsgType::kCloseSession: {
        const CloseSessionRequest msg = DecodeCloseSession(frame.body());
        conn.busy = true;
        ++pending_requests_;
        const std::uint64_t conn_id = conn.id();
        service_.CloseUploadSessionAsync(
            msg.session,
            [this, conn_id,
             session = msg.session](serve::Result<serve::SessionStats> result) {
              Completion completion;
              completion.conn_id = conn_id;
              completion.session = session;
              if (result.ok()) {
                completion.frame =
                    EncodeFrame(EncodeCloseSessionAck(result.value()));
                completion.erase_gate = true;
              } else {
                completion.frame = EncodeFrame(EncodeError(result.error()));
              }
              PostCompletion(std::move(completion));
            });
        UpdateEpoll(conn);
        return true;
      }
      case MsgType::kInvestigate: {
        InvestigateRequest msg = DecodeInvestigate(frame.body());
        conn.busy = true;
        ++pending_requests_;
        const std::uint64_t conn_id = conn.id();
        service_.SubmitInvestigateAsync(
            std::move(msg.input), static_cast<std::size_t>(msg.k),
            [this, conn_id](serve::Result<core::MispredictionReport> result) {
              Completion completion;
              completion.conn_id = conn_id;
              completion.frame =
                  result.ok()
                      ? EncodeFrame(EncodeInvestigateAck(result.value()))
                      : EncodeFrame(EncodeError(result.error()));
              PostCompletion(std::move(completion));
            });
        UpdateEpoll(conn);
        return true;
      }
      case MsgType::kInvestigateBatch: {
        InvestigateBatchRequest msg = DecodeInvestigateBatch(frame.body());
        conn.busy = true;
        ++pending_requests_;
        const std::uint64_t conn_id = conn.id();
        service_.SubmitInvestigateBatchAsync(
            std::move(msg.inputs), static_cast<std::size_t>(msg.k),
            [this, conn_id](
                serve::Result<std::vector<core::MispredictionReport>>
                    result) {
              Completion completion;
              completion.conn_id = conn_id;
              completion.frame =
                  result.ok()
                      ? EncodeFrame(EncodeInvestigateBatchAck(result.value()))
                      : EncodeFrame(EncodeError(result.error()));
              PostCompletion(std::move(completion));
            });
        UpdateEpoll(conn);
        return true;
      }
      case MsgType::kRelease: {
        const ReleaseRequest msg = DecodeRelease(frame.body());
        conn.busy = true;
        ++pending_requests_;
        const std::uint64_t conn_id = conn.id();
        service_.SubmitReleaseAsync(
            msg.participant_id,
            [this, conn_id](
                serve::Result<core::TrainingServer::ReleasedModel> result) {
              Completion completion;
              completion.conn_id = conn_id;
              completion.frame =
                  result.ok()
                      ? EncodeFrame(EncodeReleaseAck(result.value()))
                      : EncodeFrame(EncodeError(result.error()));
              PostCompletion(std::move(completion));
            });
        UpdateEpoll(conn);
        return true;
      }
      case MsgType::kStatus: {
        DecodeStatus(frame.body());
        StatusAck ack;
        ack.phase = static_cast<std::uint8_t>(service_.phase());
        ack.degraded = service_.degraded();
        ack.accepted_records = service_.server().accepted_records();
        ack.rejected_records = service_.server().rejected_records();
        return QueueResponse(conn, EncodeFrame(EncodeStatusAck(ack))) ||
               (CloseConnection(conn.id()), false);
      }
      default:
        // A second hello, a response type, or an unknown value: the
        // peer broke the protocol.
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        return SendError(
            conn,
            serve::ServeError{serve::ServeErrorKind::kInvalidArgument,
                              "unexpected message type " +
                                  std::to_string(static_cast<unsigned>(
                                      frame.type))},
            /*close=*/true);
    }
  } catch (const Error& e) {
    // Malformed message body — hostile or version-skewed peer.
    frames_rejected_.fetch_add(1, std::memory_order_relaxed);
    return SendError(conn, serve::FromError(e), /*close=*/true);
  }
}

bool Server::HandleHello(Connection& conn, const Frame& frame) {
  const HelloRequest msg = DecodeHello(frame.body());
  if (msg.version_min > kProtocolVersionMax ||
      msg.version_max < kProtocolVersionMin) {
    return SendError(
        conn,
        serve::ServeError{
            serve::ServeErrorKind::kInvalidArgument,
            "no common protocol version (server speaks [" +
                std::to_string(kProtocolVersionMin) + ", " +
                std::to_string(kProtocolVersionMax) + "], client offered [" +
                std::to_string(msg.version_min) + ", " +
                std::to_string(msg.version_max) + "])"},
        /*close=*/true);
  }
  conn.version = std::min(kProtocolVersionMax, msg.version_max);
  HelloAck ack;
  ack.version = conn.version;
  ack.max_frame_bytes = kDefaultMaxFrameBytes;
  ack.attestation_public_key =
      crypto::U128ToBytes(service_.server().attestation_public_key());
  const crypto::Sha256Digest& measurement =
      service_.server().training_measurement();
  ack.measurement.assign(measurement.begin(), measurement.end());
  conn.state = Connection::State::kReady;
  if (!QueueResponse(conn, EncodeFrame(EncodeHelloAck(ack)))) {
    CloseConnection(conn.id());
    return false;
  }
  return true;
}

bool Server::HandleSubmitUpload(Connection& conn, BytesView body) {
  SubmitUploadRequest request = DecodeSubmitUpload(body);
  UploadGate& gate = gates_[request.session];
  if (gate.next_seq > 0 && request.upload_seq == gate.next_seq - 1) {
    // Transport-level resubmit of the last completed submission: the
    // records were (or were not) ingested exactly once already —
    // replay the cached outcome.
    return QueueResponse(conn, Bytes(gate.last_response)) ||
           (CloseConnection(conn.id()), false);
  }
  if (request.upload_seq != gate.next_seq) {
    return SendError(
        conn,
        serve::ServeError{serve::ServeErrorKind::kInvalidArgument,
                          "upload sequence " +
                              std::to_string(request.upload_seq) +
                              " out of order (expected " +
                              std::to_string(gate.next_seq) + ")"},
        /*close=*/false);
  }
  conn.parked.emplace(Connection::ParkedUpload{std::move(request)});
  DispatchUpload(conn);
  return true;
}

void Server::DispatchUpload(Connection& conn) {
  conn.busy = true;
  ++pending_requests_;
  const std::uint64_t conn_id = conn.id();
  SubmitUploadRequest& request = conn.parked->request;
  const serve::SessionId session = request.session;
  const std::uint64_t seq = request.upload_seq;
  // The service moves the records out only once it admits the
  // submission, so a kQueueSaturated bounce leaves them parked here.
  service_.SubmitUploadAsync(
      session, std::move(request.records),
      [this, conn_id, session,
       seq](serve::Result<serve::UploadReceipt> result) {
        Completion completion;
        completion.conn_id = conn_id;
        completion.session = session;
        completion.upload_seq = seq;
        completion.upload.emplace(std::move(result));
        PostCompletion(std::move(completion));
      });
  UpdateEpoll(conn);
}

bool Server::SendError(Connection& conn, serve::ServeError error,
                       bool close) {
  Bytes frame = EncodeFrame(EncodeError(error));
  if (close) conn.state = Connection::State::kClosing;
  if (!QueueResponse(conn, std::move(frame))) {
    CloseConnection(conn.id());
    return false;
  }
  if (close) {
    if (!conn.wants_write()) {
      CloseConnection(conn.id());
    }
    return false;  // stop serving this connection either way
  }
  return true;
}

bool Server::QueueResponse(Connection& conn, Bytes frame) {
  conn.QueueFrame(std::move(frame));
  if (conn.write_backlog() > kMaxWriteBacklog) {
    // Slowloris guard: the peer is not reading its responses.
    CALTRAIN_LOG(kWarn) << "[net] connection " << conn.id()
                        << " exceeded its write backlog; closing";
    return false;
  }
  if (conn.FlushWrites() == Connection::IoResult::kClosed) return false;
  UpdateEpoll(conn);
  return true;
}

void Server::UpdateEpoll(Connection& conn) {
  std::uint32_t desired = 0;
  if (conn.state != Connection::State::kClosing && !conn.busy &&
      !draining_) {
    desired |= EPOLLIN;
  }
  if (conn.wants_write()) desired |= EPOLLOUT;
  if (desired == conn.epoll_mask) return;
  epoll_event ev{};
  ev.events = desired;
  ev.data.u64 = conn.id();
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn.fd(), &ev) == 0) {
    conn.epoll_mask = desired;
  }
}

void Server::CloseConnection(std::uint64_t conn_id) {
  const auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  (void)::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, it->second->fd(),
                    nullptr);
  // A parked upload dies with its connection WITHOUT advancing the
  // gate: the records never reached the service, so a reconnecting
  // client's resubmit of the same sequence is processed fresh.
  connections_.erase(it);
}

}  // namespace caltrain::net
