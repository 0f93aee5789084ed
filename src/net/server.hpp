// Event-driven TCP front end for the serving API (ISSUE 10).
//
// One epoll loop thread multiplexes every connection: nonblocking
// accept/read/write, incremental frame decoding, and dispatch onto
// serve::Service's callback API.  The loop NEVER blocks on the service
// — every potentially slow request (uploads, close, investigate,
// release) goes through Submit*Async and completes via a completion
// queue drained by the loop, so thousands of connections ride on the
// existing ingest workers.
//
// Flow control maps a full ingest queue onto the transport:
//
//   * While a connection has a request in flight, its frames stop being
//     decoded and EPOLLIN is dropped — the kernel socket buffer fills
//     and TCP pushes back on the remote producer.
//   * Uploads go through the service's non-waiting SubmitUploadAsync.
//     When it bounces one with kQueueSaturated, the server PARKS the
//     upload on its connection and resubmits it on a timer — the
//     event-loop-shaped equivalent of a waiting push, so the loop never
//     blocks and the client never sees the saturation.
//   * A peer that stops reading its responses (slowloris) is cut off
//     once its write backlog passes kMaxWriteBacklog (64 MiB).
//   * Frames in both directions are capped at kDefaultMaxFrameBytes
//     (64 MiB), which the HelloAck announces.
//
// Uploads are idempotent: every SubmitUpload carries a client-assigned
// per-session sequence number; the server remembers the last completed
// sequence and its response, so a client that lost the reply to a
// transport fault can resubmit the SAME sequence and get the SAME
// receipt — records are never ingested twice (test-enforced against
// the fault injector).
//
// Shutdown drains in-flight tickets: Stop() stops accepting and
// decoding, waits for every dispatched request's completion, flushes
// responses (bounded by kDrainTimeout, 5 s), then tears the loop down.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/connection.hpp"
#include "net/wire.hpp"
#include "serve/service.hpp"
#include "util/fd.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace caltrain::net {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with port() after Start.
  std::uint16_t port = 0;
};

class Server {
 public:
  /// The server fronts `service` (and its TrainingServer); both must
  /// outlive this object.  Construction does not open any socket.
  Server(serve::Service& service, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the event loop.  Throws
  /// Error(kUnavailable) when the address cannot be bound.
  void Start();

  /// Graceful shutdown: stop accepting/decoding, drain in-flight
  /// requests, flush responses, tear down.  Idempotent.
  void Stop();

  /// The bound TCP port (valid after Start).
  [[nodiscard]] std::uint16_t port() const noexcept { return bound_port_; }

  /// Lifetime counters (monotonic, loop-thread-written).
  [[nodiscard]] std::uint64_t connections_accepted() const noexcept {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t frames_rejected() const noexcept {
    return frames_rejected_.load(std::memory_order_relaxed);
  }

 private:
  /// A finished service request, posted by worker threads and applied
  /// to its connection by the loop.  Exactly one of `frame` /
  /// `upload` is meaningful.
  struct Completion {
    std::uint64_t conn_id = 0;
    Bytes frame;  ///< pre-encoded response (non-upload requests)
    /// Upload completions carry the raw result instead — the loop
    /// decides between receipt, typed error, parked retry, and the
    /// idempotency-gate update.
    std::optional<serve::Result<serve::UploadReceipt>> upload;
    serve::SessionId session = 0;
    std::uint64_t upload_seq = 0;
    bool erase_gate = false;  ///< session closed; retire its gate
  };

  /// Per-session upload idempotency gate (loop thread only).
  struct UploadGate {
    std::uint64_t next_seq = 0;
    Bytes last_response;  ///< full frame of the last completed upload
  };

  void Loop();
  void HandleAccept();
  void DrainCompletions();
  void HandleTimer();
  void HandleConnectionEvent(std::uint64_t conn_id, std::uint32_t events);
  /// Decodes and serves frames until the connection goes busy, runs
  /// dry, or dies.  Takes the id (not a reference) because handlers may
  /// destroy the connection; the map is re-consulted every iteration.
  void ProcessFrames(std::uint64_t conn_id);
  /// Serves one frame; returns false when frame processing must stop
  /// (busy, closing, or the connection is gone).
  bool HandleFrame(Connection& conn, Frame frame);
  bool HandleHello(Connection& conn, const Frame& frame);
  bool HandleSubmitUpload(Connection& conn, BytesView body);
  /// Submits the upload parked on `conn` (first try or timer retry).
  void DispatchUpload(Connection& conn);
  void ApplyUploadCompletion(const Completion& completion);
  /// Queues a typed error frame (closing the connection afterwards if
  /// `close` — protocol violations do, service-level errors don't).
  /// Returns whether the caller may keep serving this connection.
  bool SendError(Connection& conn, serve::ServeError error, bool close);
  /// Queues + flushes one response frame.  Returns false when the
  /// connection must close (backlog blown or write error) — the caller
  /// invokes CloseConnection.
  [[nodiscard]] bool QueueResponse(Connection& conn, Bytes frame);
  /// Recomputes the connection's epoll interest mask.
  void UpdateEpoll(Connection& conn);
  void CloseConnection(std::uint64_t conn_id);
  void ArmRetryTimer();
  /// Posts a completion from a service worker (or inline) and wakes
  /// the loop.
  void PostCompletion(Completion completion);

  serve::Service& service_;
  ServerOptions options_;

  util::UniqueFd listen_fd_;
  util::UniqueFd epoll_fd_;
  util::UniqueFd wake_fd_;   ///< eventfd: completion queue / stop
  util::UniqueFd timer_fd_;  ///< timerfd: parked-upload retries
  std::uint16_t bound_port_ = 0;
  std::thread loop_;
  std::atomic<bool> stop_requested_{false};
  bool started_ = false;
  bool joined_ = false;

  // Loop-thread-only state.
  std::map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  std::uint64_t next_conn_id_ = kFirstConnId;
  std::map<serve::SessionId, UploadGate> gates_;
  /// Requests dispatched to the service whose completions have not
  /// been applied yet; the loop only exits once this hits zero, so no
  /// completion can outlive the server.
  std::size_t pending_requests_ = 0;
  bool retry_timer_armed_ = false;
  /// Set by the loop on the first wake after Stop(): no new accepts,
  /// no new frame decoding, exit once in-flight requests drain.
  bool draining_ = false;

  // Completion queue: the single cross-thread handoff.  The eventfd
  // write happens under the mutex so the destructor's final lock
  // acquisition is a full barrier against in-flight posts.
  util::Mutex cq_mu_;
  std::vector<Completion> cq_ GUARDED_BY(cq_mu_);

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> frames_rejected_{0};

  /// How often parked uploads are resubmitted while the queue is full.
  static constexpr std::chrono::milliseconds kParkedRetryInterval{2};
  static constexpr int kListenBacklog = 128;
  /// Unflushed-response cap per connection (slowloris guard).
  static constexpr std::size_t kMaxWriteBacklog = 64ULL << 20;
  /// After every in-flight request completed, how long Stop() keeps
  /// flushing buffered responses to slow readers before cutting them.
  static constexpr std::chrono::milliseconds kDrainTimeout{5000};
  static constexpr std::uint64_t kListenTag = 0;
  static constexpr std::uint64_t kWakeTag = 1;
  static constexpr std::uint64_t kTimerTag = 2;
  static constexpr std::uint64_t kFirstConnId = 3;
};

}  // namespace caltrain::net
