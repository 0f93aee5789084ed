// Per-connection state for the epoll front end (ISSUE 10).
//
// A Connection owns one nonblocking TCP socket plus the incremental
// frame decoder and the buffered write backlog for that peer.  Every
// member is touched ONLY by the server's event-loop thread — service
// completions from worker threads travel through net::Server's
// completion queue and are applied to the connection on the loop, so
// the struct needs no lock of its own.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "net/codec.hpp"
#include "net/wire.hpp"
#include "util/bytes.hpp"
#include "util/fd.hpp"

namespace caltrain::net {

class Connection {
 public:
  enum class State {
    kHandshake,  ///< nothing accepted until a valid Hello
    kReady,      ///< negotiated; serving requests
    kClosing,    ///< error frame queued; close once flushed
  };

  /// Outcome of one socket read/write attempt.
  enum class IoResult {
    kOk,      ///< progressed (possibly zero bytes on EAGAIN)
    kClosed,  ///< peer hung up, hard error, or injected net.read/write
  };

  Connection(util::UniqueFd fd, std::uint64_t id)
      : fd_(std::move(fd)), id_(id) {}

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] int fd() const noexcept { return fd_.get(); }

  /// Reads one chunk from the socket into the decoder.  Level-triggered
  /// epoll re-arms for whatever the kernel still buffers, so one chunk
  /// per event keeps connections fair.  Declares the net.read fault
  /// point.
  [[nodiscard]] IoResult ReadIntoDecoder();

  /// Queues an encoded frame for writing.
  void QueueFrame(Bytes frame);

  /// Writes queued frames until the socket would block or the backlog
  /// is empty.  Declares the net.write fault point.
  [[nodiscard]] IoResult FlushWrites();

  [[nodiscard]] bool wants_write() const noexcept {
    return !write_queue_.empty();
  }
  /// Unflushed response bytes — the slowloris guard compares this
  /// against Server::kMaxWriteBacklog.
  [[nodiscard]] std::size_t write_backlog() const noexcept {
    return backlog_bytes_;
  }

  // --- event-loop bookkeeping (loop thread only) ----------------------
  State state = State::kHandshake;
  /// One request in flight with the service; no further frames are
  /// decoded (and EPOLLIN is dropped — TCP backpressure does the rest)
  /// until its completion arrives.
  bool busy = false;
  /// The epoll registration this connection currently has (so the loop
  /// only issues EPOLL_CTL_MOD when the mask actually changes).
  std::uint32_t epoll_mask = 0;
  std::uint32_t version = 0;  ///< negotiated protocol version

  FrameDecoder decoder;

  /// The upload this connection has in flight, held until its outcome
  /// is final.  The service moves the records out only once it admits
  /// the submission, so after a kQueueSaturated bounce they are still
  /// here and the retry timer resubmits the same request.
  struct ParkedUpload {
    SubmitUploadRequest request;
    bool retry_due = false;  ///< bounced; waiting for the next timer tick
  };
  std::optional<ParkedUpload> parked;

 private:
  util::UniqueFd fd_;
  std::uint64_t id_ = 0;
  std::deque<Bytes> write_queue_;
  std::size_t write_offset_ = 0;  ///< consumed bytes of the front frame
  std::size_t backlog_bytes_ = 0;
};

}  // namespace caltrain::net
