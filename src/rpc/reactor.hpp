// EpollServer: the shared readiness-loop substrate under ServiceHost and
// ChunkServer. One loop thread owns an epoll set of nonblocking sockets —
// the listener, an eventfd wakeup, and every accepted connection with its
// per-connection read buffer and write queue. Complete frames are decoded
// off the read buffer and executed on a small worker pool, so a slow
// handler can never stall the loop or the other requests on the same
// socket; replies are enqueued in completion order, which means responses
// go out OUT OF ORDER relative to the requests on one connection — the
// frame header's request id is what matches them up again client-side
// (ClientChannel's demux). A reply may carry a file slice tail
// (rpc/chunk_ref.hpp): the loop ships it with sendfile (pread+send when
// sendfile is refused), so file-backed chunk replies never pass through a
// std::string.
//
// Backpressure: a connection with max_in_flight_per_connection requests
// executing has its EPOLLIN interest dropped until replies drain, so a
// client blasting frames cannot balloon the worker queue. Shutdown is
// deterministic: stop() parks the loop, which closes every connection and
// the listener before exiting; the worker pool is drained and joined after
// the loop thread — no thread ever races a late accept.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/expected.hpp"
#include "rpc/transport.hpp"
#include "util/thread_annotations.hpp"

namespace bitdew::rpc {

/// One encoded reply frame: `bytes` (frame header + body prefix), optionally
/// followed on the wire by `file_length` bytes read from `file` at
/// `file_offset`. The length prefix covers bytes.size() + file_length.
struct ReplyFrame {
  std::string bytes;
  Fd file;
  std::int64_t file_offset = 0;
  std::int64_t file_length = 0;
  /// Work that follows the reply: the worker runs it once the reply is
  /// handed to the loop, so it overlaps the reply's trip to the client.
  /// The request frame the handler was given is still alive then, so it
  /// may read that frame in place. Empty = none.
  std::function<void()> then;

  std::int64_t wire_size() const {
    return static_cast<std::int64_t>(bytes.size()) + (file.valid() ? file_length : 0);
  }
};

struct EpollServerConfig {
  std::uint16_t port = 0;       ///< 0 = ephemeral (read back via port())
  bool loopback_only = false;   ///< bind 127.0.0.1 instead of INADDR_ANY
  double idle_timeout_s = -1;   ///< close quiet connections (<0 = never)
  double write_timeout_s = 30;  ///< reply send budget for a stalled reader
  int worker_threads = 0;       ///< handler pool size (0 = auto, >= 2)
  int max_in_flight_per_connection = 32;  ///< EPOLLIN pause threshold
};

class EpollServer {
 public:
  /// Executes one decoded request frame (header + body, the length prefix
  /// already stripped) and returns the reply frame, or nullopt to drop the
  /// connection (malformed frame, protocol violation). Runs on a worker
  /// thread: it may block, and it must be thread-safe. The reply's `then`
  /// runs on the same worker after the reply is queued.
  using Handler = std::function<std::optional<ReplyFrame>(std::uint64_t connection_id,
                                                          const std::string& frame)>;

  EpollServer(Handler handler, EpollServerConfig config);
  ~EpollServer();
  EpollServer(const EpollServer&) = delete;
  EpollServer& operator=(const EpollServer&) = delete;

  /// Binds, listens, spawns the loop thread and the worker pool.
  /// Errc::kTransport when the port cannot be bound. Restartable after
  /// stop().
  api::Status start();

  /// Parks the loop (which closes every connection and the listener), then
  /// drains and joins the worker pool. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  std::uint16_t port() const { return port_; }

  std::uint64_t connections_accepted() const { return connections_accepted_.load(); }
  std::uint64_t requests_served() const { return requests_served_.load(); }
  /// Connections dropped for oversize, malformed or protocol-violating frames.
  std::uint64_t frames_rejected() const { return frames_rejected_.load(); }
  std::size_t connections_open() const { return connections_open_.load(); }

 private:
  struct OutItem {
    std::string bytes;          ///< length prefix + ReplyFrame::bytes
    std::size_t sent = 0;       ///< bytes already on the wire
    Fd file;                    ///< zero-copy tail (invalid = none)
    std::int64_t file_offset = 0;
    std::int64_t file_remaining = 0;
  };

  struct Connection {
    Fd socket;
    std::string buffer;            ///< unparsed inbound bytes
    std::deque<OutItem> out;       ///< replies awaiting the wire
    int in_flight = 0;             ///< requests executing or queued
    bool read_paused = false;      ///< EPOLLIN dropped (backpressure)
    bool want_write = false;       ///< EPOLLOUT armed
    std::int64_t last_activity_ms = 0;   ///< read-side idle clock
    std::int64_t write_stalled_ms = -1;  ///< when the out queue went non-empty
  };

  struct Completion {
    std::uint64_t connection_id = 0;
    std::optional<ReplyFrame> reply;
  };

  void loop();
  void worker();
  void handle_accept();
  void handle_readable(std::uint64_t id, Connection& connection);
  void parse_frames(std::uint64_t id, Connection& connection);
  /// Flushes the out queue; returns false when the connection must close.
  bool flush(Connection& connection);
  void drain_completions();
  void apply_completion(Completion& completion);
  void update_interest(std::uint64_t id, Connection& connection);
  void close_connection(std::uint64_t id);
  void sweep_timeouts();
  void wake();
  std::int64_t now_ms() const;

  Handler handler_;
  EpollServerConfig config_;

  Fd listener_;
  Fd epoll_;
  Fd wakeup_;  ///< eventfd: completion and stop notifications
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread loop_thread_;
  std::vector<std::thread> workers_;

  // Loop-thread state: connections_ and next_connection_id_ are owned by
  // the single loop thread (created before it starts, torn down after it
  // joins) — single-owner by construction, so no capability guards them.
  std::unordered_map<std::uint64_t, Connection> connections_;
  std::uint64_t next_connection_id_ = 0;

  util::Mutex queue_mutex_;
  util::CondVar queue_cv_;
  /// (connection id, frame) pairs awaiting a worker.
  std::deque<std::pair<std::uint64_t, std::string>> queue_ GUARDED_BY(queue_mutex_);
  bool workers_stop_ GUARDED_BY(queue_mutex_) = false;

  util::Mutex completions_mutex_ ACQUIRED_AFTER(queue_mutex_);
  std::vector<Completion> completions_ GUARDED_BY(completions_mutex_);

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> frames_rejected_{0};
  std::atomic<std::size_t> connections_open_{0};
};

}  // namespace bitdew::rpc
