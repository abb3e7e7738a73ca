#include "rpc/reactor.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/sendfile.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "util/log.hpp"

namespace bitdew::rpc {
namespace {

const util::Logger& logger() {
  static const util::Logger instance("epoll");
  return instance;
}

constexpr std::uint64_t kListenerTag = ~std::uint64_t{0};
constexpr std::uint64_t kWakeupTag = ~std::uint64_t{0} - 1;

/// Largest single sendfile/pread step: bounds a slow reader's grip on the
/// loop without throttling a fast one.
constexpr std::int64_t kFileStepBytes = 1 << 20;

int auto_worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(2, static_cast<int>(std::min(hw, 4u)));
}

}  // namespace

EpollServer::EpollServer(Handler handler, EpollServerConfig config)
    : handler_(std::move(handler)), config_(config) {
  if (config_.worker_threads <= 0) config_.worker_threads = auto_worker_count();
  config_.max_in_flight_per_connection = std::max(config_.max_in_flight_per_connection, 1);
}

EpollServer::~EpollServer() { stop(); }

std::int64_t EpollServer::now_ms() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

api::Status EpollServer::start() {
  if (running_.load(std::memory_order_acquire)) return api::ok_status();
  auto listener = tcp_listen(config_.port, config_.loopback_only);
  if (!listener.ok()) return listener.error();
  listener_ = std::move(listener->fd);
  port_ = listener->port;
  // tcp_listen hands back a BLOCKING socket (the thread-per-connection hosts
  // accept through poll); here the readiness loop drains accepts in a burst,
  // so the listener must be nonblocking or the second accept4 of a burst
  // parks the whole loop inside the kernel.
  const int listener_flags = ::fcntl(listener_.get(), F_GETFL, 0);
  ::fcntl(listener_.get(), F_SETFL, listener_flags | O_NONBLOCK);

  Fd epoll(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll.valid()) {
    listener_.reset();
    return api::Error{api::Errc::kTransport, "epoll",
                      std::string("epoll_create1: ") + std::strerror(errno)};
  }
  Fd wakeup(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!wakeup.valid()) {
    listener_.reset();
    return api::Error{api::Errc::kTransport, "epoll",
                      std::string("eventfd: ") + std::strerror(errno)};
  }
  epoll_ = std::move(epoll);
  wakeup_ = std::move(wakeup);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, listener_.get(), &ev);
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeupTag;
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wakeup_.get(), &ev);

  {
    const util::LockGuard lock(queue_mutex_);
    workers_stop_ = false;
    queue_.clear();
  }
  {
    const util::LockGuard lock(completions_mutex_);
    completions_.clear();
  }
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread(&EpollServer::loop, this);
  for (int i = 0; i < config_.worker_threads; ++i) {
    workers_.emplace_back(&EpollServer::worker, this);
  }
  logger().debug("listening on port %u (%d workers)", static_cast<unsigned>(port_),
                 config_.worker_threads);
  return api::ok_status();
}

void EpollServer::stop() {
  if (!running_.exchange(false)) return;
  wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    const util::LockGuard lock(queue_mutex_);
    workers_stop_ = true;
    queue_.clear();  // connections are gone; their requests have no reader
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  {
    const util::LockGuard lock(completions_mutex_);
    completions_.clear();
  }
  wakeup_.reset();
  epoll_.reset();
  listener_.reset();
}

void EpollServer::wake() {
  if (!wakeup_.valid()) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wakeup_.get(), &one, sizeof(one));
}

void EpollServer::worker() {
  for (;;) {
    std::pair<std::uint64_t, std::string> job;
    {
      util::UniqueLock lock(queue_mutex_);
      while (!workers_stop_ && queue_.empty()) queue_cv_.wait(lock);
      if (workers_stop_) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    Completion completion;
    completion.connection_id = job.first;
    try {
      completion.reply = handler_(job.first, job.second);
    } catch (const std::exception& error) {
      logger().warn("handler threw (%s); dropping connection %llu", error.what(),
                    static_cast<unsigned long long>(job.first));
      completion.reply = std::nullopt;
    }
    std::function<void()> then;
    if (completion.reply.has_value()) then = std::move(completion.reply->then);
    {
      const util::LockGuard lock(completions_mutex_);
      completions_.push_back(std::move(completion));
    }
    wake();
    if (!then) continue;
    try {
      then();  // job.second, the request frame, outlives this call
    } catch (const std::exception& error) {
      logger().warn("reply continuation threw (%s) on connection %llu", error.what(),
                    static_cast<unsigned long long>(job.first));
    }
  }
}

void EpollServer::loop() {
  std::vector<epoll_event> events(256);
  const bool sweeping = config_.idle_timeout_s > 0 || config_.write_timeout_s > 0;
  std::int64_t last_sweep = now_ms();
  while (running_.load(std::memory_order_acquire)) {
    const int timeout_ms = sweeping ? 200 : -1;
    const int n = ::epoll_wait(epoll_.get(), events.data(), static_cast<int>(events.size()),
                               timeout_ms);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < std::max(n, 0); ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kListenerTag) {
        handle_accept();
        continue;
      }
      if (tag == kWakeupTag) {
        std::uint64_t drained = 0;
        while (::read(wakeup_.get(), &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      const auto it = connections_.find(tag);
      if (it == connections_.end()) continue;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        close_connection(tag);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        if (!flush(it->second)) {
          close_connection(tag);
          continue;
        }
        update_interest(tag, it->second);
      }
      if ((events[i].events & EPOLLIN) != 0) handle_readable(tag, it->second);
    }
    drain_completions();
    if (sweeping && now_ms() - last_sweep >= 200) {
      last_sweep = now_ms();
      sweep_timeouts();
    }
  }
  // Deterministic teardown: the loop thread owns every connection, so
  // closing them here cannot race an accept or a read.
  for (auto& [id, connection] : connections_) connection.socket.reset();
  connections_.clear();
  connections_open_.store(0);
  if (listener_.valid()) {
    ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, listener_.get(), nullptr);
  }
}

void EpollServer::handle_accept() {
  for (;;) {
    Fd accepted(::accept4(listener_.get(), nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC));
    if (!accepted.valid()) return;  // EAGAIN or transient error: back to the loop
    const int one = 1;
    ::setsockopt(accepted.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::uint64_t id = next_connection_id_++;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, accepted.get(), &ev) != 0) continue;
    Connection connection;
    connection.socket = std::move(accepted);
    connection.last_activity_ms = now_ms();
    connections_.emplace(id, std::move(connection));
    ++connections_accepted_;
    connections_open_.store(connections_.size());
  }
}

void EpollServer::handle_readable(std::uint64_t id, Connection& connection) {
  char scratch[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(connection.socket.get(), scratch, sizeof(scratch), 0);
    if (n > 0) {
      connection.buffer.append(scratch, static_cast<std::size_t>(n));
      connection.last_activity_ms = now_ms();
      if (n < static_cast<ssize_t>(sizeof(scratch))) break;
      continue;
    }
    if (n == 0) {
      close_connection(id);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_connection(id);
    return;
  }
  parse_frames(id, connection);
}

void EpollServer::parse_frames(std::uint64_t id, Connection& connection) {
  std::size_t consumed = 0;
  bool submitted = false;
  while (connection.in_flight < config_.max_in_flight_per_connection) {
    const std::size_t available = connection.buffer.size() - consumed;
    if (available < sizeof(std::uint32_t)) break;
    std::uint32_t length = 0;
    std::memcpy(&length, connection.buffer.data() + consumed, sizeof(length));
    if (length > kMaxFrameBytes) {
      ++frames_rejected_;
      close_connection(id);
      return;
    }
    if (available < sizeof(length) + length) break;
    std::string frame = connection.buffer.substr(consumed + sizeof(length), length);
    consumed += sizeof(length) + length;
    ++connection.in_flight;
    {
      const util::LockGuard lock(queue_mutex_);
      queue_.emplace_back(id, std::move(frame));
    }
    submitted = true;
  }
  if (consumed > 0) connection.buffer.erase(0, consumed);
  if (submitted) queue_cv_.notify_all();
  const bool should_pause = connection.in_flight >= config_.max_in_flight_per_connection;
  if (should_pause != connection.read_paused) {
    connection.read_paused = should_pause;
    update_interest(id, connection);
  }
}

void EpollServer::drain_completions() {
  std::vector<Completion> batch;
  {
    const util::LockGuard lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) apply_completion(completion);
}

void EpollServer::apply_completion(Completion& completion) {
  const auto it = connections_.find(completion.connection_id);
  if (it == connections_.end()) return;  // connection closed while executing
  Connection& connection = it->second;
  --connection.in_flight;
  if (!completion.reply.has_value()) {
    ++frames_rejected_;
    close_connection(completion.connection_id);
    return;
  }
  ReplyFrame& reply = *completion.reply;
  const std::int64_t wire_size = reply.wire_size();
  if (wire_size > static_cast<std::int64_t>(kMaxFrameBytes)) {
    ++frames_rejected_;
    close_connection(completion.connection_id);
    return;
  }
  OutItem item;
  Writer prefix;
  prefix.u32(static_cast<std::uint32_t>(wire_size));
  item.bytes = prefix.take();
  item.bytes.append(reply.bytes);
  if (reply.file.valid() && reply.file_length > 0) {
    item.file = std::move(reply.file);
    item.file_offset = reply.file_offset;
    item.file_remaining = reply.file_length;
  }
  const bool was_empty = connection.out.empty();
  connection.out.push_back(std::move(item));
  if (was_empty) connection.write_stalled_ms = now_ms();
  ++requests_served_;
  if (!flush(connection)) {
    close_connection(completion.connection_id);
    return;
  }
  if (connection.read_paused &&
      connection.in_flight < config_.max_in_flight_per_connection) {
    connection.read_paused = false;
    parse_frames(completion.connection_id, connection);
    // parse_frames may re-pause; either way interest is now consistent.
    if (connections_.find(completion.connection_id) == connections_.end()) return;
  }
  update_interest(completion.connection_id, connection);
}

bool EpollServer::flush(Connection& connection) {
  while (!connection.out.empty()) {
    OutItem& item = connection.out.front();
    if (item.sent < item.bytes.size()) {
      const ssize_t n =
          ::send(connection.socket.get(), item.bytes.data() + item.sent,
                 item.bytes.size() - item.sent, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // EPOLLOUT re-arms
        return false;
      }
      item.sent += static_cast<std::size_t>(n);
      continue;
    }
    if (item.file.valid() && item.file_remaining > 0) {
      off_t offset = static_cast<off_t>(item.file_offset);
      const std::size_t step =
          static_cast<std::size_t>(std::min(item.file_remaining, kFileStepBytes));
      const ssize_t n = ::sendfile(connection.socket.get(), item.file.get(), &offset, step);
      if (n > 0) {
        item.file_offset += n;
        item.file_remaining -= n;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && (errno == EINVAL || errno == ENOSYS)) {
        // sendfile refused (unusual fs): fall back to pread+send by turning
        // the next slice step into an inline byte item.
        std::string spill(step, '\0');
        const ssize_t got = ::pread(item.file.get(), spill.data(), step,
                                    static_cast<off_t>(item.file_offset));
        if (got <= 0) return false;  // truncated content: the frame length is a lie
        spill.resize(static_cast<std::size_t>(got));
        item.file_offset += got;
        item.file_remaining -= got;
        item.bytes = std::move(spill);
        item.sent = 0;
        continue;
      }
      // n == 0 before the slice is done: the content file shrank under us.
      // The frame length prefix can no longer be honored — close.
      return false;
    }
    connection.out.pop_front();
    connection.write_stalled_ms = connection.out.empty() ? -1 : now_ms();
  }
  return true;
}

void EpollServer::update_interest(std::uint64_t id, Connection& connection) {
  const bool want_write = !connection.out.empty();
  epoll_event ev{};
  ev.events = (connection.read_paused ? 0u : static_cast<unsigned>(EPOLLIN)) |
              (want_write ? static_cast<unsigned>(EPOLLOUT) : 0u);
  ev.data.u64 = id;
  connection.want_write = want_write;
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, connection.socket.get(), &ev);
}

void EpollServer::close_connection(std::uint64_t id) {
  const auto it = connections_.find(id);
  if (it == connections_.end()) return;
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, it->second.socket.get(), nullptr);
  connections_.erase(it);
  connections_open_.store(connections_.size());
}

void EpollServer::sweep_timeouts() {
  const std::int64_t now = now_ms();
  std::vector<std::uint64_t> doomed;
  for (const auto& [id, connection] : connections_) {
    if (config_.write_timeout_s > 0 && connection.write_stalled_ms >= 0 &&
        now - connection.write_stalled_ms >
            static_cast<std::int64_t>(config_.write_timeout_s * 1000.0)) {
      doomed.push_back(id);  // the peer stopped reading its replies
      continue;
    }
    if (config_.idle_timeout_s > 0 && connection.in_flight == 0 && connection.out.empty() &&
        now - connection.last_activity_ms >
            static_cast<std::int64_t>(config_.idle_timeout_s * 1000.0)) {
      doomed.push_back(id);
    }
  }
  for (const std::uint64_t id : doomed) close_connection(id);
}

}  // namespace bitdew::rpc
