#include "serve/server.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cassert>
#include <cstring>

namespace hyperprof::serve {

namespace {

/** Receive chunk: how much decoder buffer one recv may fill. */
constexpr size_t kRecvChunk = 64 * 1024;

/** Accept-time reservation for each half of a connection's output ring. */
constexpr size_t kInitialOutBytes = 8 * 1024;

/** Pending-connection queue length passed to listen(). */
constexpr int kListenBacklog = 64;

/** Open connections beyond this are closed as soon as they are accepted. */
constexpr size_t kMaxConnections = 64;

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

ServeDaemon::ServeDaemon(ServerOptions options)
    : options_(std::move(options)), front_door_(options_.front_door) {
  front_door_.set_sink(this);
  front_door_.set_serve_allocs_counter(&serve_allocs_);
}

ServeDaemon::~ServeDaemon() {
  for (auto& [fd, conn] : by_fd_) ::close(fd);
  by_fd_.clear();
  by_id_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

void ServeDaemon::AddPlatform(platforms::PlatformSpec spec) {
  front_door_.AddPlatform(std::move(spec));
}

void ServeDaemon::AddDefaultPlatforms() { front_door_.AddDefaultPlatforms(); }

bool ServeDaemon::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return false;
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return false;
  }
  if (::listen(listen_fd_, kListenBacklog) < 0) return false;
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return false;
  }
  port_ = ntohs(addr.sin_port);
  if (!SetNonBlocking(listen_fd_)) return false;
  if (::pipe(wake_pipe_) < 0) return false;
  SetNonBlocking(wake_pipe_[0]);
  SetNonBlocking(wake_pipe_[1]);
  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) return false;
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) return false;
  ev.data.fd = wake_pipe_[0];
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_pipe_[0], &ev) < 0) {
    return false;
  }
  return true;
}

void ServeDaemon::EnsureStarted() {
  if (serving_started_) return;
  serving_started_ = true;
  front_door_.Start();
  wall_start_ = std::chrono::steady_clock::now();
  virtual_start_ = front_door_.virtual_now();
}

void ServeDaemon::Run() {
  assert(epoll_fd_ >= 0 && "Listen() before Run()");
  EnsureStarted();
  while (!stop_.load(std::memory_order_acquire)) {
    // Sleep at most 1ms so the virtual clock keeps flowing even on an
    // idle connection set.
    RunOnce(1);
  }
  Shutdown();
}

void ServeDaemon::RunOnce(int timeout_ms) {
  assert(epoll_fd_ >= 0 && "Listen() before RunOnce()");
  EnsureStarted();
  // Pace virtual time off the wall clock. Every request admitted since
  // the previous iteration rides this single Pump.
  const double wall_elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start_)
          .count();
  front_door_.Pump(virtual_start_ +
                   SimTime::FromSeconds(
                       wall_elapsed * options_.virtual_seconds_per_wall_second));
  // Completions fired inside the pump serialized responses without a
  // socket event; push them out now rather than waiting for the peer to
  // talk. Iterated in place (no swap) so the list keeps its capacity.
  if (!pending_flush_.empty()) {
    for (size_t i = 0; i < pending_flush_.size(); ++i) {
      auto it = by_id_.find(pending_flush_[i]);
      if (it == by_id_.end()) continue;
      it->second->in_flush_list = false;
      FlushConnection(it->second);
    }
    pending_flush_.clear();
  }
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
  if (n < 0) return;  // EINTR and friends: retry next iteration
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    if (fd == listen_fd_) {
      AcceptReady();
      continue;
    }
    if (fd == wake_pipe_[0]) {
      char sink[64];
      while (::read(wake_pipe_[0], sink, sizeof(sink)) > 0) {
      }
      continue;
    }
    auto it = by_fd_.find(fd);
    if (it == by_fd_.end()) continue;  // closed earlier this batch
    Connection* conn = it->second.get();
    if (events[i].events & (EPOLLHUP | EPOLLERR)) {
      CloseConnection(conn);
      continue;
    }
    if (events[i].events & EPOLLIN) HandleReadable(conn);
    // HandleReadable may have closed the connection on a protocol error.
    if (by_fd_.find(fd) == by_fd_.end()) continue;
    if (events[i].events & EPOLLOUT) FlushConnection(conn);
  }
}

void ServeDaemon::Shutdown() {
  // Complete every in-flight query in virtual time (instant on the wall
  // clock), deliver the responses, then finalize the fleet.
  front_door_.Pump(SimTime::Max());
  DrainAndFlush();
  front_door_.Finish();
}

void ServeDaemon::Stop() {
  stop_.store(true, std::memory_order_release);
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void ServeDaemon::AcceptReady() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    if (by_fd_.size() >= kMaxConnections) {
      ::close(fd);  // over the cap: shed the connection outright
      continue;
    }
    SetNonBlocking(fd);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_connection_id_++;
    // Pre-size both halves of the output ring at accept time so common
    // responses never grow them in steady state. Growth past this (e.g.
    // large kWindows snapshots) is a legitimate new high-water mark and
    // is counted by serve_allocs_.
    conn->out_front.reserve(kInitialOutBytes);
    conn->out_back.reserve(kInitialOutBytes);
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    ++stats_.connections_accepted;
    by_id_[conn->id] = conn.get();
    by_fd_[fd] = std::move(conn);
  }
}

void ServeDaemon::HandleReadable(Connection* conn) {
  // Receive directly into the decoder's buffer — no staging copy. Buffer
  // growth (first frames, oversized bursts) is the only allocation, and
  // it is counted.
  const uint64_t reallocs_before = conn->decoder.buffer_reallocs();
  for (;;) {
    uint8_t* span = conn->decoder.WritableSpan(kRecvChunk);
    const ssize_t n = ::recv(conn->fd, span, kRecvChunk, 0);
    if (n > 0) {
      conn->decoder.CommitBytes(static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    serve_allocs_ += conn->decoder.buffer_reallocs() - reallocs_before;
    CloseConnection(conn);  // peer hung up or hard error
    return;
  }
  serve_allocs_ += conn->decoder.buffer_reallocs() - reallocs_before;
  // Decode every complete frame in place and collect the whole batch;
  // one SubmitTicketedBatch admits it ahead of the next Pump. Responses
  // (sync and completions alike) arrive through OnResponse.
  batch_requests_.clear();
  batch_tickets_.clear();
  bool protocol_error = false;
  FrameView view;
  for (;;) {
    const FrameDecoder::Status status = conn->decoder.NextView(&view);
    if (status == FrameDecoder::Status::kNeedMore) break;
    if (status != FrameDecoder::Status::kFrame) {
      // Corrupt or oversized frame: the stream cannot be resynchronized.
      // Requests already decoded from this wake are still valid — admit
      // them below, exactly as if the connection died one event later.
      ++stats_.protocol_errors;
      protocol_error = true;
      break;
    }
    ++stats_.frames_received;
    Request request;
    if (!DecodeRequest(view.data, view.size, &request)) {
      ++stats_.protocol_errors;
      protocol_error = true;
      break;
    }
    if (batch_requests_.size() == batch_requests_.capacity()) {
      ++serve_allocs_;
    }
    if (batch_tickets_.size() == batch_tickets_.capacity()) ++serve_allocs_;
    batch_requests_.push_back(request);
    batch_tickets_.push_back(AllocTicket(conn->id, request.id));
  }
  if (!batch_requests_.empty()) {
    front_door_.SubmitTicketedBatch(batch_requests_.data(),
                                    batch_tickets_.data(),
                                    batch_requests_.size());
  }
  if (protocol_error) {
    CloseConnection(conn);
    return;
  }
  FlushConnection(conn);
}

uint64_t ServeDaemon::AllocTicket(uint64_t conn_id, uint64_t request_id) {
  uint32_t slot;
  if (!free_pending_.empty()) {
    slot = free_pending_.back();
    free_pending_.pop_back();
  } else {
    slot = static_cast<uint32_t>(pending_.size());
    if (pending_.size() == pending_.capacity()) ++serve_allocs_;
    pending_.emplace_back();
    // The free list's high-water capacity trails the slot table's; grow
    // it here so a later release can never allocate.
    if (free_pending_.capacity() < pending_.size()) {
      ++serve_allocs_;
      free_pending_.reserve(pending_.capacity());
    }
  }
  pending_[slot] = PendingRequest{conn_id, request_id};
  return slot;
}

void ServeDaemon::OnResponse(uint64_t ticket, Response& response) {
  const PendingRequest pending = pending_[static_cast<size_t>(ticket)];
  free_pending_.push_back(static_cast<uint32_t>(ticket));
  auto it = by_id_.find(pending.conn_id);
  if (it == by_id_.end()) {
    ++stats_.dropped_responses;  // completion outlived the connection
    return;
  }
  Connection* conn = it->second;
  response.id = pending.request_id;
  // Serialize straight into the connection's accumulating back buffer:
  // frame prefix, protowire payload, CRC trailer, no intermediate copy.
  const size_t capacity_before = conn->out_back.capacity();
  const size_t payload_start = BeginFrame(conn->out_back);
  EncodeResponse(response, conn->out_back);
  EndFrame(conn->out_back, payload_start);
  if (conn->out_back.capacity() != capacity_before) ++serve_allocs_;
  ++stats_.frames_sent;
  if (!conn->in_flush_list) {
    conn->in_flush_list = true;
    if (pending_flush_.size() == pending_flush_.capacity()) ++serve_allocs_;
    pending_flush_.push_back(pending.conn_id);
  }
}

void ServeDaemon::FlushConnection(Connection* conn) {
  for (;;) {
    size_t front_remaining = conn->out_front.size() - conn->out_offset;
    if (front_remaining == 0) {
      conn->out_front.clear();  // keeps capacity
      conn->out_offset = 0;
      if (conn->out_back.empty()) break;
      std::swap(conn->out_front, conn->out_back);
      front_remaining = conn->out_front.size();
    }
    // One scatter-gather syscall drains both buffers: the front's
    // remainder and everything accumulated behind it.
    iovec iov[2];
    iov[0].iov_base = conn->out_front.data() + conn->out_offset;
    iov[0].iov_len = front_remaining;
    msghdr msg;
    std::memset(&msg, 0, sizeof(msg));
    msg.msg_iov = iov;
    msg.msg_iovlen = 1;
    if (!conn->out_back.empty()) {
      iov[1].iov_base = conn->out_back.data();
      iov[1].iov_len = conn->out_back.size();
      msg.msg_iovlen = 2;
    }
    const ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConnection(conn);
      return;
    }
    size_t written = static_cast<size_t>(n);
    if (written < front_remaining) {
      conn->out_offset += written;
      continue;
    }
    // Front fully drained (and possibly part of the back): swap the
    // buffers and keep the overshoot as the new front offset.
    written -= front_remaining;
    conn->out_front.clear();
    std::swap(conn->out_front, conn->out_back);
    conn->out_offset = written;
  }
  const bool want_write = HasPendingOutput(conn);
  if (want_write != conn->want_write) {
    conn->want_write = want_write;
    UpdateEpoll(conn);
  }
}

void ServeDaemon::UpdateEpoll(Connection* conn) {
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN | (conn->want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void ServeDaemon::CloseConnection(Connection* conn) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  ++stats_.connections_closed;
  by_id_.erase(conn->id);
  by_fd_.erase(conn->fd);  // frees conn
}

void ServeDaemon::DrainAndFlush() {
  // Best-effort blocking flush with a hard deadline; peers that stopped
  // reading lose their tail responses.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  std::vector<uint64_t> ids;
  ids.reserve(by_id_.size());
  for (const auto& [id, conn] : by_id_) ids.push_back(id);
  for (uint64_t id : ids) {
    for (;;) {
      auto it = by_id_.find(id);
      if (it == by_id_.end()) break;
      Connection* conn = it->second;
      if (!HasPendingOutput(conn)) break;
      if (std::chrono::steady_clock::now() >= deadline) break;
      pollfd pfd{conn->fd, POLLOUT, 0};
      ::poll(&pfd, 1, 50);
      FlushConnection(conn);
    }
  }
}

}  // namespace hyperprof::serve
