#include "loadgen.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "report.h"
#include "workloads/protowire/wire.h"

namespace perfbench {

namespace hs = hyperprof::serve;

namespace {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void AppendRequestFrame(const hs::Request& request,
                        hyperprof::protowire::WireBuffer& scratch,
                        std::vector<uint8_t>& out) {
  scratch.clear();
  hs::EncodeRequest(request, scratch);
  hs::EncodeFrame(scratch.data(), scratch.size(), out);
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kSpinS = 0.002;

}  // namespace

std::vector<double> PoissonSchedule(double rate, double seconds,
                                    uint64_t seed) {
  std::vector<double> schedule;
  uint64_t state = seed;
  double due = 0;
  for (;;) {
    // Uniform in (0, 1] from the top 53 bits; exponential gap by inversion.
    const double u =
        (static_cast<double>(SplitMix64(state) >> 11) + 1.0) * 0x1.0p-53;
    due += -std::log(u) / rate;
    if (due >= seconds) break;
    schedule.push_back(due);
  }
  return schedule;
}

OpenLoopClient::~OpenLoopClient() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

bool OpenLoopClient::Connect(uint16_t port, uint32_t connections) {
  conns_.resize(connections);
  for (Conn& conn : conns_) {
    conn.fd = ConnectLoopback(port);
    if (conn.fd < 0) return false;
  }
  return true;
}

bool OpenLoopClient::Flush() {
  for (Conn& conn : conns_) {
    while (conn.out_offset < conn.out.size()) {
      const ssize_t n =
          ::send(conn.fd, conn.out.data() + conn.out_offset,
                 conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_offset += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        return false;
      }
    }
    if (conn.out_offset == conn.out.size()) {
      conn.out.clear();
      conn.out_offset = 0;
    }
  }
  return true;
}

bool OpenLoopClient::Receive(Conn& conn) {
  constexpr size_t kChunk = 64 * 1024;
  uint8_t* span = conn.decoder.WritableSpan(kChunk);
  if (span == nullptr) return false;  // the stream already failed
  const ssize_t n = ::recv(conn.fd, span, kChunk, 0);
  if (n > 0) {
    conn.decoder.CommitBytes(static_cast<size_t>(n));
    return true;
  }
  return n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK);
}

PhaseResult OpenLoopClient::RunPhase(hs::RequestKind kind, uint32_t platform,
                                     const std::vector<double>& schedule,
                                     double drain_s) {
  PhaseResult result;
  const size_t count = schedule.size();
  result.first_id = next_id_;
  next_id_ += count;
  result.due_s.resize(count);
  result.sent_s.assign(count, -1.0);
  result.received_s.assign(count, -1.0);
  const double start = WallSeconds();
  for (size_t k = 0; k < count; ++k) result.due_s[k] = start + schedule[k];
  result.first_due_s = count > 0 ? result.due_s[0] : start;
  const double send_end =
      start + (count > 0 ? schedule.back() : 0.0);

  // Backlog samples for the growth test: outstanding requests, summed
  // over the second and the last quarter of the send window.
  double q2_sum = 0, q4_sum = 0;
  uint64_t q2_samples = 0, q4_samples = 0;
  double next_sample = start;

  hyperprof::protowire::WireBuffer scratch;
  std::vector<pollfd> pfds(conns_.size());
  std::vector<uint8_t> answered_ok(count, 0);
  size_t next = 0;
  uint64_t answered = 0;
  bool broken = false;
  while (!broken) {
    double now = WallSeconds();
    while (next < count && result.due_s[next] <= now) {
      hs::Request request;
      request.id = result.first_id + next;
      request.kind = kind;
      request.platform = platform;
      AppendRequestFrame(request, scratch, conns_[next % conns_.size()].out);
      result.sent_s[next] = now;
      ++next;
    }
    if (!Flush()) break;
    const uint64_t outstanding = next - answered;
    result.outstanding_max = std::max(result.outstanding_max, outstanding);
    if (now >= next_sample && next < count) {
      const double position = (now - start) / std::max(1e-9, send_end - start);
      if (position >= 0.25 && position < 0.5) {
        q2_sum += static_cast<double>(outstanding);
        ++q2_samples;
      } else if (position >= 0.75) {
        q4_sum += static_cast<double>(outstanding);
        ++q4_samples;
      }
      next_sample = now + 0.001;
    }
    if (next == count && answered == count) break;
    if (next == count && now > send_end + drain_s) break;

    // Wait for a response or the next due time. Within kSpinS of a due
    // time the generator polls without sleeping: waking a sleeping thread
    // on a virtualized host can take milliseconds, which would be charged
    // to the service as lateness.
    double wait = next < count ? result.due_s[next] - now : 0.01;
    wait = wait < kSpinS ? 0.0 : std::min(wait - kSpinS, 0.01);
    timespec timeout;
    timeout.tv_sec = 0;
    timeout.tv_nsec = static_cast<long>(wait * 1e9);
    for (size_t i = 0; i < conns_.size(); ++i) {
      pfds[i].fd = conns_[i].fd;
      pfds[i].events = POLLIN;
      if (conns_[i].out_offset < conns_[i].out.size()) pfds[i].events |= POLLOUT;
      pfds[i].revents = 0;
    }
    const int ready = ::ppoll(pfds.data(), pfds.size(), &timeout, nullptr);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    now = WallSeconds();
    for (size_t i = 0; i < conns_.size() && !broken; ++i) {
      if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      Conn& conn = conns_[i];
      if (!Receive(conn)) {
        broken = true;
        break;
      }
      hs::FrameView view;
      for (;;) {
        const auto status = conn.decoder.NextView(&view);
        if (status == hs::FrameDecoder::Status::kNeedMore) break;
        if (status != hs::FrameDecoder::Status::kFrame) {
          ++result.bad_frames;  // CRC or length failure: stream is dead
          broken = true;
          break;
        }
        hs::Response response;
        if (!hs::DecodeResponse(view.data, view.size, &response)) {
          ++result.bad_frames;
          continue;
        }
        const uint64_t k = response.id - result.first_id;
        if (response.id < result.first_id || k >= next ||
            result.received_s[k] >= 0) {
          ++result.unmatched;
          continue;
        }
        result.received_s[k] = now;
        ++answered;
        result.last_response_s = now;
        switch (response.status) {
          case hs::ResponseStatus::kOk:
            answered_ok[k] = 1;
            ++result.ok;
            break;
          case hs::ResponseStatus::kShed:
            ++result.shed;
            break;
          case hs::ResponseStatus::kError:
            ++result.errors;
            break;
        }
      }
    }
  }
  result.sent = next;
  result.lost = count - answered;
  result.latency_s.resize(count);
  result.late_s.resize(count);
  for (size_t k = 0; k < count; ++k) {
    result.late_s[k] = result.sent_s[k] >= 0 ? result.sent_s[k] - result.due_s[k]
                                             : kInf;
    // Shed, failed and lost requests miss every latency limit.
    result.latency_s[k] =
        answered_ok[k] ? result.received_s[k] - result.due_s[k] : kInf;
  }
  if (q2_samples > 0 && q4_samples > 0) {
    result.backlog_growth = q4_sum / static_cast<double>(q4_samples) -
                            q2_sum / static_cast<double>(q2_samples);
  }
  return result;
}

bool OpenLoopClient::Stats(hs::StatsSummary* stats) {
  if (conns_.empty()) return false;
  Conn& conn = conns_[0];
  hs::Request request;
  request.id = next_id_++;
  request.kind = hs::RequestKind::kStats;
  hyperprof::protowire::WireBuffer scratch;
  AppendRequestFrame(request, scratch, conn.out);
  const double deadline = WallSeconds() + 5.0;
  while (WallSeconds() < deadline) {
    if (!Flush()) return false;
    pollfd pfd{conn.fd, POLLIN, 0};
    if (::poll(&pfd, 1, 10) <= 0) continue;
    if (!Receive(conn)) return false;
    hs::FrameView view;
    const auto status = conn.decoder.NextView(&view);
    if (status == hs::FrameDecoder::Status::kNeedMore) continue;
    hs::Response response;
    if (status != hs::FrameDecoder::Status::kFrame ||
        !hs::DecodeResponse(view.data, view.size, &response) ||
        response.id != request.id || !response.has_stats) {
      return false;
    }
    *stats = response.stats;
    return true;
  }
  return false;
}

}  // namespace perfbench
