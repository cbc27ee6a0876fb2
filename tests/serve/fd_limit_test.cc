// The daemon when its process runs out of file descriptors. Own binary:
// the test lowers its process's RLIMIT_NOFILE, which must not reach the
// shared daemon thread of serve_test.

#include <errno.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

#include <gtest/gtest.h>

#include "platforms/platforms.h"
#include "serve/server.h"

namespace hyperprof::serve {
namespace {

TEST(ServeDaemonFdLimitTest, ShedsPendingConnectionOnEmfile) {
  ServeDaemon daemon{ServerOptions()};
  platforms::PlatformSpec spec = platforms::SpannerSpec();
  spec.block_space = 1 << 14;  // serving mechanics, not cache realism
  daemon.AddPlatform(spec);
  ASSERT_TRUE(daemon.Listen());
  daemon.RunOnce(0);  // start serving before the table is capped

  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(daemon.port());
  // Loopback connect completes in the listen backlog, before any accept.
  ASSERT_EQ(::connect(client, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // Cap this process's descriptor table at its lowest free number, so
  // the daemon's accept of the pending connection fails with EMFILE.
  rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  const int lowest_free = ::dup(client);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  rlimit capped = saved;
  capped.rlim_cur = static_cast<rlim_t>(lowest_free);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &capped), 0);

  // A connection left in the backlog keeps the level-triggered listen fd
  // readable, and every RunOnce returns at once.
  int iterations = 0;
  const auto end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  while (std::chrono::steady_clock::now() < end) {
    daemon.RunOnce(100);
    ++iterations;
  }
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  EXPECT_LE(iterations, 30);

  // The daemon shed the connection: the client reads EOF or a reset.
  char byte = 0;
  const ssize_t n = ::recv(client, &byte, 1, MSG_DONTWAIT);
  const int recv_errno = errno;
  EXPECT_TRUE(n == 0 || (n < 0 && recv_errno == ECONNRESET))
      << "recv returned " << n << ": " << std::strerror(recv_errno);
  ::close(client);
}

}  // namespace
}  // namespace hyperprof::serve
