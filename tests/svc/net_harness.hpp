// Shared fixture for the socket-server suites: a ShardedServer on a
// loopback port the kernel picks (port 0), plus a small blocking client that
// speaks both framings. The client is deliberately primitive — raw
// send/recv with a poll() deadline — so the tests exercise the server's
// framing logic, not a second copy of the production client.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "svc/shard_server.hpp"
#include "svc/wire.hpp"

namespace lama::svc::testing {

// A service + running server of `shards` event loops on 127.0.0.1:<kernel
// port>. workers=0 keeps dispatch deterministic for differential tests.
class TestServer {
 public:
  explicit TestServer(NetConfig net = {}, ServiceConfig config = {.workers = 0},
                      std::size_t shards = 1)
      : service_(config), server_(service_, ShardServerConfig{shards, net, {}}) {
    server_.listen("tcp:127.0.0.1:0");
    server_.start();
  }
  ~TestServer() { server_.stop(); }

  MappingService& service() { return service_; }
  ShardedServer& server() { return server_; }
  // Shard 0's counters — every counter of a one-shard server.
  const NetCounters& counters() const { return server_.shard_counters(0); }
  std::uint16_t port() const { return server_.bound_address().port; }

  // Counter `field` summed across every shard.
  std::uint64_t sum(std::atomic<std::uint64_t> NetCounters::* field) const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < server_.shards(); ++i) {
      total += (server_.shard_counters(i).*field)
                   .load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  MappingService service_;
  ShardedServer server_;
};

// Blocking loopback client with a deadline on every read.
class BlockingClient {
 public:
  explicit BlockingClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    LAMA_ASSERT(fd_ >= 0);
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int rc =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    LAMA_ASSERT(rc == 0);
  }
  ~BlockingClient() { close(); }

  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  // Half-close our sending side; the server sees EOF but can still write.
  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }

  bool send_all(std::string_view data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const auto n = ::send(fd_, data.data() + off, data.size() - off, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  // One '\n'-terminated line, '\r' and terminator stripped. False on EOF or
  // deadline.
  bool read_line(std::string& line, int timeout_ms = 5000) {
    for (;;) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line.assign(buf_, 0, nl);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        buf_.erase(0, nl + 1);
        return true;
      }
      if (!fill(timeout_ms)) return false;
    }
  }

  // One binary frame. False on EOF, deadline, or framing damage.
  bool read_frame(WireVerb& verb, std::string& payload,
                  int timeout_ms = 5000) {
    for (;;) {
      WireFrame frame;
      std::size_t consumed = 0;
      std::string error;
      const FrameStatus status = decode_frame(buf_, frame, consumed, error);
      if (status == FrameStatus::kFrame) {
        verb = frame.verb;
        payload.assign(frame.payload);
        buf_.erase(0, consumed);
        return true;
      }
      if (status == FrameStatus::kBad) return false;
      if (!fill(timeout_ms)) return false;
    }
  }

  // True when the peer closes without sending more bytes.
  bool read_eof(int timeout_ms = 5000) {
    if (!buf_.empty()) return false;
    return !fill(timeout_ms) && eof_;
  }

  std::size_t buffered() const { return buf_.size(); }

 private:
  bool fill(int timeout_ms) {
    pollfd pfd{fd_, POLLIN, 0};
    for (;;) {
      const int pr = ::poll(&pfd, 1, timeout_ms);
      if (pr < 0 && errno == EINTR) continue;
      if (pr <= 0) return false;  // timeout or poll error
      break;
    }
    char chunk[4096];
    for (;;) {
      const auto n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        eof_ = n == 0;
        return false;
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
  }

  int fd_ = -1;
  bool eof_ = false;
  std::string buf_;
};

// The Figure-2 topology every protocol test uses.
inline std::string figure2_node_line(const std::string& id) {
  return "NODE " + id +
         " 8 (node (socket@0 (core@0 (pu@0) (pu@1)) (core@1 (pu@2) (pu@3))) "
         "(socket@1 (core@2 (pu@4) (pu@5)) (core@3 (pu@6) (pu@7))))";
}

// A request frame for `command` (continuation joined after '\n'), stamped
// with the verb matching the leading keyword.
inline std::string frame_for(const std::string& command) {
  const auto space = command.find_first_of(" \t");
  const std::string keyword = command.substr(0, space);
  const auto verb = wire_verb_for_keyword(keyword);
  LAMA_ASSERT(verb.has_value());
  return encode_frame(*verb, command);
}

}  // namespace lama::svc::testing
