#include "client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace perfbench {

namespace {

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect: " + why);
  }
  return fd;
}

}  // namespace

Connection::Connection(std::uint16_t port)
    : fd_(connect_loopback(port)),
      channel_([fd = fd_](char* buf, std::size_t len) {
                 return static_cast<long>(::recv(fd, buf, len, 0));
               },
               [fd = fd_](const char* buf, std::size_t len) {
                 return static_cast<long>(::send(fd, buf, len, MSG_NOSIGNAL));
               }) {}

Connection::~Connection() { ::close(fd_); }

bool Connection::roundtrip(lama::svc::WireVerb verb, std::string_view payload,
                           std::string& reply, std::string& error) {
  if (!channel_.write_frame(verb, payload)) {
    error = "write: " + std::string(std::strerror(errno));
    return false;
  }
  lama::svc::WireVerb reply_verb = lama::svc::WireVerb::kErr;
  if (!channel_.read_frame(reply_verb, reply, error)) return false;
  last_bytes_ = lama::svc::kFrameHeaderBytes + reply.size();
  return true;
}

}  // namespace perfbench
