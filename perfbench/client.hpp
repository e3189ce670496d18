// One keep-alive binary connection driven as a closed loop: a request frame
// goes out only after the previous reply frame has fully arrived. Framing is
// the repository's own client channel (svc::NetChannel); reads block, since
// the client shares its CPU with the server's event loop (main.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "svc/client.hpp"
#include "svc/wire.hpp"

namespace perfbench {

class Connection {
 public:
  // Connects to 127.0.0.1:port with TCP_NODELAY; throws std::runtime_error.
  explicit Connection(std::uint16_t port);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // Sends one frame and reads one reply frame into `reply` (its payload).
  // Returns false, with `error` set, on an I/O or framing failure.
  bool roundtrip(lama::svc::WireVerb verb, std::string_view payload,
                 std::string& reply, std::string& error);

  // Bytes of the last reply frame, header included.
  [[nodiscard]] std::size_t last_reply_bytes() const { return last_bytes_; }

 private:
  int fd_ = -1;
  lama::svc::NetChannel channel_;
  std::size_t last_bytes_ = 0;
};

}  // namespace perfbench
