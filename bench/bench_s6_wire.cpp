// S6 — pipelined binary keep-alive against connect-per-request text, over
// real loopback sockets through the epoll server. The baseline is the
// stateless CLI pattern: every request opens a TCP connection, defines the
// allocation (NODE line), sends one text MAP, reads the responses, and
// closes — paying connect, per-line parse, and a full round-trip per job.
// The contender holds one binary keep-alive connection, defines the
// allocation once, and pipelines MAP frames kDepth deep, so connect cost
// disappears and the server coalesces reads/writes across the window.
//
// Both sides hit the same warm plan cache with workers=0 (inline dispatch),
// so the measured gap is pure transport: framing, syscalls, and round-trip
// scheduling. Writes BENCH_s6_wire.json (argv[1], default
// ./BENCH_s6_wire.json) with minimum wall times over the repeats; exits
// nonzero unless the pipelined binary mode is at least argv[2] (default
// 10.0) times faster than the connect-per-request baseline. A keep-alive
// text mode is timed as an informational middle point separating the
// amortization win (keep-alive) from the pipelining win (windowed frames).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>

#include "svc/service.hpp"
#include "svc/shard_server.hpp"
#include "svc/wire.hpp"

namespace {

using namespace lama;

constexpr std::size_t kRequests = 256;
constexpr std::size_t kDepth = 32;
constexpr std::size_t kRepeats = 7;

constexpr const char* kNodeLine =
    "NODE a0 8 (node (socket@0 (core@0 (pu@0) (pu@1)) (core@1 (pu@2) (pu@3))) "
    "(socket@1 (core@2 (pu@4) (pu@5)) (core@3 (pu@6) (pu@7))))";
constexpr const char* kMapLine = "MAP a0 4 lama:scbnh";

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Minimal buffered reader; blocking reads, process exits on protocol damage
// (this is a benchmark, not a conformance test — any surprise is fatal).
struct Reader {
  int fd;
  std::string buf;

  bool fill() {
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
  }

  bool read_line(std::string& line) {
    for (;;) {
      const auto nl = buf.find('\n');
      if (nl != std::string::npos) {
        line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        return true;
      }
      if (!fill()) return false;
    }
  }

  bool read_frame(std::string& payload) {
    for (;;) {
      svc::WireFrame frame;
      std::size_t consumed = 0;
      std::string error;
      const svc::FrameStatus status =
          svc::decode_frame(buf, frame, consumed, error);
      if (status == svc::FrameStatus::kFrame) {
        payload.assign(frame.payload);
        buf.erase(0, consumed);
        return true;
      }
      if (status == svc::FrameStatus::kBad) {
        std::fprintf(stderr, "frame damage: %s\n", error.c_str());
        std::exit(1);
      }
      if (!fill()) return false;
    }
  }
};

void die(const char* what) {
  std::fprintf(stderr, "s6_wire: %s\n", what);
  std::exit(1);
}

std::uint64_t elapsed_ns(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
          .count());
}

std::uint64_t min_over_repeats(const std::function<void()>& fn) {
  std::uint64_t best = ~0ull;
  for (std::size_t r = 0; r < kRepeats; ++r) {
    best = std::min(best, elapsed_ns(fn));
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : std::string("BENCH_s6_wire.json");
  const double gate = argc > 2 ? std::atof(argv[2]) : 10.0;

  svc::MappingService service(
      {.workers = 0, .cache_shards = 8, .shard_capacity = 64});
  svc::ShardedServer server(service, {});
  server.listen("tcp:127.0.0.1:0");
  server.start();
  const std::uint16_t port = server.bound_address().port;

  // Warm the shared plan cache untimed so every timed request is a cache
  // hit: the gap under measurement is transport, not mapping compute.
  {
    const int fd = connect_loopback(port);
    if (fd < 0) die("warm connect failed");
    Reader r{fd, {}};
    std::string line;
    if (!send_all(fd, std::string(kNodeLine) + "\n" + kMapLine + "\n") ||
        !r.read_line(line) || !r.read_line(line)) {
      die("warm round-trip failed");
    }
    ::close(fd);
  }

  // Baseline: connect per request, text framing, allocation redefined each
  // time — the stateless `lamactl query` pattern.
  const std::uint64_t text_connect_ns = min_over_repeats([&] {
    for (std::size_t i = 0; i < kRequests; ++i) {
      const int fd = connect_loopback(port);
      if (fd < 0) die("baseline connect failed");
      Reader r{fd, {}};
      std::string line;
      if (!send_all(fd, std::string(kNodeLine) + "\n" + kMapLine + "\n") ||
          !r.read_line(line) || !r.read_line(line)) {
        die("baseline round-trip failed");
      }
      ::close(fd);
    }
  });

  // Middle point: one text connection, NODE once, sequential round-trips.
  const std::uint64_t text_keepalive_ns = [&] {
    const int fd = connect_loopback(port);
    if (fd < 0) die("keep-alive connect failed");
    Reader r{fd, {}};
    std::string line;
    if (!send_all(fd, std::string(kNodeLine) + "\n") || !r.read_line(line)) {
      die("keep-alive NODE failed");
    }
    const std::uint64_t ns = min_over_repeats([&] {
      for (std::size_t i = 0; i < kRequests; ++i) {
        if (!send_all(fd, std::string(kMapLine) + "\n") || !r.read_line(line)) {
          die("keep-alive round-trip failed");
        }
      }
    });
    ::close(fd);
    return ns;
  }();

  // Contender: one binary connection, NODE once, MAP frames pipelined
  // kDepth deep.
  const std::uint64_t binary_pipelined_ns = [&] {
    const int fd = connect_loopback(port);
    if (fd < 0) die("pipelined connect failed");
    Reader r{fd, {}};
    std::string payload;
    if (!send_all(fd, svc::encode_frame(svc::WireVerb::kNode, kNodeLine)) ||
        !r.read_frame(payload)) {
      die("pipelined NODE failed");
    }
    const std::string map_frame =
        svc::encode_frame(svc::WireVerb::kMap, kMapLine);
    const std::uint64_t ns = min_over_repeats([&] {
      std::size_t done = 0;
      while (done < kRequests) {
        const std::size_t burst = std::min(kDepth, kRequests - done);
        std::string out;
        for (std::size_t i = 0; i < burst; ++i) out += map_frame;
        if (!send_all(fd, out)) die("pipelined send failed");
        for (std::size_t i = 0; i < burst; ++i) {
          if (!r.read_frame(payload)) die("pipelined read failed");
        }
        done += burst;
      }
    });
    ::close(fd);
    return ns;
  }();

  server.stop();

  const double speedup = static_cast<double>(text_connect_ns) /
                         static_cast<double>(binary_pipelined_ns);
  const bool pass = speedup >= gate;

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"s6_wire\",\n"
               "  \"requests\": %zu,\n"
               "  \"pipeline_depth\": %zu,\n"
               "  \"repeats\": %zu,\n"
               "  \"workers\": 0,\n"
               "  \"text_connect_per_request_ns\": %llu,\n"
               "  \"text_keepalive_ns\": %llu,\n"
               "  \"binary_pipelined_ns\": %llu,\n"
               "  \"speedup_vs_connect_per_request\": %.2f,\n"
               "  \"gate\": %.2f,\n"
               "  \"pass\": %s\n"
               "}\n",
               kRequests, kDepth, kRepeats,
               static_cast<unsigned long long>(text_connect_ns),
               static_cast<unsigned long long>(text_keepalive_ns),
               static_cast<unsigned long long>(binary_pipelined_ns),
               speedup, gate, pass ? "true" : "false");
  std::fclose(out);
  std::printf(
      "s6_wire: %zu requests  text_connect=%.3f ms  text_keepalive=%.3f ms  "
      "binary_pipelined=%.3f ms  speedup=%.2fx (gate %.1fx)  %s\n",
      kRequests, text_connect_ns / 1e6, text_keepalive_ns / 1e6,
      binary_pipelined_ns / 1e6, speedup, gate, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
