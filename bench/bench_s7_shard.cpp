// S7 — what sharding the event loop actually buys: isolation of light
// traffic from heavy traffic. One epoll loop dispatches inline, so a
// connection streaming expensive requests (here: OPTIMIZE searches with
// always-fresh traffic digests, which no cache can absorb) head-of-line
// blocks every other connection on the loop. With N SO_REUSEPORT shards the
// kernel hashes connections across loops, so a probe connection pipelining
// cheap cache-hit binary MAPs usually lands away from the adversary and its
// latency collapses back to the unloaded number — even on a single-core
// host, where the probe's shard thread wakes with sleeper credit and
// preempts the busy one.
//
// The gate: the fastest probe's wall time for a fixed pipelined binary MAP
// workload, adversary streaming throughout, must improve by at least
// argv[2] (default 2.5x) at 4 shards over 1 shard. Per repeat the probes
// reconnect, re-rolling the kernel's shard hash; taking the best probe of
// the best repeat makes the measurement insensitive to unlucky hashes (at
// 1 shard there is no lucky hash — every connection shares the loop).
// Uniform scaling without an adversary is reported informationally
// (host_cpus in the JSON tells the reader whether parallel speedup was
// even available). Every probe connection defines an allocation of its own:
// the shards share one control plane, so probes sharing an id would grow
// one allocation (NODE adds a node) and turn each other's next MAP cold.
// Writes BENCH_s7_shard.json (argv[1]).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "svc/shard_server.hpp"
#include "svc/wire.hpp"
#include "topo/node_topology.hpp"
#include "topo/serialize.hpp"

namespace {

using namespace lama;

constexpr std::size_t kProbes = 3;
constexpr std::size_t kProbeRequests = 96;
constexpr std::size_t kDepth = 16;
constexpr std::size_t kRepeats = 5;
constexpr std::size_t kAdversaryDepth = 4;

constexpr const char* kProbeDesc = "socket:2 core:2 pu:2";
constexpr const char* kHeavyDesc = "socket:2 numa:2 core:6 pu:2";
// Fresh digest per request, across configs and repeats: the optimizer
// cache never hits, every adversary request is a real placement search.
std::atomic<std::uint64_t> g_halo{65536};
// Fresh allocation id per probe connection, across configs and repeats.
std::atomic<std::uint64_t> g_probe{0};

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
  std::fprintf(stderr, "s7_shard: %s\n", what);
  std::exit(1);
}

std::string node_line(const std::string& id, const char* desc) {
  const NodeTopology topo = NodeTopology::synthetic(desc);
  return "NODE " + id + " " +
         std::to_string(topo.online_pus().count()) + " " +
         serialize_topology(topo);
}

// One probe connection: define its allocation, warm its plan, then time
// kProbeRequests cache-hit binary MAPs pipelined kDepth deep.
std::uint64_t run_probe(std::uint16_t port) {
  const int fd = connect_loopback(port);
  if (fd < 0) die("probe connect failed");
  Reader r{fd, {}};
  std::string payload;
  const std::string id =
      "probe" + std::to_string(g_probe.fetch_add(1, std::memory_order_relaxed));
  const std::string map_frame =
      svc::encode_frame(svc::WireVerb::kMap, "MAP " + id + " 4 lama:scbnh");
  if (!send_all(fd, svc::encode_frame(svc::WireVerb::kNode,
                                      node_line(id, kProbeDesc))) ||
      !r.read_frame(payload) || !send_all(fd, map_frame) ||
      !r.read_frame(payload)) {
    die("probe warm failed");
  }
  const auto start = std::chrono::steady_clock::now();
  std::size_t done = 0;
  while (done < kProbeRequests) {
    const std::size_t burst = std::min(kDepth, kProbeRequests - done);
    std::string out;
    for (std::size_t i = 0; i < burst; ++i) out += map_frame;
    if (!send_all(fd, out)) die("probe send failed");
    for (std::size_t i = 0; i < burst; ++i) {
      if (!r.read_frame(payload)) die("probe read failed");
    }
    done += burst;
  }
  const auto stop = std::chrono::steady_clock::now();
  ::close(fd);
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
          .count());
}

// The adversary: one connection streaming pipelined OPTIMIZE frames, every
// request a fresh digest, until told to stop. Keeps its shard's loop
// saturated with multi-millisecond dispatches.
void run_adversary(std::uint16_t port, const std::atomic<bool>& stop) {
  const int fd = connect_loopback(port);
  if (fd < 0) die("adversary connect failed");
  Reader r{fd, {}};
  std::string payload;
  if (!send_all(fd, svc::encode_frame(svc::WireVerb::kNode,
                                      node_line("heavy", kHeavyDesc))) ||
      !r.read_frame(payload)) {
    die("adversary warm failed");
  }
  while (!stop.load(std::memory_order_relaxed)) {
    std::string out;
    for (std::size_t i = 0; i < kAdversaryDepth; ++i) {
      const std::uint64_t halo =
          g_halo.fetch_add(1, std::memory_order_relaxed);
      out += svc::encode_frame(
          svc::WireVerb::kOptimize,
          "OPTIMIZE heavy 24 pattern=halo:" + std::to_string(halo));
    }
    if (!send_all(fd, out)) die("adversary send failed");
    for (std::size_t i = 0; i < kAdversaryDepth; ++i) {
      if (!r.read_frame(payload)) {
        if (stop.load(std::memory_order_relaxed)) break;
        die("adversary read failed");
      }
    }
  }
  ::close(fd);
}

struct ConfigResult {
  std::uint64_t probe_ns = 0;    // best probe of the best repeat, loaded
  std::uint64_t uniform_ns = 0;  // all probes, no adversary (wall)
};

ConfigResult measure(std::size_t shards) {
  svc::MappingService service(
      {.workers = 0, .cache_shards = 8, .shard_capacity = 64});
  svc::ShardedServer server(service, {shards, {}, {}});
  server.listen("tcp:127.0.0.1:0");
  server.start();
  const std::uint16_t port = server.bound_address().port;

  ConfigResult result;

  // Loaded phase: adversary streams for the whole config; each repeat
  // reconnects the probes (re-rolling the shard hash) and keeps the
  // fastest probe's time.
  {
    std::atomic<bool> stop{false};
    std::thread adversary([&] { run_adversary(port, stop); });
    std::uint64_t best = ~0ull;
    for (std::size_t rep = 0; rep < kRepeats; ++rep) {
      std::vector<std::uint64_t> times(kProbes, 0);
      std::vector<std::thread> threads;
      for (std::size_t p = 0; p < kProbes; ++p) {
        threads.emplace_back([&, p] { times[p] = run_probe(port); });
      }
      for (std::thread& t : threads) t.join();
      best = std::min(best, *std::min_element(times.begin(), times.end()));
    }
    stop.store(true, std::memory_order_relaxed);
    adversary.join();
    result.probe_ns = best;
  }

  // Uniform phase: the same probe fleet with no adversary — raw pipelined
  // keep-alive scaling, which on a 1-cpu host is expected to be flat.
  {
    std::uint64_t best = ~0ull;
    for (std::size_t rep = 0; rep < kRepeats; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      std::vector<std::thread> threads;
      for (std::size_t p = 0; p < kProbes; ++p) {
        threads.emplace_back([&] { run_probe(port); });
      }
      for (std::thread& t : threads) t.join();
      const auto stop_t = std::chrono::steady_clock::now();
      best = std::min(
          best, static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        stop_t - start)
                        .count()));
    }
    result.uniform_ns = best;
  }

  server.stop();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : std::string("BENCH_s7_shard.json");
  const double gate = argc > 2 ? std::atof(argv[2]) : 2.5;

  const ConfigResult one = measure(1);
  const ConfigResult four = measure(4);

  const double hol_speedup = static_cast<double>(one.probe_ns) /
                             static_cast<double>(four.probe_ns);
  const double uniform_scaling = static_cast<double>(one.uniform_ns) /
                                 static_cast<double>(four.uniform_ns);
  const bool pass = hol_speedup >= gate;
  const unsigned host_cpus = std::thread::hardware_concurrency();

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"s7_shard\",\n"
               "  \"host_cpus\": %u,\n"
               "  \"probes\": %zu,\n"
               "  \"probe_requests\": %zu,\n"
               "  \"pipeline_depth\": %zu,\n"
               "  \"repeats\": %zu,\n"
               "  \"loaded_probe_1shard_ns\": %llu,\n"
               "  \"loaded_probe_4shard_ns\": %llu,\n"
               "  \"hol_blocking_speedup\": %.2f,\n"
               "  \"uniform_1shard_ns\": %llu,\n"
               "  \"uniform_4shard_ns\": %llu,\n"
               "  \"uniform_scaling\": %.2f,\n"
               "  \"gate\": %.2f,\n"
               "  \"pass\": %s\n"
               "}\n",
               host_cpus, kProbes, kProbeRequests, kDepth, kRepeats,
               static_cast<unsigned long long>(one.probe_ns),
               static_cast<unsigned long long>(four.probe_ns), hol_speedup,
               static_cast<unsigned long long>(one.uniform_ns),
               static_cast<unsigned long long>(four.uniform_ns),
               uniform_scaling, gate, pass ? "true" : "false");
  std::fclose(out);
  std::printf(
      "s7_shard: host_cpus=%u  loaded_probe 1shard=%.3f ms 4shard=%.3f ms  "
      "hol_speedup=%.2fx (gate %.1fx)  uniform_scaling=%.2fx  %s\n",
      host_cpus, one.probe_ns / 1e6, four.probe_ns / 1e6, hol_speedup, gate,
      uniform_scaling, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
