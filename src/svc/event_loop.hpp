// The epoll event-loop core of one shard of svc::ShardedServer (ROADMAP
// item 2): one thread, many keep-alive connections, requests pipelined per
// connection. Every shard dispatches into the server's one ProtocolSession,
// so a connection sees the same control-plane state and the same durability
// journal whichever shard the kernel hashed it to. The per-connection
// framing — text lines or the binary wire protocol (svc/wire.hpp) — is
// auto-detected from the first byte the peer sends and fixed for the
// connection's lifetime.
//
// Concurrency model: the loop thread owns its connections, their buffers
// and its NetCounters; dispatch within a shard is strictly serial. The
// session is shared across shards and serializes its own state behind one
// mutex (svc/protocol.hpp says which verbs hold it for how long); the
// service underneath is thread-safe and fans batches out to its own pool.
// NetCounters are relaxed atomics so STATS/METRICS may read them from any
// shard.
//
// Backpressure: responses queue in a per-connection write buffer and drain
// as the socket accepts them. A peer that pipelines faster than it reads
// grows that buffer; past NetConfig::write_buffer_limit new requests are
// shed with the protocol's "ERR busy retry-after=<ms>" reply (framed per
// the connection's mode) without executing — the same admission-control
// contract the service applies under load, applied at the transport.
//
// Graceful drain (docs/resilience.md): when the stop predicate fires, the
// acceptor closes first, commands already buffered are dispatched (a
// draining service sheds work verbs with the busy reply), write buffers are
// flushed for at most NetConfig::drain_grace_ms, and only then do the
// connections close — so `lamactl serve --listen` can snapshot a quiesced
// session after run() returns.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "svc/counters.hpp"

namespace lama::svc {

class MappingService;
class ProtocolSession;

// A connection cap shared by every shard of a sharded server (ROADMAP item
// 3): with N SO_REUSEPORT listeners the kernel spreads connections by
// 4-tuple hash, so a per-listener cap would multiply the configured limit
// by the shard count. Each accept try_acquire()s, each close release()s —
// lock-free, exact under concurrency (the CAS never admits past the cap).
class ConnectionLimiter {
 public:
  // cap 0 = unlimited.
  explicit ConnectionLimiter(std::size_t cap = 0) : cap_(cap) {}

  bool try_acquire() {
    std::size_t cur = active_.load(std::memory_order_relaxed);
    for (;;) {
      if (cap_ != 0 && cur >= cap_) return false;
      if (active_.compare_exchange_weak(cur, cur + 1,
                                        std::memory_order_relaxed)) {
        return true;
      }
    }
  }
  void release() { active_.fetch_sub(1, std::memory_order_relaxed); }

  [[nodiscard]] std::size_t active() const {
    return active_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::size_t> active_{0};
  std::size_t cap_;
};

struct NetConfig {
  // Connections allowed at once across every shard (0 = unlimited); accepts
  // past the cap are refused immediately (counted in NetCounters::rejected).
  std::size_t max_connections = 256;
  // Pending response bytes per connection above which new requests on that
  // connection are shed with ERR busy instead of executing.
  std::size_t write_buffer_limit = 4u << 20;
  // Unconsumed inbound bytes a connection may hold without yielding one
  // complete request (an unterminated text line / unfinished continuation
  // block). Binary frames carry their own 1 MiB bound.
  std::size_t max_request_bytes = (1u << 20) + 64;
  // How long the drain phase keeps flushing write buffers before closing.
  std::uint32_t drain_grace_ms = 1000;
  // epoll_wait timeout — the granularity at which the stop predicate and
  // signal flags are polled.
  int poll_interval_ms = 50;
};

// A parsed listen/connect address: "tcp:<host>:<port>", "<host>:<port>",
// ":<port>", "<port>" (TCP, default host 127.0.0.1, "*" = any interface),
// or "unix:<path>".
struct ListenAddress {
  bool is_unix = false;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string path;

  [[nodiscard]] std::string to_string() const;
};

// Throws ParseError on malformed text (bad port, empty unix path, a path
// longer than sockaddr_un allows).
ListenAddress parse_listen_address(const std::string& text);

// One shard's loop. Built only by ShardedServer, which owns everything
// passed here: `limiter` admits connections against the global cap,
// `reuse_port` sets SO_REUSEPORT before binding (TCP only) so sibling shards
// share the port, and `affinity_cpus` pins the loop thread at the top of
// run() (empty = unpinned; best effort, failures are ignored).
class EventLoopServer {
 public:
  EventLoopServer(MappingService& service, ProtocolSession& session,
                  const NetConfig& config, ConnectionLimiter& limiter,
                  bool reuse_port, std::vector<int> affinity_cpus);
  ~EventLoopServer();

  EventLoopServer(const EventLoopServer&) = delete;
  EventLoopServer& operator=(const EventLoopServer&) = delete;

  // Binds and listens. Throws MappingError when the socket cannot be set
  // up (address in use, bad unix path, ...). Call once, before run().
  void listen(const ListenAddress& address);

  // The listening address with the kernel-resolved port — pass port 0 to
  // listen() and read the real port back here (tests do).
  [[nodiscard]] const ListenAddress& bound_address() const { return bound_; }

  // Serves on the calling thread until `stop` returns true (polled every
  // poll_interval_ms) or stop() is called, then drains and returns the
  // number of requests dispatched. `stop` may be null.
  std::size_t run(const std::function<bool()>& stop = nullptr);

  // Asks run() to drain and return; callable from any thread.
  void stop();

  [[nodiscard]] const NetCounters& net_counters() const { return counters_; }
  [[nodiscard]] std::size_t dispatched() const {
    return dispatched_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection;
  struct Impl;

  void accept_ready();
  void handle_readable(Connection& conn);
  void process_input(Connection& conn);
  void dispatch(Connection& conn, std::string_view line,
                std::string_view continuation, bool binary);
  // WATCH subscriptions: handle_watch parses the subscribe/stop line and
  // arms the connection; watch_tick runs once per epoll_wait wake (so event
  // latency is bounded by NetConfig::poll_interval_ms) pushing due
  // snapshots and immediate failure/SLO-breach events.
  std::string handle_watch(Connection& conn, std::string_view line);
  void watch_tick();
  void append_response(Connection& conn, std::string_view response,
                       bool binary);
  void flush_writes(Connection& conn);
  void update_interest(Connection& conn);
  void close_connection(Connection& conn, bool midstream);
  void drain_phase();

  MappingService& service_;
  ProtocolSession& session_;
  NetConfig config_;
  ConnectionLimiter& limiter_;
  bool reuse_port_;
  std::vector<int> affinity_cpus_;
  NetCounters counters_;
  ListenAddress bound_;
  std::unique_ptr<Impl> impl_;
  std::atomic<std::size_t> dispatched_{0};
  std::atomic<bool> stop_requested_{false};
};

}  // namespace lama::svc
