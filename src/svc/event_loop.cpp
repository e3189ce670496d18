#include "svc/event_loop.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/tracer.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "svc/wire.hpp"

namespace lama::svc {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void inc(std::atomic<std::uint64_t>& a, std::uint64_t by = 1) {
  a.fetch_add(by, std::memory_order_relaxed);
}

std::string_view first_token(std::string_view line) {
  const std::size_t b = line.find_first_not_of(" \t");
  if (b == std::string_view::npos) return {};
  const std::size_t e = line.find_first_of(" \t", b);
  return line.substr(b, e == std::string_view::npos ? e : e - b);
}

// Bounded digit parse for continuation counts — failures return false so
// the command dispatches immediately and the protocol's own parser answers
// the ERR (nothing here may allocate or wait on a hostile count).
bool parse_count(std::string_view text, std::size_t max, std::size_t& out) {
  if (text.empty() || text.size() > 7) return false;
  std::size_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::size_t>(c - '0');
  }
  if (v > max) return false;
  out = v;
  return true;
}

// How many lines after the command line belong to this request: BATCH reads
// its n MAP lines, OPTIMIZE matrix=<n> reads its n body lines. A count the
// protocol would reject returns 0 — the command dispatches alone and the
// parse error fires before any continuation is consumed.
std::size_t continuation_lines(std::string_view line) {
  const std::string_view kw = first_token(line);
  std::size_t n = 0;
  if (kw == "BATCH") {
    const std::size_t after = line.find_first_of(" \t", line.find("BATCH"));
    if (after == std::string_view::npos) return 0;
    if (parse_count(first_token(line.substr(after)), kMaxBatch, n)) return n;
    return 0;
  }
  if (kw == "OPTIMIZE") {
    std::size_t p = 0;
    while (p < line.size()) {
      const std::size_t b = line.find_first_not_of(" \t", p);
      if (b == std::string_view::npos) break;
      const std::size_t e = line.find_first_of(" \t", b);
      const std::string_view tok =
          line.substr(b, e == std::string_view::npos ? e : e - b);
      if (starts_with(tok, "matrix=") &&
          parse_count(tok.substr(7), kMaxOptMatrixLines, n)) {
        return n;
      }
      if (e == std::string_view::npos) break;
      p = e;
    }
  }
  return 0;
}

}  // namespace

// ---- Addresses -------------------------------------------------------------

std::string ListenAddress::to_string() const {
  if (is_unix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

ListenAddress parse_listen_address(const std::string& text) {
  std::string t = trim(text);
  if (t.empty()) throw ParseError("empty listen address");
  ListenAddress out;
  if (starts_with(t, "unix:")) {
    out.is_unix = true;
    out.path = t.substr(5);
    if (out.path.empty()) throw ParseError("empty unix socket path");
    if (out.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      throw ParseError("unix socket path too long: " + out.path);
    }
    return out;
  }
  if (starts_with(t, "tcp:")) t = t.substr(4);
  const std::size_t colon = t.rfind(':');
  std::string host;
  std::string port = t;
  if (colon != std::string::npos) {
    host = t.substr(0, colon);
    port = t.substr(colon + 1);
  }
  out.port = static_cast<std::uint16_t>(
      parse_size_bounded(port, "listen port", 65535));
  if (!host.empty()) out.host = host;
  return out;
}

// ---- Server ----------------------------------------------------------------

struct EventLoopServer::Connection {
  enum class Mode : std::uint8_t { kUnknown, kText, kBinary };
  enum class WatchMode : std::uint8_t { kStats, kMetrics, kEvents };

  int fd = -1;
  std::uint32_t id = 0;
  Mode mode = Mode::kUnknown;
  std::string in;        // unconsumed inbound bytes
  std::string out;       // pending response bytes
  std::size_t out_off = 0;
  std::uint32_t events = 0;  // epoll mask currently registered
  bool close_after_flush = false;

  // WATCH subscription (event_loop.hpp): armed by handle_watch, serviced
  // by watch_tick. The *_seen baselines start at the current totals so a
  // new subscriber only hears about failures after it subscribed.
  bool watching = false;
  WatchMode watch_mode = WatchMode::kStats;
  std::uint64_t watch_interval_ns = 0;
  std::uint64_t watch_next_ns = 0;
  std::uint64_t watch_dumps_seen = 0;
  std::uint64_t watch_breaches_seen = 0;
};

struct EventLoopServer::Impl {
  int epoll_fd = -1;
  int listen_fd = -1;
  int wake_fd = -1;
  std::string unix_path;  // unlinked when the listener closes
  std::unordered_map<int, Connection> conns;
  std::uint32_t next_id = 1;
};

EventLoopServer::EventLoopServer(MappingService& service,
                                 ProtocolSession& session,
                                 const NetConfig& config,
                                 ConnectionLimiter& limiter, bool reuse_port,
                                 std::vector<int> affinity_cpus)
    : service_(service),
      session_(session),
      config_(config),
      limiter_(limiter),
      reuse_port_(reuse_port),
      affinity_cpus_(std::move(affinity_cpus)),
      impl_(std::make_unique<Impl>()) {
  impl_->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (impl_->epoll_fd < 0) {
    throw MappingError(std::string("epoll_create1: ") + std::strerror(errno));
  }
  impl_->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (impl_->wake_fd < 0) {
    throw MappingError(std::string("eventfd: ") + std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = impl_->wake_fd;
  ::epoll_ctl(impl_->epoll_fd, EPOLL_CTL_ADD, impl_->wake_fd, &ev);
  service_.attach_net(&counters_);
}

EventLoopServer::~EventLoopServer() {
  service_.detach_net(&counters_);
  for (auto& [fd, conn] : impl_->conns) {
    ::close(fd);
    limiter_.release();
  }
  impl_->conns.clear();
  if (impl_->listen_fd >= 0) ::close(impl_->listen_fd);
  if (!impl_->unix_path.empty()) ::unlink(impl_->unix_path.c_str());
  if (impl_->wake_fd >= 0) ::close(impl_->wake_fd);
  if (impl_->epoll_fd >= 0) ::close(impl_->epoll_fd);
}

void EventLoopServer::listen(const ListenAddress& address) {
  LAMA_ASSERT(impl_->listen_fd < 0);
  int fd = -1;
  if (address.is_unix) {
    fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      throw MappingError(std::string("socket: ") + std::strerror(errno));
    }
    sockaddr_un sun{};
    sun.sun_family = AF_UNIX;
    std::strncpy(sun.sun_path, address.path.c_str(),
                 sizeof(sun.sun_path) - 1);
    ::unlink(address.path.c_str());  // a stale socket from a previous run
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sun), sizeof(sun)) < 0 ||
        ::listen(fd, 128) < 0) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      throw MappingError("listen on " + address.to_string() + ": " + err);
    }
    impl_->unix_path = address.path;
    bound_ = address;
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      throw MappingError(std::string("socket: ") + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (reuse_port_) {
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
    }
    sockaddr_in sin{};
    sin.sin_family = AF_INET;
    sin.sin_port = htons(address.port);
    if (address.host == "*" || address.host == "0.0.0.0") {
      sin.sin_addr.s_addr = htonl(INADDR_ANY);
    } else if (address.host == "localhost") {
      sin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    } else if (::inet_pton(AF_INET, address.host.c_str(), &sin.sin_addr) !=
               1) {
      ::close(fd);
      throw MappingError("unresolvable listen host: " + address.host);
    }
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)) < 0 ||
        ::listen(fd, 128) < 0) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      throw MappingError("listen on " + address.to_string() + ": " + err);
    }
    sockaddr_in got{};
    socklen_t len = sizeof(got);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&got), &len);
    bound_ = address;
    bound_.port = ntohs(got.sin_port);
  }
  impl_->listen_fd = fd;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  ::epoll_ctl(impl_->epoll_fd, EPOLL_CTL_ADD, fd, &ev);
}

std::size_t EventLoopServer::run(const std::function<bool()>& stop) {
  LAMA_ASSERT(impl_->listen_fd >= 0);
  if (!affinity_cpus_.empty()) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : affinity_cpus_) {
      if (cpu >= 0 && cpu < CPU_SETSIZE) CPU_SET(cpu, &set);
    }
    // Best effort: an empty or foreign cpuset must not kill the server.
    if (CPU_COUNT(&set) > 0) {
      ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
    }
  }
  // The loop's transport stages (read, frame, dispatch, write, accept) time
  // into the service's stage histograms wherever the loop runs them: inside
  // a readable event, on EPOLLOUT, from a WATCH tick, or in the drain.
  obs::TraceHandle sink;
  sink.stats = &service_.stage_stats();
  const obs::ScopedTrace scoped_sink(sink);
  epoll_event events[64];
  while (!stop_requested_.load(std::memory_order_acquire) &&
         !(stop && stop())) {
    const int n = ::epoll_wait(impl_->epoll_fd, events, 64,
                               config_.poll_interval_ms);
    if (n < 0) {
      if (errno == EINTR) continue;  // a drain signal lands here
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == impl_->listen_fd) {
        accept_ready();
        continue;
      }
      if (fd == impl_->wake_fd) {
        std::uint64_t drained = 0;
        while (::read(impl_->wake_fd, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      auto it = impl_->conns.find(fd);
      if (it == impl_->conns.end()) continue;
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        handle_readable(it->second);
        it = impl_->conns.find(fd);  // handle_readable may close it
        if (it == impl_->conns.end()) continue;
      }
      if (events[i].events & EPOLLOUT) flush_writes(it->second);
    }
    watch_tick();
  }
  drain_phase();
  return dispatched_.load(std::memory_order_relaxed);
}

void EventLoopServer::stop() {
  stop_requested_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n =
      ::write(impl_->wake_fd, &one, sizeof(one));
}

void EventLoopServer::accept_ready() {
  for (;;) {
    const int fd = ::accept4(impl_->listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN or a transient accept error; the loop re-polls
    }
    if (!limiter_.try_acquire()) {
      inc(counters_.rejected);
      ::close(fd);
      continue;
    }
    obs::TraceScope trace(&service_.stage_stats(), service_.tracer(),
                          /*transport=*/true);
    trace.set_outcome(obs::Outcome::kOk);
    obs::SpanScope span(obs::Stage::kAccept, impl_->next_id);
    if (!bound_.is_unix) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    Connection conn;
    conn.fd = fd;
    conn.id = impl_->next_id++;
    conn.events = EPOLLIN;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(impl_->epoll_fd, EPOLL_CTL_ADD, fd, &ev);
    impl_->conns.emplace(fd, std::move(conn));
    inc(counters_.accepted);
  }
}

void EventLoopServer::handle_readable(Connection& conn) {
  obs::TraceScope trace(&service_.stage_stats(), service_.tracer(),
                        /*transport=*/true);
  trace.set_outcome(obs::Outcome::kOk);
  bool peer_eof = false;
  bool peer_err = false;
  {
    obs::SpanScope span(obs::Stage::kNetRead, conn.id);
    char buf[65536];
    for (;;) {
      const ssize_t r = ::read(conn.fd, buf, sizeof(buf));
      if (r > 0) {
        conn.in.append(buf, static_cast<std::size_t>(r));
        inc(counters_.bytes_in, static_cast<std::uint64_t>(r));
        // Bound one drain; level-triggered epoll re-fires for the rest.
        if (conn.in.size() >= (4u << 20)) break;
        continue;
      }
      if (r == 0) {
        peer_eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      peer_err = true;
      break;
    }
  }
  process_input(conn);
  if (peer_err) {
    close_connection(conn, /*midstream=*/!conn.in.empty());
    return;
  }
  if (peer_eof) {
    if (!conn.in.empty()) {
      // The peer vanished mid-request: the torn tail is dropped silently,
      // like the journal's.
      inc(counters_.midstream_disconnects);
      conn.in.clear();
    }
    conn.close_after_flush = true;
  }
  flush_writes(conn);  // may close `conn`; it must not be touched after
}

void EventLoopServer::process_input(Connection& conn) {
  if (conn.in.empty()) return;
  if (conn.mode == Connection::Mode::kUnknown) {
    conn.mode = static_cast<unsigned char>(conn.in[0]) == kWireMagic
                    ? Connection::Mode::kBinary
                    : Connection::Mode::kText;
  }
  std::size_t pos = 0;
  bool fatal = false;  // framing is unrecoverable: answer ERR, then close
  while (pos < conn.in.size() && !conn.close_after_flush) {
    const std::string_view view = std::string_view(conn.in).substr(pos);
    if (conn.mode == Connection::Mode::kBinary) {
      WireFrame frame;
      std::size_t consumed = 0;
      std::string error;
      const FrameStatus status = decode_frame(view, frame, consumed, error);
      if (status == FrameStatus::kNeedMore) break;
      if (status == FrameStatus::kBad) {
        inc(counters_.frame_errors);
        conn.out += encode_frame(WireVerb::kErr, "ERR " + error + "\n");
        fatal = true;
        break;
      }
      obs::SpanScope framed(obs::Stage::kFrame, conn.id);
      pos += consumed;
      const auto verb_raw = static_cast<std::uint8_t>(frame.verb);
      const WireCommand cmd = split_wire_payload(frame.payload);
      if (!wire_request_verb(verb_raw)) {
        inc(counters_.frame_errors);
        inc(counters_.binary_requests);
        append_response(conn,
                        "ERR unknown wire verb " + std::to_string(verb_raw) +
                            "\n",
                        /*binary=*/true);
        continue;
      }
      if (first_token(cmd.line) != wire_verb_keyword(frame.verb)) {
        inc(counters_.frame_errors);
        inc(counters_.binary_requests);
        append_response(conn, "ERR wire verb does not match command keyword\n",
                        /*binary=*/true);
        continue;
      }
      dispatch(conn, cmd.line, cmd.continuation, /*binary=*/true);
    } else {
      const std::size_t nl = view.find('\n');
      if (nl == std::string_view::npos) {
        if (view.size() > config_.max_request_bytes) {
          inc(counters_.frame_errors);
          conn.out += "ERR overlong request\n";
          fatal = true;
        }
        break;
      }
      std::string_view line = view.substr(0, nl);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      const std::size_t needed = continuation_lines(line);
      std::size_t end = nl + 1;
      std::size_t have = 0;
      while (have < needed) {
        const std::size_t p = view.find('\n', end);
        if (p == std::string_view::npos) break;
        end = p + 1;
        ++have;
      }
      if (have < needed) {
        // The continuation block is still in flight — wait, bounded.
        if (view.size() > config_.max_request_bytes) {
          inc(counters_.frame_errors);
          conn.out += "ERR overlong request\n";
          fatal = true;
        }
        break;
      }
      obs::SpanScope framed(obs::Stage::kFrame, conn.id);
      const std::string_view continuation = view.substr(nl + 1, end - nl - 1);
      pos += end;
      const std::size_t content = line.find_first_not_of(" \t");
      if (content == std::string_view::npos || line[content] == '#') {
        continue;  // blank and comment lines answer nothing, as on stdin
      }
      dispatch(conn, line, continuation, /*binary=*/false);
    }
  }
  if (fatal) {
    conn.in.clear();
    conn.close_after_flush = true;
    return;
  }
  if (pos > 0) conn.in.erase(0, pos);
}

void EventLoopServer::dispatch(Connection& conn, std::string_view line,
                               std::string_view continuation, bool binary) {
  inc(binary ? counters_.binary_requests : counters_.text_requests);
  dispatched_.fetch_add(1, std::memory_order_relaxed);
  if (conn.out.size() - conn.out_off > config_.write_buffer_limit) {
    // The peer is not reading its responses — shed instead of buffering
    // unboundedly, with the same reply admission control uses.
    char shed[64];
    std::snprintf(shed, sizeof(shed), "ERR busy retry-after=%u\n",
                  service_.config().retry_after_ms);
    inc(counters_.shed_backpressure);
    append_response(conn, shed, binary);
    return;
  }
  // WATCH never reaches the protocol session: the subscription is transport
  // state (a kept-alive connection the loop pushes into), so the event loop
  // owns the verb on both framings.
  if (first_token(line) == "WATCH") {
    obs::SpanScope span(obs::Stage::kDispatch, conn.id);
    const std::string response = handle_watch(conn, line);
    append_response(conn, response, binary);
    return;
  }
  obs::SpanScope span(obs::Stage::kDispatch, conn.id);
  // Suspend the connection-level readable trace so the protocol layer
  // begins a per-request trace of its own (parented here): a request that
  // fails must dump as a failure, not vanish inside the always-ok
  // transport trace that covers the whole readable event.
  const std::uint64_t conn_trace = obs::current_trace_id();
  const obs::ScopedTrace suspend{obs::TraceHandle{}};
  const obs::ScopedParent parent(conn_trace);
  ViewStream more(continuation);
  const std::string response = session_.execute(std::string(line), more);
  if (first_token(line) == "QUIT") conn.close_after_flush = true;
  append_response(conn, response, binary);
}

std::string EventLoopServer::handle_watch(Connection& conn,
                                          std::string_view line) {
  std::uint64_t interval_ms = 1000;
  auto mode = Connection::WatchMode::kStats;
  const char* mode_name = "stats";
  bool stop_watch = false;
  std::size_t pos = line.find_first_of(" \t", line.find("WATCH"));
  while (pos != std::string_view::npos && pos < line.size()) {
    const std::size_t b = line.find_first_not_of(" \t", pos);
    if (b == std::string_view::npos) break;
    const std::size_t e = line.find_first_of(" \t", b);
    const std::string_view tok =
        line.substr(b, e == std::string_view::npos ? e : e - b);
    std::size_t parsed = 0;
    if (tok == "stats") {
      mode = Connection::WatchMode::kStats;
      mode_name = "stats";
    } else if (tok == "metrics") {
      mode = Connection::WatchMode::kMetrics;
      mode_name = "metrics";
    } else if (tok == "events") {
      mode = Connection::WatchMode::kEvents;
      mode_name = "events";
    } else if (tok == "stop") {
      stop_watch = true;
    } else if (parse_count(tok, kMaxTimeoutMs, parsed) && parsed > 0) {
      interval_ms = parsed;
    } else {
      return "ERR WATCH needs '[interval_ms] [stats|metrics|events]' or "
             "'WATCH stop'\n";
    }
    pos = e;
  }
  if (stop_watch) {
    if (!conn.watching) return "ERR not watching\n";
    conn.watching = false;
    return "OK watch stopped\n";
  }
  conn.watching = true;
  conn.watch_mode = mode;
  conn.watch_interval_ns = interval_ms * 1'000'000ULL;
  // The first snapshot goes out on the next tick; events only fire for
  // failures/breaches that happen after this point.
  conn.watch_next_ns = now_ns();
  const obs::Tracer* tracer = service_.tracer();
  conn.watch_dumps_seen = tracer != nullptr ? tracer->recorder().dumps() : 0;
  conn.watch_breaches_seen = service_.slo().breaches();
  return "OK watch interval_ms=" + std::to_string(interval_ms) +
         " mode=" + mode_name + "\n";
}

void EventLoopServer::watch_tick() {
  if (impl_->conns.empty()) return;
  const std::uint64_t now = now_ns();
  const obs::Tracer* tracer = service_.tracer();
  const std::uint64_t dumps =
      tracer != nullptr ? tracer->recorder().dumps() : 0;
  const std::uint64_t breaches = service_.slo().breaches();
  // flush_writes may close (and erase) a connection — iterate a copied fd
  // list, re-finding each one, exactly like drain_phase.
  std::vector<int> fds;
  for (auto& [fd, conn] : impl_->conns) {
    if (conn.watching) fds.push_back(fd);
  }
  for (const int fd : fds) {
    auto it = impl_->conns.find(fd);
    if (it == impl_->conns.end()) continue;
    Connection& conn = it->second;
    std::string push;
    if (dumps > conn.watch_dumps_seen) {
      push += "EVENT failure count=" +
              std::to_string(dumps - conn.watch_dumps_seen) +
              " total=" + std::to_string(dumps) + "\n";
      conn.watch_dumps_seen = dumps;
    }
    if (breaches > conn.watch_breaches_seen) {
      push += "EVENT slo_breach count=" +
              std::to_string(breaches - conn.watch_breaches_seen) +
              " total=" + std::to_string(breaches) + "\n";
      conn.watch_breaches_seen = breaches;
    }
    if (now >= conn.watch_next_ns &&
        conn.watch_mode != Connection::WatchMode::kEvents) {
      if (conn.watch_mode == Connection::WatchMode::kStats) {
        push += "STATS " + service_.stats_line() + "\n";
      } else {
        // Prometheus text already ends with the "# EOF" framing line.
        push += service_.metrics_snapshot().to_prometheus();
      }
      conn.watch_next_ns = now + conn.watch_interval_ns;
    }
    if (push.empty()) continue;
    if (conn.out.size() - conn.out_off > config_.write_buffer_limit) {
      // The subscriber is not keeping up: drop this push instead of
      // buffering without bound — the next tick carries fresher data anyway.
      inc(counters_.shed_backpressure);
      continue;
    }
    append_response(conn, push, conn.mode == Connection::Mode::kBinary);
    flush_writes(conn);  // may close `conn`; not touched after
  }
}

void EventLoopServer::append_response(Connection& conn,
                                      std::string_view response,
                                      bool binary) {
  inc(counters_.responses);
  if (!binary) {
    conn.out.append(response);  // empty responses append nothing, by design
    return;
  }
  if (response.size() > kMaxFramePayload) {
    inc(counters_.frame_errors);
    conn.out += encode_frame(WireVerb::kErr, "ERR response exceeds frame bound\n");
    return;
  }
  conn.out += encode_frame(classify_response(response), response);
}

void EventLoopServer::flush_writes(Connection& conn) {
  if (conn.out_off < conn.out.size()) {
    obs::SpanScope span(obs::Stage::kNetWrite, conn.id);
    while (conn.out_off < conn.out.size()) {
      // MSG_NOSIGNAL: a peer that vanished with responses still queued must
      // surface as EPIPE here, not kill the process with SIGPIPE.
      const ssize_t w = ::send(conn.fd, conn.out.data() + conn.out_off,
                               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (w > 0) {
        conn.out_off += static_cast<std::size_t>(w);
        inc(counters_.bytes_out, static_cast<std::uint64_t>(w));
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_connection(conn, /*midstream=*/false);
      return;
    }
  }
  if (conn.out_off >= conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
    if (conn.close_after_flush) {
      close_connection(conn, /*midstream=*/false);
      return;
    }
  } else if (conn.out_off > (1u << 16)) {
    conn.out.erase(0, conn.out_off);
    conn.out_off = 0;
  }
  update_interest(conn);
}

void EventLoopServer::update_interest(Connection& conn) {
  const std::uint32_t wanted =
      EPOLLIN | (conn.out_off < conn.out.size() ? EPOLLOUT : 0u);
  if (wanted == conn.events) return;
  epoll_event ev{};
  ev.events = wanted;
  ev.data.fd = conn.fd;
  ::epoll_ctl(impl_->epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.events = wanted;
}

void EventLoopServer::close_connection(Connection& conn, bool midstream) {
  ::epoll_ctl(impl_->epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  if (midstream) inc(counters_.midstream_disconnects);
  inc(counters_.closed);
  impl_->conns.erase(conn.fd);  // invalidates `conn`
  limiter_.release();
}

void EventLoopServer::drain_phase() {
  // 1. Stop the acceptor: no new connections once the drain begins.
  if (impl_->listen_fd >= 0) {
    ::epoll_ctl(impl_->epoll_fd, EPOLL_CTL_DEL, impl_->listen_fd, nullptr);
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
    if (!impl_->unix_path.empty()) {
      ::unlink(impl_->unix_path.c_str());
      impl_->unix_path.clear();
    }
  }
  // 2. Dispatch what is already buffered — a draining service sheds work
  //    verbs with the busy reply, reads still answer.
  std::vector<int> fds;
  fds.reserve(impl_->conns.size());
  for (auto& [fd, conn] : impl_->conns) fds.push_back(fd);
  for (const int fd : fds) {
    auto it = impl_->conns.find(fd);
    if (it != impl_->conns.end()) process_input(it->second);
  }
  // 3. Flush write buffers within the grace window, then close everything.
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(config_.drain_grace_ms) * 1'000'000;
  for (;;) {
    bool pending = false;
    fds.clear();
    for (auto& [fd, conn] : impl_->conns) fds.push_back(fd);
    for (const int fd : fds) {
      auto it = impl_->conns.find(fd);
      if (it == impl_->conns.end()) continue;
      flush_writes(it->second);
      it = impl_->conns.find(fd);
      if (it != impl_->conns.end() &&
          it->second.out_off < it->second.out.size()) {
        pending = true;
      }
    }
    if (!pending || now_ns() >= deadline) break;
    epoll_event events[16];
    ::epoll_wait(impl_->epoll_fd, events, 16, 10);
  }
  fds.clear();
  for (auto& [fd, conn] : impl_->conns) fds.push_back(fd);
  for (const int fd : fds) {
    auto it = impl_->conns.find(fd);
    if (it != impl_->conns.end()) close_connection(it->second, false);
  }
}

}  // namespace lama::svc
