// The client side of the wire protocol with resilience built in: a
// QueryClient sends protocol lines through a pluggable transport and retries
// load-shed responses ("ERR busy retry-after=<ms>") with capped exponential
// backoff and deterministic jitter. The server's retry-after hint is the
// floor of every delay; jitter (SplitMix64, seeded from RetryPolicy) spreads
// synchronized clients apart without sacrificing reproducibility. Sleeping
// is injectable so tests assert the exact backoff schedule without waiting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.hpp"
#include "support/rng.hpp"
#include "svc/wire.hpp"

namespace lama::svc {

struct RetryPolicy {
  // Total tries per request, including the first (1 = never retry).
  std::size_t max_attempts = 5;
  // First backoff; doubles every retry.
  std::uint32_t base_ms = 10;
  // Backoff ceiling (pre-jitter).
  std::uint32_t max_ms = 1000;
  // Seed of the jitter stream — fix it and the schedule is reproducible.
  std::uint64_t seed = 0x6c616d61ULL;
};

struct QueryResult {
  std::string response;              // final response line (OK/ERR/empty)
  std::size_t attempts = 0;          // sends of the retried line
  std::uint64_t total_backoff_ms = 0;
  bool gave_up_busy = false;         // still busy after max_attempts

  [[nodiscard]] bool ok() const;
};

// One job of a MAPBATCH request. Options are the MAP key=value pairs
// ("bind=core", "npernode=2", ...), one per element — format_mapbatch joins
// them with the job's '/' separator.
struct BatchJob {
  std::string alloc_id;
  std::size_t np = 1;
  std::string spec = "lama";
  std::vector<std::string> options;
};

struct BatchResult {
  // Per-job response lines ("OK hit=..." / "ERR ..."), in submit order,
  // with the "JOB <i>" framing stripped. Empty when the whole batch failed
  // before producing job responses (see `trailer`).
  std::vector<std::string> responses;
  // The batch trailer ("OK mapbatch jobs=... ok=... err=...") or, when the
  // MAPBATCH line itself was rejected, the server's ERR line.
  std::string trailer;
  std::size_t attempts = 0;          // MAPBATCH sends, including retries
  std::uint64_t total_backoff_ms = 0;
  bool gave_up_busy = false;         // some job still busy after max_attempts

  [[nodiscard]] bool ok() const;
};

class QueryClient {
 public:
  // Sends one request line (no trailing newline) and returns the response
  // line. The stream_transport below adapts an ostream/istream pair.
  using Transport = std::function<std::string(const std::string& line)>;
  // Sends one request line and returns every response line it produced — a
  // MAPBATCH answers its JOB lines plus the trailer. MAPBATCH responses are
  // self-delimiting (read until the first line that does not start with
  // "JOB "), which is exactly what stream_multi_transport does.
  using MultiTransport =
      std::function<std::vector<std::string>(const std::string& line)>;
  using Sleeper = std::function<void(std::uint32_t ms)>;

  explicit QueryClient(Transport transport, RetryPolicy policy = {});

  // Replaces the real sleep (std::this_thread::sleep_for) — tests install a
  // recorder here.
  void set_sleeper(Sleeper sleeper);

  // Sends one line; busy responses are retried per the policy, anything
  // else (OK or a real error) returns immediately.
  QueryResult send(const std::string& line);

  // Full query: NODE lines defining `alloc`, then the MAP line (the part
  // that can be shed, so the part that retries).
  QueryResult query(const Allocation& alloc, const std::string& alloc_id,
                    std::size_t np, const std::string& spec,
                    const std::string& options = "");

  // Sends the jobs as one MAPBATCH over `transport` and retries only the
  // busy subset: jobs the server shed are re-sent as a smaller MAPBATCH
  // (after the usual backoff, floored at the largest retry-after hint)
  // while settled jobs keep their responses. Requires a MultiTransport.
  BatchResult map_batch(const std::vector<BatchJob>& jobs,
                        const MultiTransport& transport);

  // The delay before retry number `attempt` (1-based): jittered exponential
  // backoff, never below the server's hint. Exposed so tests can pin the
  // schedule.
  std::uint32_t backoff_ms(std::size_t attempt, std::uint32_t server_hint_ms);

 private:
  Transport transport_;
  RetryPolicy policy_;
  Sleeper sleeper_;
  SplitMix64 jitter_;
};

// Parses "ERR busy retry-after=<ms>"; returns true and fills `retry_after_ms`
// only for well-formed busy responses.
bool parse_busy_response(const std::string& response,
                         std::uint32_t& retry_after_ms);

// A transport over a stream pair: writes the line + '\n', flushes, reads one
// response line. Suitable for pipes to a serve() loop.
QueryClient::Transport stream_transport(std::ostream& out, std::istream& in);

// The MAPBATCH wire line for a set of jobs:
//   "MAPBATCH <n> <id>/<np>/<spec>[/opt]... ..."
std::string format_mapbatch(const std::vector<BatchJob>& jobs);

// A multi-line transport over a stream pair: writes the line, then reads
// JOB lines until the first non-JOB line (the trailer or an ERR), which is
// returned last.
QueryClient::MultiTransport stream_multi_transport(std::ostream& out,
                                                   std::istream& in);

// ---- Socket client ---------------------------------------------------------

// Framing over a raw byte stream with the failure modes real sockets have:
// EINTR, short reads, short writes. The I/O functions follow POSIX read/
// write semantics (bytes moved, 0 = EOF on read, -1 with errno on error) and
// are injectable so the reassembly logic is unit-testable without a socket
// (tests/svc/net_client_test.cpp drip-feeds bytes and interleaves EINTR).
class NetChannel {
 public:
  using ReadFn = std::function<long(char* buf, std::size_t len)>;
  using WriteFn = std::function<long(const char* buf, std::size_t len)>;

  NetChannel(ReadFn read_fn, WriteFn write_fn);

  // A channel over a connected file descriptor (not owned).
  static NetChannel over_fd(int fd);

  // Writes the whole buffer, absorbing EINTR and short writes. False on a
  // hard error.
  bool write_all(std::string_view data);

  // Reads one '\n'-terminated line (terminator and any '\r' stripped),
  // reassembling across short reads. False on EOF or error before the
  // newline arrives.
  bool read_line(std::string& line);

  // One binary frame out / in (svc/wire.hpp). read_frame returns false on
  // EOF, I/O error, or framing damage — `error` says which.
  bool write_frame(WireVerb verb, std::string_view payload);
  bool read_frame(WireVerb& verb, std::string& payload, std::string& error);

  // Bytes buffered but not yet consumed (tests assert reassembly state).
  [[nodiscard]] std::size_t buffered() const { return buf_.size(); }

 private:
  bool fill_some(std::string& error);  // one read into the buffer

  ReadFn read_fn_;
  WriteFn write_fn_;
  std::string buf_;  // inbound bytes not yet returned
};

// A resilient client connection to `lamactl serve --listen`: text or binary
// framing, reconnect with capped exponential backoff, and one retry of the
// in-flight request on a connection that died mid-exchange. Single-threaded.
struct ConnectConfig {
  std::string address;        // "tcp:host:port", ":port", "unix:/path"
  bool binary = false;        // frame requests with the binary wire protocol
  std::size_t max_attempts = 5;       // tries per request, including first
  std::uint32_t backoff_base_ms = 10;  // doubles per retry
  std::uint32_t backoff_max_ms = 1000;
};

class SocketClient {
 public:
  explicit SocketClient(ConnectConfig config);
  ~SocketClient();

  SocketClient(const SocketClient&) = delete;
  SocketClient& operator=(const SocketClient&) = delete;

  // Sends one command (continuation lines, if any, joined after '\n') and
  // returns its response lines. Response framing is command-aware: one line
  // for most verbs, JOB lines + trailer for MAPBATCH, n lines for BATCH n,
  // through "# EOF" for METRICS. A request that still fails after
  // max_attempts returns one "ERR connect: ..." line.
  std::vector<std::string> request(const std::string& command);

  // Streaming WATCH: subscribes with `command` (e.g. "WATCH 500 metrics")
  // and invokes `on_unit` for every pushed unit — one text line, or one
  // whole binary frame payload (which may carry several lines). Return
  // false from on_unit to unsubscribe and close. Returns true when on_unit
  // ended the stream; false with `error` set when the subscription was
  // refused or the connection died. Never reconnects mid-stream (a resumed
  // subscription would silently skip events).
  bool watch(const std::string& command,
             const std::function<bool(const std::string&)>& on_unit,
             std::string& error);

  // Adapters for QueryClient.
  QueryClient::Transport transport();
  QueryClient::MultiTransport multi_transport();

  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  [[nodiscard]] std::size_t reconnects() const { return reconnects_; }
  void close();

 private:
  bool ensure_connected(std::string& error);
  bool exchange(const std::string& command, std::vector<std::string>& lines,
                std::string& error);

  ConnectConfig config_;
  int fd_ = -1;
  std::size_t reconnects_ = 0;  // successful connects after the first
  bool ever_connected_ = false;
};

}  // namespace lama::svc
