// perfbench: the socket-level benchmark of the mapping service (README.md).
//
//   perfbench --workload <warm_small|large_np|churn> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>] [--tamper <k>]
//
// The service runs in-process as `lamactl serve --listen` starts it by
// default (tracing and durability off) with two workers, behind a one-shard
// server on 127.0.0.1:0. One client thread drives it over one keep-alive
// binary connection, one request in flight, from the CPU the server's loop
// thread is pinned to (SharedCpu), and checks every reply (oracle.hpp).
//
// --trace 0 measures the end-to-end metrics. The run is cut into segments;
// each starts with a cold start (a fresh service and server, every
// allocation defined, every (allocation, layout) pair warmed: one setup_s
// sample) followed by timed rounds, and each figure is the median of the
// segments' figures. --trace 1 replays the same stream, times
// each layer's public entry point on an in-process twin, and writes the
// spans to <out-dir>/trace-<workload>-<seed>.json.
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. --tamper k flips a byte of the k-th MAP
// reply before it is checked (the benchmark's own test uses it).
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "client.hpp"
#include "cluster/alloc_serialize.hpp"
#include "gen.hpp"
#include "lama/binding.hpp"
#include "lama/map_plan.hpp"
#include "lama/maximal_tree.hpp"
#include "lama/remap.hpp"
#include "ledger.hpp"
#include "opt/optimizer.hpp"
#include "oracle.hpp"
#include "sentinel.hpp"
#include "sim/distance_model.hpp"
#include "sim/traffic.hpp"
#include "stats.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "svc/shard_server.hpp"
#include "svc/wire.hpp"
#include "tmatch/comm_matrix.hpp"

namespace {

using namespace perfbench;
namespace svc = lama::svc;

// Segments of an untraced run. Each has kColdStarts cold starts: the first
// opens the segment and serves its share of the timed window, the others
// follow the window. Every figure but setup_s is computed per segment and
// reported as the median over the segments; setup_s is the median of all
// cold starts.
constexpr std::size_t kSegments = 12;
constexpr std::size_t kColdStarts = 3;
// Spans kept in memory by one traced run.
constexpr std::size_t kSpanCap = 100'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string out_dir = ".bench_out";
  std::size_t tamper = 0;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] [--tamper <k>]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = std::stoi(value);
      } else if (key == "--out-dir") {
        a.out_dir = value;
      } else if (key == "--tamper") {
        a.tamper = std::stoull(value);
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// CPU time of the calling thread: the client's share of cpu_seconds().
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// A /proc/self/status size field ("VmHWM", "VmRSS") of this process, in MiB.
double status_mib(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) return std::stod(line.substr(field.size() + 1)) / 1024.0;
  }
  throw std::runtime_error("no " + field + " in /proc/self/status");
}

// Fills w.expected (compute_expected) in a forked child that sends the
// replies back over a pipe, so the oracle service's memory never enters
// this process's peak resident set. Call it before any thread starts.
void compute_expected_apart(Workload& w) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int rc = 0;
    try {
      compute_expected(w);
      std::FILE* out = fdopen(fds[1], "wb");
      if (out == nullptr) _exit(1);
      for (const std::string& reply : w.expected) {
        const std::uint64_t size = reply.size();
        std::fwrite(&size, sizeof(size), 1, out);
        std::fwrite(reply.data(), 1, reply.size(), out);
      }
      if (std::fclose(out) != 0) rc = 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      rc = 1;
    }
    _exit(rc);
  }
  close(fds[1]);
  std::FILE* in = fdopen(fds[0], "rb");
  bool complete = in != nullptr;
  if (in == nullptr) close(fds[0]);
  for (std::size_t i = 0; complete && i < w.expected.size(); ++i) {
    std::string& reply = w.expected[i];
    std::uint64_t size = 0;
    if (std::fread(&size, sizeof(size), 1, in) != 1) {
      complete = false;
      break;
    }
    reply.resize(size);
    if (std::fread(reply.data(), 1, size, in) != size) {
      complete = false;
      break;
    }
  }
  if (in != nullptr) std::fclose(in);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  if (!complete || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("the oracle did not answer every MAP and MAPBATCH");
  }
}

// The CPU the client thread shares with the server's event-loop thread.
// A MAP is answered on the loop thread, so each round trip hands the CPU
// from client to loop and back: two context switches on one vCPU instead of
// two wake-ups of another vCPU, whose cost on a shared KVM host swings with
// the neighbours' load. The workers stay free to run on any CPU.
class SharedCpu {
 public:
  SharedCpu() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) {
      throw std::runtime_error("sched_getaffinity failed");
    }
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpu_ = c;  // the last one the process may use
    }
    if (cpu_ < 0) throw std::runtime_error("the process may use no CPU");
  }
  [[nodiscard]] int cpu() const { return cpu_; }

  // Pins the calling thread to the shared CPU.
  void join() const {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu_, &one);
    set(one);
  }
  // Lets the calling thread, and the threads it starts, run anywhere again.
  void leave() const { set(all_); }

 private:
  static void set(const cpu_set_t& s) {
    if (pthread_setaffinity_np(pthread_self(), sizeof(s), &s) != 0) {
      throw std::runtime_error("pthread_setaffinity_np failed");
    }
  }

  cpu_set_t all_;
  int cpu_ = -1;
};

// The service under test behind its server, as `lamactl serve --listen`
// starts them by default except for the worker count and the loop thread's
// CPU (SharedCpu).
struct Server {
  svc::MappingService service{svc::ServiceConfig{.workers = 2}};
  svc::ShardedServer server;

  explicit Server(int loop_cpu)
      : server(service, svc::ShardServerConfig{.shards = 1, .affinity = {{loop_cpu}}}) {
    server.listen("tcp:127.0.0.1:0");
    server.start();
  }
  ~Server() { server.stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server.bound_address().port; }
};

// One named value as the JSON and the report print it.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

// The shared client side of both modes: sends ops, checks every reply,
// counts attempts and failures.
class Driver {
 public:
  Driver(const Workload& w, const SharedCpu& cpu, std::size_t tamper)
      : w_(w), cpu_(cpu), checker_(w), tamper_(tamper) {}

  // One closed-loop request; returns its round trip in ns.
  std::uint64_t send(Connection& conn, const Op& op) {
    std::string error;
    const std::uint64_t start = now_ns();
    const bool io_ok = conn.roundtrip(op.verb, op.payload, reply_, error);
    const std::uint64_t took = now_ns() - start;
    ++attempted_;
    if (!io_ok) throw std::runtime_error("connection failed: " + error);
    if (op.verb == WireVerb::kMap && tamper_ != 0 && ++maps_seen_ == tamper_) {
      reply_[reply_.size() / 2] ^= 0x01;
    }
    std::string why;
    if (!checker_.check(op, reply_, why)) {
      if (++failed_ <= 5) std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    }
    return took;
  }

  [[nodiscard]] bool last_was_cold() const {
    return reply_.rfind("OK hit=0 ", 0) == 0;
  }
  ReplyChecker& checker() { return checker_; }
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }

  // A cold start: fresh service and server (replacing any earlier one),
  // every allocation defined, every pair warmed. Returns the set-up time in
  // seconds; cold MAP round trips go to `cold_us`.
  double cold_start(std::unique_ptr<Server>& server,
                    std::unique_ptr<Connection>& conn,
                    std::vector<double>& cold_us) {
    conn.reset();
    server.reset();
    checker_.forget_baselines();
    cpu_.leave();  // the service's workers may run anywhere
    const std::uint64_t start = now_ns();
    server = std::make_unique<Server>(cpu_.cpu());
    cpu_.join();
    conn = std::make_unique<Connection>(server->port());
    for (const Op& op : w_.define) send(*conn, op);
    for (const Op& op : w_.warm) {
      const std::uint64_t took = send(*conn, op);
      if (last_was_cold()) cold_us.push_back(static_cast<double>(took) / 1e3);
    }
    return static_cast<double>(now_ns() - start) / 1e9;
  }

  // The untimed preparation after the last cold start.
  void prepare(Connection& conn) {
    for (const Op& op : w_.prep) send(conn, op);
  }

 private:
  const Workload& w_;
  const SharedCpu& cpu_;
  ReplyChecker checker_;
  std::size_t tamper_;
  std::size_t maps_seen_ = 0;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::string reply_;
};

// Round-trip samples of the timed window, by request verb.
struct Window {
  std::vector<double> map_us;
  std::vector<double> cold_us;  // every MAP the service answered hit=0
  std::vector<double> failover_ms;
  std::vector<double> optimize_ms;
  // Throughputs per round (MAP) and per request (MAPBATCH): their medians
  // are the reported rates, so a burst of host preemption moves a few
  // samples rather than the whole figure.
  std::vector<double> map_rate;
  std::vector<double> batch_rate;
  std::size_t batch_jobs = 0;
  std::size_t requests = 0;
  std::uint64_t map_reply_bytes = 0;
  // CPU time of the service's threads over the window (untraced mode).
  double service_cpu_s = 0;

  // Sends one round. In traced mode `spans` receives one request span per
  // op and `span_ids` their ids; recording the span counts toward the
  // request's round trip, since it is the work tracing adds to a request.
  void run(Driver& d, Connection& conn, const std::vector<Op>& round,
           SpanLog* spans = nullptr, std::vector<std::uint64_t>* span_ids = nullptr) {
    std::uint64_t offline_start = 0;
    std::uint64_t round_map_ns = 0;
    std::size_t round_maps = 0;
    for (const Op& op : round) {
      const std::uint64_t start = now_ns();
      std::uint64_t took = d.send(conn, op);
      if (spans != nullptr) {
        const std::uint64_t record = now_ns();
        span_ids->push_back(spans->add(svc::wire_verb_keyword(op.verb), start, start + took, 0));
        took += now_ns() - record;
      }
      ++requests;
      switch (op.verb) {
        case WireVerb::kMap:
          map_us.push_back(static_cast<double>(took) / 1e3);
          round_map_ns += took;
          ++round_maps;
          map_reply_bytes += conn.last_reply_bytes();
          if (d.last_was_cold()) cold_us.push_back(static_cast<double>(took) / 1e3);
          break;
        case WireVerb::kMapBatch:
          batch_rate.push_back(static_cast<double>(op.jobs) * 1e9 / static_cast<double>(took));
          batch_jobs += op.jobs;
          break;
        case WireVerb::kOffline:
          offline_start = start;
          break;
        case WireVerb::kRemap:
          failover_ms.push_back(static_cast<double>(start + took - offline_start) / 1e6);
          break;
        case WireVerb::kOptimize:
          optimize_ms.push_back(static_cast<double>(took) / 1e6);
          break;
        default:
          break;
      }
    }
    if (round_maps > 0) {
      map_rate.push_back(static_cast<double>(round_maps) * 1e9 /
                         static_cast<double>(round_map_ns));
    }
  }
};

struct CacheCounts {
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
  std::uint64_t invalidations = 0;

  static CacheCounts of(const svc::Counters& c) {
    return {c.plan_hits.load(), c.plan_misses.load(), c.invalidations.load()};
  }
  CacheCounts& operator+=(const CacheCounts& o) {
    plan_hits += o.plan_hits, plan_misses += o.plan_misses,
        invalidations += o.invalidations;
    return *this;
  }
  CacheCounts operator-(const CacheCounts& o) const {
    return {plan_hits - o.plan_hits, plan_misses - o.plan_misses,
            invalidations - o.invalidations};
  }
};

// A percentile metric, or an error naming it when the samples cannot carry
// that percentile.
Metric pct(const std::string& name, std::vector<double> samples, double q,
           const std::string& unit) {
  const std::size_t n = samples.size();
  const std::optional<double> v = percentile(samples, q);
  if (!v) {
    throw std::runtime_error(name + " has " + std::to_string(n) +
                             " samples, too few for its percentile");
  }
  return {name, *v, unit, n};
}

double mean_gain(const std::vector<double>& gains, std::size_t& answered) {
  double sum = 0;
  answered = 0;
  for (const double g : gains) {
    if (g >= 0) sum += g, ++answered;
  }
  if (answered == 0) throw std::runtime_error("no OPTIMIZE case was answered");
  return sum / static_cast<double>(answered);
}

std::string sentinel_context(const std::vector<SentinelTimes>& probes, const HostCpu& from) {
  std::vector<double> alu, mem;
  for (const SentinelTimes& t : probes) alu.push_back(t.alu_us), mem.push_back(t.mem_us);
  auto span = [](std::vector<double> v) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "median=%.1f min=%.1f max=%.1f", median(v),
                  *std::min_element(v.begin(), v.end()),
                  *std::max_element(v.begin(), v.end()));
    return std::string(buf);
  };
  char steal[48];
  std::snprintf(steal, sizeof(steal), " host_steal_pct=%.2f",
                steal_percent(from, read_host_cpu()));
  return "sentinel_alu_us " + span(alu) + " sentinel_mem_us " + span(mem) +
         " probes=" + std::to_string(probes.size()) + steal;
}

void print_result(const Workload& w, const Driver& d,
                  const std::vector<Metric>& metrics, const std::string& context) {
  for (const Metric& m : metrics) {
    std::printf("metric %-28s %14.6g %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("context workload=%s seed=%llu %s\n", w.name.c_str(),
              static_cast<unsigned long long>(w.seed), context.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              d.failed() == 0 ? "true" : "false", d.attempted(), d.failed());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// One segment of an untraced run: a cold start, its share of the timed
// window, the further cold starts, and the share of CPU time the host stole
// meanwhile.
struct Segment {
  std::vector<double> setup_s;
  Window win;
  double steal_pct = 0;
};

// A figure of every segment and their median: a co-tenant's burst then
// moves a few segments, not the figure. `samples` counts the samples behind
// it. Every segment must carry the figure (a percentile needs enough
// samples); skipping the ones that do not would favour the faster ones.
template <typename Fn>
Metric over_segments(const std::string& name, const std::string& unit,
                     const std::vector<Segment>& segments, Fn&& figure) {
  std::vector<double> values;
  std::size_t samples = 0;
  for (const Segment& seg : segments) {
    std::size_t n = 0;
    const std::optional<double> v = figure(seg.win, n);
    if (!v) {
      throw std::runtime_error(name + ": a segment has " + std::to_string(n) +
                               " samples, too few for its figure; run longer");
    }
    values.push_back(*v);
    samples += n;
  }
  return {name, median(values), unit, samples};
}

// The q-quantile of one segment's samples, if they carry it.
auto quantile_of(std::vector<double> Window::*samples, double q) {
  return [samples, q](const Window& win, std::size_t& n) {
    std::vector<double> v = win.*samples;
    n = v.size();
    return percentile(v, q);
  };
}

// The median of one segment's rates (per round or per request); n is what
// they count.
auto rate_of(std::vector<double> Window::*rates, std::size_t (*count)(const Window&)) {
  return [rates, count](const Window& win, std::size_t& n) -> std::optional<double> {
    n = count(win);
    if ((win.*rates).empty()) return std::nullopt;
    return median(win.*rates);
  };
}

std::string per_segment(const char* key, const std::vector<double>& values) {
  std::string out = key;
  for (std::size_t i = 0; i < values.size(); ++i) {
    char one[32];
    std::snprintf(one, sizeof(one), "%s%.4g", i == 0 ? "=" : ",", values[i]);
    out += one;
  }
  return out;
}

int run_untraced(const Args& args, const Workload& w) {
  const SharedCpu cpu;
  Driver d(w, cpu, args.tamper);
  std::vector<Segment> segments(kSegments);
  std::vector<SentinelTimes> probes{run_sentinel()};
  // rss_mib is what the first service adds to the process's peak: VmHWM
  // when the first segment's window ends, over VmRSS before its cold start
  // (the workload, its expected replies, the sentinel). Each later service
  // runs in memory an earlier one left behind, and the process's peak after
  // that grows with the allocator's fragmentation across service lifetimes,
  // not with the service.
  const double rss_base = status_mib("VmRSS");
  double rss_peak = 0;
  const HostCpu host_start = read_host_cpu();
  CacheCounts cache;
  std::size_t pos = 0;
  double window_s = 0;
  for (Segment& seg : segments) {
    const HostCpu host_before = read_host_cpu();
    std::unique_ptr<Server> server;
    std::unique_ptr<Connection> conn;
    seg.setup_s.push_back(d.cold_start(server, conn, seg.win.cold_us));
    d.prepare(*conn);
    const CacheCounts before = CacheCounts::of(server->service.counters());
    const double cpu_before = cpu_seconds() - thread_cpu_seconds();
    const std::uint64_t start = now_ns();
    const auto budget = static_cast<std::uint64_t>(args.seconds / kSegments * 1e9);
    while (now_ns() - start < budget) {
      seg.win.run(d, *conn, w.rounds[pos++ % w.rounds.size()]);
    }
    window_s += static_cast<double>(now_ns() - start) / 1e9;
    if (rss_peak == 0) rss_peak = status_mib("VmHWM");
    seg.win.service_cpu_s = cpu_seconds() - thread_cpu_seconds() - cpu_before;
    cache += CacheCounts::of(server->service.counters()) - before;
    // The segment's other cold starts, each replacing the server before it.
    for (std::size_t k = 1; k < kColdStarts; ++k) {
      seg.setup_s.push_back(d.cold_start(server, conn, seg.win.cold_us));
    }
    conn.reset();
    server.reset();
    seg.steal_pct = steal_percent(host_before, read_host_cpu());
    probes.push_back(run_sentinel());
  }

  std::vector<double> setup_s;
  for (const Segment& seg : segments) {
    setup_s.insert(setup_s.end(), seg.setup_s.begin(), seg.setup_s.end());
  }
  std::size_t answered = 0;
  const double gain = mean_gain(d.checker().gains(), answered);
  const std::vector<Metric> metrics = {
      {"setup_s", median(setup_s), "s", setup_s.size()},
      over_segments("map_p50_us", "us", segments, quantile_of(&Window::map_us, 0.5)),
      over_segments("map_p90_us", "us", segments, quantile_of(&Window::map_us, 0.9)),
      over_segments("map_rps", "1/s", segments,
                    rate_of(&Window::map_rate, [](const Window& win) { return win.map_us.size(); })),
      over_segments("mapbatch_jobs_per_s", "1/s", segments,
                    rate_of(&Window::batch_rate, [](const Window& win) { return win.batch_jobs; })),
      over_segments("map_cold_p50_us", "us", segments, quantile_of(&Window::cold_us, 0.5)),
      over_segments("failover_p50_ms", "ms", segments, quantile_of(&Window::failover_ms, 0.5)),
      over_segments("optimize_p50_ms", "ms", segments, quantile_of(&Window::optimize_ms, 0.5)),
      {"opt_gain", gain, "ratio", answered},
      over_segments("cpu_us_per_op", "us", segments,
                    [](const Window& win, std::size_t& n) -> std::optional<double> {
                      n = win.requests;
                      if (n == 0) return std::nullopt;
                      return win.service_cpu_s * 1e6 / static_cast<double>(n);
                    }),
      {"rss_mib", rss_peak - rss_base, "MiB", 1},
  };
  std::vector<double> steal, setup_ms, map_us;
  for (const Segment& seg : segments) {
    steal.push_back(seg.steal_pct);
    setup_ms.push_back(median(seg.setup_s) * 1e3);
    std::vector<double> v = seg.win.map_us;
    map_us.push_back(percentile(v, 0.5).value_or(0));
  }
  char ctx[256];
  std::snprintf(ctx, sizeof(ctx),
                "window_s=%.3f rounds=%zu plan_hits=%llu plan_misses=%llu "
                "invalidations=%llu rss_base_mib=%.1f ",
                window_s, pos, static_cast<unsigned long long>(cache.plan_hits),
                static_cast<unsigned long long>(cache.plan_misses),
                static_cast<unsigned long long>(cache.invalidations), rss_base);
  print_result(w, d, metrics,
               ctx + per_segment("segment_steal_pct", steal) + " " +
                   per_segment("segment_setup_ms", setup_ms) + " " +
                   per_segment("segment_map_p50_us", map_us) + " " +
                   sentinel_context(probes, host_start));
  return d.failed() == 0 ? 0 : 1;
}

// ---- traced mode -----------------------------------------------------------

// Per-layer samples; each name is the metric the samples feed.
struct Layers {
  std::map<std::string, std::vector<double>> timed;  // p50 metrics
  std::map<std::string, std::pair<double, std::size_t>> counted;  // sum, n

  void time(const char* name, double v) { timed[name].push_back(v); }
  void count(const char* name, double v) {
    auto& c = counted[name];
    c.first += v, ++c.second;
  }
};

struct MapCall {
  std::string alloc;
  std::string layout;
  lama::MapOptions opts;
  std::optional<lama::BindingPolicy> bind;
};

// "<id> <np> lama:<layout> [bind=core]" fields, space- or '/'-separated.
MapCall parse_map_fields(const std::string& text, char sep) {
  std::vector<std::string> f;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t next = text.find(sep, pos);
    f.push_back(text.substr(pos, next == std::string::npos ? next : next - pos));
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  MapCall c;
  c.alloc = f.at(0);
  c.opts.np = std::stoull(f.at(1));
  c.layout = f.at(2).substr(f.at(2).find(':') + 1);
  if (f.size() > 3) c.bind = lama::BindingPolicy{lama::BindTarget::kCore};
  return c;
}

// The in-process twin: the same service configuration fed the same stream,
// plus direct calls into each inner layer for every op the socket saw.
class Twin {
 public:
  explicit Twin(const Workload& w) : w_(w), session_(service_) {
    for (const AllocSpec& a : w.allocs) {
      current_.emplace(a.id, lama::parse_allocation(a.serialized));
      interned_.emplace(a.id, service_.intern_serialized(a.serialized));
    }
    Layers ignored;
    SpanLog none(0);
    for (const Op& op : w.define) execute(op, ignored, none, 0);
    for (const Op& op : w.warm) execute(op, ignored, none, 0);
    for (const Op& op : w.prep) {
      if (op.verb != WireVerb::kOptimize) replay_op(op, ignored, none, 0);
    }
  }

  // Replays a round that went out traced; parents[i] is op i's request span.
  void replay(const std::vector<Op>& round, const std::vector<std::uint64_t>& parents,
              Layers& out, SpanLog& spans) {
    for (std::size_t i = 0; i < round.size(); ++i) replay_op(round[i], out, spans, parents[i]);
  }

  // Refinement swaps per pass, over every search the twin ran.
  [[nodiscard]] double swaps_per_pass() const {
    return passes_ == 0 ? 0 : static_cast<double>(swaps_) / static_cast<double>(passes_);
  }

 private:
  // Times fn() as one span named `name`: elapsed microseconds, and the heap
  // allocations fn() made on this thread.
  struct Took {
    double us = 0;
    double allocs = 0;
  };
  template <typename Fn>
  Took timed(const char* name, SpanLog& spans, std::uint64_t parent, Fn&& fn) {
    const std::uint64_t allocs = thread_allocs();
    const std::uint64_t start = now_ns();
    fn();
    const std::uint64_t end = now_ns();
    const std::uint64_t made = thread_allocs() - allocs;
    if (parent != 0) spans.add(name, start, end, parent);
    return {static_cast<double>(end - start) / 1e3, static_cast<double>(made)};
  }

  std::string execute(const Op& op, Layers& out, SpanLog& spans, std::uint64_t parent) {
    const svc::WireCommand cmd = svc::split_wire_payload(op.payload);
    const std::string line(cmd.line);
    svc::ViewStream more(cmd.continuation);
    std::string reply;
    const Took took = timed("svc.session.execute", spans, parent,
                            [&] { reply = session_.execute(line, more); });
    if (op.verb == WireVerb::kMap) {
      out.time("svc.session.execute_us", took.us);
      out.count("svc.session.allocs", took.allocs);
    }
    return reply;
  }

  lama::svc::MapRequest request_of(const MapCall& c) {
    svc::MapRequest r;
    r.alloc = interned_.at(c.alloc);
    r.spec = "lama:" + c.layout;
    r.opts = c.opts;
    r.binding = c.bind;
    return r;
  }

  void replay_op(const Op& op, Layers& out, SpanLog& spans, std::uint64_t parent) {
    switch (op.verb) {
      case WireVerb::kMap: replay_map(op, out, spans, parent); break;
      case WireVerb::kMapBatch: replay_batch(op, out, spans, parent); break;
      case WireVerb::kOffline:
      case WireVerb::kOnline: {
        execute(op, out, spans, parent);
        const Failure& f = w_.failures[op.failure];
        lama::Allocation& alloc = current_.at(f.alloc);
        lama::NodeTopology& topo = alloc.mutable_node(f.node).topo;
        const bool off = op.verb == WireVerb::kOffline;
        if (f.pus.empty()) {
          topo.set_object_disabled(lama::ResourceType::kNode, 0, off);
        } else {
          for (const std::size_t pu : f.pus) topo.set_object_disabled(topo.leaf_type(), pu, off);
        }
        // Direct calls address the allocation the socket service now maps,
        // so the twin's caches fill and drop under the same fingerprints.
        interned_.insert_or_assign(f.alloc, service_.intern(alloc));
        break;
      }
      case WireVerb::kRemap: replay_remap(op, out, spans, parent); break;
      case WireVerb::kOptimize: replay_optimize(op, out, spans, parent); break;
      default: break;
    }
  }

  void replay_map(const Op& op, Layers& out, SpanLog& spans, std::uint64_t parent) {
    const std::string reply = execute(op, out, spans, parent);
    const std::string frame = svc::encode_frame(op.verb, op.payload);
    svc::WireFrame decoded;
    std::size_t consumed = 0;
    std::string error;
    out.time("svc.wire.decode_ns", 1e3 * timed("svc.wire.decode", spans, parent, [&] {
      svc::decode_frame(frame, decoded, consumed, error);
    }).us);
    std::string encoded;
    out.time("svc.wire.encode_ns", 1e3 * timed("svc.wire.encode", spans, parent, [&] {
      encoded = svc::encode_frame(svc::classify_response(reply), reply);
    }).us);

    const MapCall call = parse_map_fields(op.payload.substr(4), ' ');
    const svc::MapRequest req = request_of(call);
    svc::MapResponse resp;
    const Took map = timed("svc.service.map", spans, parent,
                           [&] { resp = service_.map(req); });
    out.time("svc.service.map_us", map.us);
    out.count("svc.service.allocs", map.allocs);
    std::string formatted;
    out.time("svc.format_us", timed("svc.format", spans, parent,
                                    [&] { formatted = svc::format_map_response(resp); }).us);
    baseline_.insert_or_assign(
        call.alloc, Baseline{lama::ProcessLayout::parse(call.layout), call.opts, resp.mapping});

    // The layers under the service: tree, plan, kernel, binding.
    const lama::Allocation& alloc = current_.at(call.alloc);
    const lama::ProcessLayout layout = lama::ProcessLayout::parse(call.layout);
    std::unique_ptr<lama::MaximalTree> tree;
    out.time("lama.tree.build_us", timed("lama.tree.build", spans, parent, [&] {
      tree = std::make_unique<lama::MaximalTree>(alloc, layout);
    }).us);
    std::optional<lama::MapPlan> plan;
    out.time("lama.plan.compile_us", timed("lama.plan.compile", spans, parent, [&] {
      plan.emplace(lama::compile_map_plan(*tree, layout, lama::IterationPolicy{}));
    }).us);
    // The first run binds the executor and sizes the result; the timed
    // replay is the steady state the service's warm path sees.
    lama::lama_map_compiled(alloc, call.opts, *plan, executor_, kernel_out_);
    const Took kernel = timed("lama.kernel.run", spans, parent, [&] {
      lama::lama_map_compiled(alloc, call.opts, *plan, executor_, kernel_out_);
    });
    out.time("lama.kernel.run_us", kernel.us);
    out.count("lama.kernel.allocs", kernel.allocs);
    if (call.bind) {
      out.time("lama.bind_us", timed("lama.bind", spans, parent, [&] {
        const lama::BindingResult b = lama::bind_processes(alloc, kernel_out_, *call.bind);
        (void)b;
      }).us);
    }
  }

  void replay_batch(const Op& op, Layers& out, SpanLog& spans, std::uint64_t parent) {
    std::vector<svc::MapRequest> requests;
    std::size_t pos = op.payload.find(' ', 9);  // past "MAPBATCH <n>"
    while (pos != std::string::npos) {
      const std::size_t next = op.payload.find(' ', pos + 1);
      requests.push_back(request_of(parse_map_fields(
          op.payload.substr(pos + 1, next == std::string::npos ? next : next - pos - 1), '/')));
      pos = next;
    }
    const double cpu = cpu_seconds();
    out.time("svc.service.mapbatch_us",
             timed("svc.service.mapbatch", spans, parent, [&] {
               const std::vector<svc::MapResponse> r = service_.map_batch(requests);
               (void)r;
             }).us);
    out.time("svc.service.mapbatch_cpu_us", (cpu_seconds() - cpu) * 1e6);
  }

  void replay_remap(const Op& op, Layers& out, SpanLog& spans, std::uint64_t parent) {
    execute(op, out, spans, parent);
    Baseline& base = baseline_.at(op.alloc);
    const std::string serialized = lama::serialize_allocation(current_.at(op.alloc));
    svc::RemapRequest req;
    out.time("cluster.intern_us", timed("cluster.intern", spans, parent, [&] {
      req.alloc = service_.intern_serialized(serialized);
    }).us);
    req.layout = base.layout;
    req.opts = base.opts;
    req.previous = &base.mapping;
    svc::MapResponse resp;
    out.time("svc.service.remap_us", timed("svc.service.remap", spans, parent,
                                           [&] { resp = service_.remap(req); }).us);
    if (!resp.ok()) throw std::runtime_error("twin remap failed: " + resp.error);
    out.time("lama.remap_us", timed("lama.remap", spans, parent, [&] {
      const lama::RemapResult r =
          lama::lama_remap(*req.alloc.alloc, base.layout, base.opts, base.mapping);
      (void)r;
    }).us);
    base.mapping = std::move(resp.mapping);
  }

  void replay_optimize(const Op& op, Layers& out, SpanLog& spans, std::uint64_t parent) {
    const OptCase& c = w_.opt_cases[op.opt];
    std::shared_ptr<const lama::CommMatrix> matrix;
    out.time("tmatch.matrix_us", timed("tmatch.matrix", spans, parent, [&] {
      if (c.pattern.empty()) {
        std::string text = "np " + std::to_string(c.np) + "\n";
        for (const std::string& e : c.edges) text += e + "\n";
        matrix = std::make_shared<const lama::CommMatrix>(lama::CommMatrix::parse(text));
      } else {
        matrix = std::make_shared<const lama::CommMatrix>(lama::CommMatrix::from_pattern(
            lama::make_named_pattern(c.pattern, static_cast<int>(c.np))));
      }
    }).us);
    const svc::InternedAlloc& alloc = interned_.at(c.alloc);
    opt_service_.invalidate(alloc.fingerprint);  // every timed search is a miss
    svc::OptimizeRequest req;
    req.alloc = alloc;
    req.matrix = matrix;
    out.time("svc.service.optimize_ms",
             timed("svc.service.optimize", spans, parent,
                   [&] { opt_service_.optimize(req); }).us / 1e3);
    static const lama::DistanceModel kModel = lama::DistanceModel::commodity();
    lama::opt::OptimizeResult result;
    out.time("opt.search_ms", timed("opt.search", spans, parent, [&] {
      result = lama::opt::optimize_placement(*alloc.alloc, *matrix, lama::opt::OptBudget{},
                                             kModel);
    }).us / 1e3);
    out.count("opt.candidates", static_cast<double>(result.candidates_evaluated));
    swaps_ += result.refine_swaps;
    passes_ += result.refine_passes;
    out.time("sim.cost_us", timed("sim.cost", spans, parent, [&] {
      const double cost = lama::opt::placement_cost_ns(*alloc.alloc, result.mapping, *matrix,
                                                       kModel);
      (void)cost;
    }).us);
  }

  struct Baseline {
    lama::ProcessLayout layout;
    lama::MapOptions opts;
    lama::MappingResult mapping;
  };

  const Workload& w_;
  svc::MappingService service_{svc::ServiceConfig{.workers = 2}};
  svc::ProtocolSession session_;
  svc::MappingService opt_service_{svc::ServiceConfig{.workers = 0}};
  // Each allocation as the stream's OFFLINE/ONLINE lines left it, and its
  // interned form.
  std::map<std::string, lama::Allocation> current_;
  std::map<std::string, svc::InternedAlloc> interned_;
  std::map<std::string, Baseline> baseline_;
  lama::PlanExecutor executor_;
  lama::MappingResult kernel_out_;
  std::size_t swaps_ = 0;
  std::size_t passes_ = 0;
};

// The per-layer metrics of the traced mode, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"svc.net.gap_us", "us"},
      {"svc.net.resp_bytes", "bytes"},
      {"svc.wire.decode_ns", "ns"},
      {"svc.wire.encode_ns", "ns"},
      {"svc.session.execute_us", "us"},
      {"svc.session.allocs", "count"},
      {"svc.format_us", "us"},
      {"svc.service.map_us", "us"},
      {"svc.service.allocs", "count"},
      {"svc.service.mapbatch_us", "us"},
      {"svc.service.mapbatch_cpu_us", "us"},
      {"svc.service.remap_us", "us"},
      {"svc.service.optimize_ms", "ms"},
      {"svc.cache.plan_hit_ratio", "ratio"},
      {"svc.cache.invalidations", "count"},
      {"lama.kernel.run_us", "us"},
      {"lama.kernel.allocs", "count"},
      {"lama.plan.compile_us", "us"},
      {"lama.tree.build_us", "us"},
      {"lama.remap_us", "us"},
      {"lama.bind_us", "us"},
      {"cluster.intern_us", "us"},
      {"opt.search_ms", "ms"},
      {"opt.candidates", "count"},
      {"opt.swaps_per_pass", "count"},
      {"sim.cost_us", "us"},
      {"tmatch.matrix_us", "us"},
      {"obs.trace_overhead", "ratio"},
  };
  return m;
}

// Every p50 layer metric the twin times, and the MAP round trips of both
// sides; the traced run goes on until each holds enough samples.
bool enough_samples(const Layers& layers, const Window& traced, const Window& untraced) {
  static const char* const kTimed[] = {
      "svc.session.execute_us", "svc.wire.decode_ns",    "svc.wire.encode_ns",
      "svc.service.map_us",     "svc.format_us",         "lama.tree.build_us",
      "lama.plan.compile_us",   "lama.kernel.run_us",    "lama.bind_us",
      "svc.service.mapbatch_us", "svc.service.mapbatch_cpu_us",
      "cluster.intern_us",      "svc.service.remap_us",  "lama.remap_us",
      "tmatch.matrix_us",       "svc.service.optimize_ms", "opt.search_ms",
      "sim.cost_us"};
  for (const char* name : kTimed) {
    const auto it = layers.timed.find(name);
    if (it == layers.timed.end() || samples_beyond(it->second.size(), 0.5) < kMinBeyond) {
      return false;
    }
  }
  return samples_beyond(traced.map_us.size(), 0.5) >= kMinBeyond &&
         samples_beyond(untraced.map_us.size(), 0.5) >= kMinBeyond;
}

int run_traced(const Args& args, const Workload& w) {
  const SharedCpu cpu;
  Driver d(w, cpu, args.tamper);
  Twin twin(w);  // before cold_start pins this thread: its workers run anywhere
  std::vector<double> unused_cold;
  std::unique_ptr<Server> server;
  std::unique_ptr<Connection> conn;
  d.cold_start(server, conn, unused_cold);
  d.prepare(*conn);
  Window untraced, traced;
  Layers layers;
  SpanLog spans(kSpanCap);
  std::vector<SentinelTimes> probes{run_sentinel()};
  const HostCpu host_start = read_host_cpu();
  const CacheCounts before = CacheCounts::of(server->service.counters());
  const std::uint64_t start = now_ns();
  const auto budget = static_cast<std::uint64_t>(args.seconds * 1e9);
  std::size_t pos = 0;
  // Rounds go out untraced, traced, traced, untraced, and so on; the pattern
  // shifts by one on each pass through the cycle, so every round goes out
  // both ways. A traced round is replayed layer by layer on the twin right
  // after it, so each side follows a twin replay half the time. The run
  // extends (up to 3x) until every layer holds enough samples for its p50.
  while (now_ns() - start < budget ||
         (!enough_samples(layers, traced, untraced) && now_ns() - start < 3 * budget)) {
    const std::size_t n = w.rounds.size();
    const std::vector<Op>& round = w.rounds[pos % n];
    const std::size_t slot = (pos % n + pos / n) % 4;
    ++pos;
    if (slot == 0 || slot == 3) {
      untraced.run(d, *conn, round);
      continue;
    }
    std::vector<std::uint64_t> parents;
    traced.run(d, *conn, round, &spans, &parents);
    twin.replay(round, parents, layers, spans);
  }
  probes.push_back(run_sentinel());
  const CacheCounts cache = CacheCounts::of(server->service.counters()) - before;

  std::map<std::string, Metric> by_name;
  auto put = [&](Metric m) { by_name[m.name] = std::move(m); };
  for (auto& [name, samples] : layers.timed) put(pct(name, samples, 0.5, ""));
  for (const auto& [name, c] : layers.counted) {
    put({name, c.first / static_cast<double>(c.second), "", c.second});
  }
  const Metric rtt = pct("rtt", traced.map_us, 0.5, "us");
  const Metric plain = pct("rtt", untraced.map_us, 0.5, "us");
  const Metric& exec = by_name.at("svc.session.execute_us");
  put({"svc.net.gap_us", rtt.value - exec.value, "", rtt.samples});
  put({"svc.net.resp_bytes",
       static_cast<double>(traced.map_reply_bytes) / static_cast<double>(traced.map_us.size()),
       "", traced.map_us.size()});
  const std::uint64_t plan_total = cache.plan_hits + cache.plan_misses;
  put({"svc.cache.plan_hit_ratio",
       plan_total == 0 ? 0 : static_cast<double>(cache.plan_hits) / static_cast<double>(plan_total),
       "", plan_total});
  put({"svc.cache.invalidations", static_cast<double>(cache.invalidations), "", 1});
  put({"opt.swaps_per_pass", twin.swaps_per_pass(), "", layers.counted["opt.candidates"].second});
  put({"obs.trace_overhead", (rtt.value - plain.value) / plain.value, "", plain.samples});

  std::vector<Metric> metrics;
  for (const auto& [name, unit] : layer_metrics()) {
    const auto it = by_name.find(name);
    if (it == by_name.end()) throw std::runtime_error("layer metric " + name + " was not measured");
    Metric m = it->second;
    m.unit = unit;
    metrics.push_back(std::move(m));
  }

  // The MAP ledger: inclusive p50 of each layer, outermost first, and its
  // self time (inclusive minus the next layer in).
  const std::vector<std::pair<std::string, double>> chain = {
      {"socket round trip", rtt.value},
      {"svc.session.execute", exec.value},
      {"svc.service.map", by_name.at("svc.service.map_us").value},
      {"lama.kernel.run", by_name.at("lama.kernel.run_us").value},
  };
  std::vector<double> inclusive;
  for (const auto& link : chain) inclusive.push_back(link.second);
  const std::vector<double> self = self_times(inclusive);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    std::printf("ledger MAP %-22s inclusive_p50_us %10.3f self_us %10.3f\n",
                chain[i].first.c_str(), inclusive[i], self[i]);
  }

  std::string path = args.out_dir + "/trace-" + w.name + "-" + std::to_string(w.seed) + ".json";
  std::filesystem::create_directories(args.out_dir);
  if (!spans.write_chrome(path)) throw std::runtime_error("cannot write " + path);
  char ctx[512];
  std::snprintf(ctx, sizeof(ctx), "spans=%zu dropped=%zu trace_file=%s rounds=%zu ",
                spans.size(), spans.dropped(), path.c_str(), pos);
  print_result(w, d, metrics, ctx + sentinel_context(probes, host_start));
  conn.reset();
  server.reset();
  return d.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    Workload w = make_workload(args.workload, args.seed);
    compute_expected_apart(w);  // before any set-up clock starts
    return args.trace == 1 ? run_traced(args, w) : run_untraced(args, w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
