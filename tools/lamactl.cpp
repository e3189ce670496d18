// lamactl — command-line front end for the whole library: describe a
// cluster in a file, optionally select nodes with a hostfile, pass any
// mpirun-style placement options, and inspect the resulting plan; with
// --pattern, additionally price the mapping under a synthetic workload.
//
//   lamactl --cluster cluster.txt -np 24 --map-by lama:scbnh --bind-to core
//   lamactl --cluster cluster.txt --hostfile hosts.txt -np 8 --by-node
//   lamactl --cluster cluster.txt --topo
//   lamactl --cluster cluster.txt -np 32 --pattern ring:8192
//
// The `serve` and `query` subcommands speak the mapping service's
// line-oriented protocol (docs/service.md) over stdin/stdout:
//
//   lamactl query --cluster cluster.txt -np 8 --map-by lama:scbnh |
//     lamactl serve --workers 8 --stats
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <limits>
#include <map>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "dur/state_store.hpp"
#include "obs/chrome.hpp"
#include "obs/trace_dump.hpp"
#include "rte/runtime.hpp"
#include "sim/evaluator.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/numa.hpp"
#include "svc/client.hpp"
#include "svc/fault_injector.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "svc/shard_server.hpp"
#include "tmatch/comm_matrix.hpp"
#include "topo/serialize.hpp"
#include "topo/sysfs_topology.hpp"

// Exit codes shared by the client-side subcommands: 0 success, 1 error,
// 2 failed fault-injection invariants, 3 still busy after retries exhausted
// (the caller should back off and try again later — distinct from a hard
// error so scripts can tell "overloaded" from "broken").
constexpr int kExitBusy = 3;

namespace {

using namespace lama;

// Set by SIGTERM/SIGINT: the serve loop notices, drains, and exits cleanly.
volatile std::sig_atomic_t g_signal = 0;

void handle_shutdown_signal(int sig) { g_signal = sig; }

// Install without SA_RESTART so a signal interrupts the blocking stdin read
// (getline fails with EINTR) instead of silently restarting it — the serve
// loop must wake up to drain.
void install_shutdown_signals() {
  struct sigaction sa = {};
  sa.sa_handler = handle_shutdown_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open file: " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Writes failed traces to <dir>/trace-<id>.json as they happen (the flight
// recorder's dump sink), GC'd oldest-first to `cap` files (0 = unbounded).
// The directory must already exist.
void install_trace_dump(svc::MappingService& service, const std::string& dir,
                        std::size_t cap) {
  if (dir.empty()) return;
  if (service.tracer() == nullptr) {
    throw ParseError("--trace-dump requires --flight-recorder > 0");
  }
  service.tracer()->recorder().set_dump_sink(
      obs::make_trace_dump_sink(obs::TraceDumpConfig{dir, cap}));
}

// `lamactl serve`: run the mapping service over stdin/stdout. With
// --state-dir, state mutations journal to disk and a restart restores them
// (docs/resilience.md); SIGTERM/SIGINT drain gracefully — in-flight work
// finishes or is shed with retry-after, the journal is flushed, a final
// snapshot compacts the state, and the process exits 0.
int run_serve(const std::vector<std::string>& args) {
  svc::ServiceConfig config;
  svc::NetConfig net_config;
  std::string listen_addr;
  bool stats = false;
  std::string trace_dump;
  std::size_t trace_dump_cap = 256;
  dur::DurConfig dur_config;
  bool persist = true;
  std::size_t shards = 1;
  bool discover = false;
  bool affinity = true;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto need_value = [&] {
      if (i + 1 >= args.size()) {
        throw ParseError("option " + arg + " requires a value");
      }
      return args[++i];
    };
    if (arg == "--listen") {
      listen_addr = need_value();
    } else if (arg == "--max-connections") {
      net_config.max_connections =
          parse_size(need_value(), "serve max-connections");
    } else if (arg == "--state-dir") {
      dur_config.dir = need_value();
    } else if (arg == "--no-persist") {
      persist = false;
    } else if (arg == "--snapshot-every") {
      dur_config.snapshot_every =
          parse_size(need_value(), "serve snapshot-every");
    } else if (arg == "--fsync-every") {
      dur_config.fsync_every = parse_size(need_value(), "serve fsync-every");
      if (dur_config.fsync_every == 0) dur_config.fsync_every = 1;
    } else if (arg == "--no-prewarm") {
      dur_config.prewarm = false;
    } else if (arg == "--workers") {
      config.workers = parse_size(need_value(), "serve workers");
    } else if (arg == "--shards") {
      shards = parse_size(need_value(), "serve shards");
      if (shards == 0) shards = 1;
    } else if (arg == "--cache-shards") {
      config.cache_shards = parse_size(need_value(), "serve cache-shards");
    } else if (arg == "--discover-topology") {
      discover = true;
    } else if (arg == "--no-affinity") {
      affinity = false;
    } else if (arg == "--capacity") {
      config.shard_capacity = parse_size(need_value(), "serve capacity");
    } else if (arg == "--max-queue") {
      config.max_queue = parse_size(need_value(), "serve max-queue");
    } else if (arg == "--max-inflight") {
      config.max_inflight = parse_size(need_value(), "serve max-inflight");
    } else if (arg == "--timeout-ms") {
      config.default_timeout_ms = static_cast<std::uint32_t>(
          parse_size(need_value(), "serve timeout-ms"));
    } else if (arg == "--retry-after-ms") {
      config.retry_after_ms = static_cast<std::uint32_t>(
          parse_size(need_value(), "serve retry-after-ms"));
    } else if (arg == "--no-verify") {
      config.verify_trees = false;
    } else if (arg == "--flight-recorder") {
      config.flight_recorder =
          parse_size(need_value(), "serve flight-recorder");
    } else if (arg == "--trace-sample") {
      config.trace_sample = static_cast<std::uint32_t>(
          parse_size(need_value(), "serve trace-sample"));
    } else if (arg == "--trace-seed") {
      config.trace_seed = parse_size(need_value(), "serve trace-seed");
    } else if (arg == "--trace-dump") {
      trace_dump = need_value();
    } else if (arg == "--trace-dump-cap") {
      trace_dump_cap = parse_size(need_value(), "serve trace-dump-cap");
    } else if (arg == "--no-tail") {
      config.trace_tail = false;
    } else if (arg == "--tail-floor-ns") {
      config.trace_tail_floor_ns =
          parse_size(need_value(), "serve tail-floor-ns");
    } else if (arg == "--slo") {
      config.slo = svc::parse_slo_spec(need_value());
    } else if (arg == "--stats") {
      stats = true;
    } else {
      throw ParseError("unknown serve option: " + arg);
    }
  }
  if (shards > 1 && listen_addr.empty()) {
    throw ParseError("--shards > 1 requires --listen (stdin is one stream)");
  }

  // --discover-topology: parse the real machine out of sysfs, NUMA-place
  // the cache shards on it, and let LAMA map the server's own shard
  // threads over it (unless --no-affinity).
  std::optional<TopologyDiscovery> discovery;
  std::unique_ptr<support::NumaTopology> numa_topo;
  std::unique_ptr<support::NumaAllocator> numa_arena;
  std::vector<std::vector<int>> shard_affinity;
  if (discover) {
    discovery.emplace(discover_topology());
    for (const std::string& warning : discovery->warnings) {
      std::fprintf(stderr, "lamactl: topology: %s\n", warning.c_str());
    }
    numa_topo = support::make_numa_topology();
    numa_arena = support::make_numa_allocator(*numa_topo);
    config.shard_arena = numa_arena.get();
    config.numa_topology = numa_topo.get();
    if (affinity) {
      shard_affinity =
          svc::compute_shard_affinity(discovery->topology, shards);
    }
  }

  svc::MappingService service(config);
  install_trace_dump(service, trace_dump, trace_dump_cap);
  install_shutdown_signals();

  // One control-plane session: the socket server's, shared by every shard,
  // or a stdin session of its own.
  std::unique_ptr<dur::StateStore> store;
  std::optional<svc::ShardedServer> server;
  std::optional<svc::ProtocolSession> stdin_session;
  svc::ProtocolSession& session =
      listen_addr.empty()
          ? stdin_session.emplace(service)
          : server.emplace(service, svc::ShardServerConfig{shards, net_config,
                                                           shard_affinity})
                .session();
  if (!dur_config.dir.empty() && persist) {
    store = std::make_unique<dur::StateStore>(dur_config);
    service.attach_durability(store.get());
    const svc::ProtocolSession::RecoveryInfo info =
        session.restore_from(*store);
    for (const std::string& warning : info.warnings) {
      std::fprintf(stderr, "lamactl: recovery: %s\n", warning.c_str());
    }
  }

  // The stop predicate begins the drain the moment a shutdown signal lands:
  // admission sheds new work with retry-after while reads keep serving, and
  // the loop exits (the signal also breaks the blocking getline / the
  // epoll_wait poll).
  const auto stop = [&service] {
    if (g_signal != 0 && !service.draining()) service.begin_drain();
    return service.draining();
  };
  if (server.has_value()) {
    // Socket mode: N epoll loops (one by default) behind one SO_REUSEPORT
    // port serve many keep-alive connections, text or binary framing per
    // connection (docs/service.md), with one global connection cap and
    // shard threads pinned by LAMA's own mapping when the topology was
    // discovered. The drain closes the acceptors, flushes in-flight
    // connections, then falls through to the snapshot below.
    server->listen(listen_addr);
    if (shards > 1) {
      std::fprintf(stderr, "lamactl: listening on %s with %zu shards%s\n",
                   server->bound_address().to_string().c_str(), shards,
                   shard_affinity.empty() ? "" : " (affinity mapped)");
    } else {
      std::fprintf(stderr, "lamactl: listening on %s\n",
                   server->bound_address().to_string().c_str());
    }
    server->run(stop);
    if (stats) {
      std::fprintf(stderr, "STATS %s\n", service.stats_line().c_str());
    }
  } else {
    svc::serve(std::cin, std::cout, session, service, stats, stop);
  }

  // Shutdown — signal-driven or clean EOF/QUIT: flush every batched journal
  // record, then compact the state into a final snapshot so the next start
  // restores without replay.
  service.begin_drain();
  if (store != nullptr) {
    store->flush();
    store->write_snapshot(session.snapshot_lines(), session.state_digest());
    if (g_signal != 0) {
      std::fprintf(stderr,
                   "lamactl: drained on signal %d (journal flushed, "
                   "snapshot seq=%llu)\n",
                   static_cast<int>(g_signal),
                   static_cast<unsigned long long>(store->snapshot_seq()));
    }
  }
  return 0;
}

// `lamactl query`: print the protocol lines for one mapping query, ready to
// pipe into `lamactl serve`. With --exec, run the query against an
// in-process service instead, through the retrying client (--retries,
// --backoff-ms) — busy responses back off and retry like a real client.
int run_query(const std::vector<std::string>& args) {
  std::string cluster_path;
  std::string hostfile_path;
  std::string alloc_id = "a0";
  std::string spec = "lama";
  std::size_t np = 0;
  std::string options;
  bool stats = false;
  bool exec = false;
  svc::RetryPolicy retry;
  svc::ServiceConfig exec_config;
  svc::ConnectConfig connect;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto need_value = [&] {
      if (i + 1 >= args.size()) {
        throw ParseError("option " + arg + " requires a value");
      }
      return args[++i];
    };
    if (arg == "--cluster") {
      cluster_path = need_value();
    } else if (arg == "--hostfile") {
      hostfile_path = need_value();
    } else if (arg == "--connect") {
      connect.address = need_value();
    } else if (arg == "--binary") {
      connect.binary = true;
    } else if (arg == "--id") {
      alloc_id = need_value();
    } else if (arg == "-np" || arg == "--np") {
      np = parse_size(need_value(), "query process count");
    } else if (arg == "--map-by") {
      spec = need_value();
    } else if (arg == "--bind-to") {
      options += (options.empty() ? "" : " ") + ("bind=" + need_value());
    } else if (arg == "--npernode") {
      options += (options.empty() ? "" : " ") + ("npernode=" + need_value());
    } else if (arg == "--oversubscribe") {
      options += (options.empty() ? "" : " ") + std::string("oversub=1");
    } else if (arg == "--no-oversubscribe") {
      options += (options.empty() ? "" : " ") + std::string("oversub=0");
    } else if (arg == "--timeout-ms") {
      options += (options.empty() ? "" : " ") + ("timeout=" + need_value());
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--exec") {
      exec = true;
    } else if (arg == "--retries") {
      retry.max_attempts = parse_size(need_value(), "query retries");
    } else if (arg == "--backoff-ms") {
      retry.base_ms = static_cast<std::uint32_t>(
          parse_size(need_value(), "query backoff-ms"));
    } else if (arg == "--max-inflight") {
      exec_config.max_inflight =
          parse_size(need_value(), "query max-inflight");
    } else {
      throw ParseError("unknown query option: " + arg);
    }
  }
  if (cluster_path.empty()) throw ParseError("--cluster <file> is required");
  if (np == 0) throw ParseError("-np <count> is required");

  const Cluster cluster = parse_cluster_file(read_file(cluster_path));
  const Allocation alloc =
      hostfile_path.empty()
          ? allocate_all(cluster)
          : parse_hostfile(cluster, read_file(hostfile_path));
  if (!connect.address.empty()) {
    // Run the query against a live `lamactl serve --listen` server: the
    // socket client reconnects with backoff, the retrying client handles
    // busy responses — exit 3 when still shed after retries, like --exec.
    svc::SocketClient socket(connect);
    svc::QueryClient client(socket.transport(), retry);
    const svc::QueryResult result =
        client.query(alloc, alloc_id, np, spec, options);
    std::printf("%s\n", result.response.c_str());
    if (result.attempts > 1 || socket.reconnects() > 0) {
      std::printf("# attempts=%zu backoff-ms=%llu reconnects=%zu\n",
                  result.attempts,
                  static_cast<unsigned long long>(result.total_backoff_ms),
                  socket.reconnects());
    }
    if (stats) {
      for (const std::string& line : socket.request("STATS")) {
        std::printf("%s\n", line.c_str());
      }
    }
    if (result.gave_up_busy) return kExitBusy;
    return result.ok() ? 0 : 1;
  }
  if (exec) {
    svc::MappingService service(exec_config);
    svc::ProtocolSession session(service);
    std::istringstream no_more;
    svc::QueryClient client(
        [&](const std::string& line) {
          std::string response = session.execute(line, no_more);
          if (!response.empty() && response.back() == '\n') {
            response.pop_back();
          }
          return response;
        },
        retry);
    const svc::QueryResult result =
        client.query(alloc, alloc_id, np, spec, options);
    std::printf("%s\n", result.response.c_str());
    if (result.attempts > 1) {
      std::printf("# attempts=%zu backoff-ms=%llu\n", result.attempts,
                  static_cast<unsigned long long>(result.total_backoff_ms));
    }
    if (stats) {
      std::printf("STATS %s\n", service.stats_line().c_str());
    }
    if (result.gave_up_busy) return kExitBusy;
    return result.ok() ? 0 : 1;
  }
  std::string out = svc::format_query(alloc, alloc_id, np, spec, options);
  if (stats) out += "STATS\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}

// `lamactl mapbatch`: one MAPBATCH request carrying a job per -np value.
// Default prints the protocol lines (NODE definitions + the MAPBATCH line),
// ready to pipe into `lamactl serve`; --exec runs them against an
// in-process service through the batch-aware retrying client, which
// re-sends only the jobs the server shed.
int run_mapbatch(const std::vector<std::string>& args) {
  std::string cluster_path;
  std::string hostfile_path;
  std::string alloc_id = "a0";
  std::string spec = "lama";
  std::vector<std::size_t> np_list;
  std::vector<std::string> options;
  bool stats = false;
  bool exec = false;
  svc::RetryPolicy retry;
  svc::ServiceConfig exec_config;
  svc::ConnectConfig connect;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto need_value = [&] {
      if (i + 1 >= args.size()) {
        throw ParseError("option " + arg + " requires a value");
      }
      return args[++i];
    };
    if (arg == "--cluster") {
      cluster_path = need_value();
    } else if (arg == "--hostfile") {
      hostfile_path = need_value();
    } else if (arg == "--connect") {
      connect.address = need_value();
    } else if (arg == "--binary") {
      connect.binary = true;
    } else if (arg == "--id") {
      alloc_id = need_value();
    } else if (arg == "-np" || arg == "--np") {
      // Comma-separated: one batch job per count.
      const std::string list = need_value();
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const auto comma = list.find(',', pos);
        np_list.push_back(parse_size(
            list.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos),
            "mapbatch process count"));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (arg == "--map-by") {
      spec = need_value();
    } else if (arg == "--bind-to") {
      options.push_back("bind=" + need_value());
    } else if (arg == "--npernode") {
      options.push_back("npernode=" + need_value());
    } else if (arg == "--oversubscribe") {
      options.push_back("oversub=1");
    } else if (arg == "--no-oversubscribe") {
      options.push_back("oversub=0");
    } else if (arg == "--timeout-ms") {
      options.push_back("timeout=" + need_value());
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--exec") {
      exec = true;
    } else if (arg == "--retries") {
      retry.max_attempts = parse_size(need_value(), "mapbatch retries");
    } else if (arg == "--backoff-ms") {
      retry.base_ms = static_cast<std::uint32_t>(
          parse_size(need_value(), "mapbatch backoff-ms"));
    } else if (arg == "--max-inflight") {
      exec_config.max_inflight =
          parse_size(need_value(), "mapbatch max-inflight");
    } else {
      throw ParseError("unknown mapbatch option: " + arg);
    }
  }
  if (cluster_path.empty()) throw ParseError("--cluster <file> is required");
  if (np_list.empty()) throw ParseError("-np <count[,count...]> is required");

  const Cluster cluster = parse_cluster_file(read_file(cluster_path));
  const Allocation alloc =
      hostfile_path.empty()
          ? allocate_all(cluster)
          : parse_hostfile(cluster, read_file(hostfile_path));
  std::vector<svc::BatchJob> jobs;
  jobs.reserve(np_list.size());
  for (const std::size_t np : np_list) {
    jobs.push_back(svc::BatchJob{alloc_id, np, spec, options});
  }
  // The NODE definitions, shared by both modes (format_query minus its MAP
  // line, which the batch replaces).
  std::string node_lines = svc::format_query(alloc, alloc_id, 1, spec);
  node_lines.erase(node_lines.rfind("MAP "));

  if (!connect.address.empty()) {
    svc::SocketClient socket(connect);
    // NODE definitions first (never shed), then the retried MAPBATCH.
    std::size_t at = 0;
    while (at < node_lines.size()) {
      const auto nl = node_lines.find('\n', at);
      const std::vector<std::string> reply =
          socket.request(node_lines.substr(at, nl - at));
      if (reply.empty() || !starts_with(reply.front(), "OK")) {
        std::printf("%s\n",
                    reply.empty() ? "ERR empty response"
                                  : reply.front().c_str());
        return 1;
      }
      at = nl == std::string::npos ? node_lines.size() : nl + 1;
    }
    svc::QueryClient client([](const std::string&) { return std::string(); },
                            retry);
    const svc::BatchResult result =
        client.map_batch(jobs, socket.multi_transport());
    for (std::size_t i = 0; i < result.responses.size(); ++i) {
      std::printf("JOB %zu %s\n", i, result.responses[i].c_str());
    }
    std::printf("%s\n", result.trailer.c_str());
    if (result.attempts > 1 || socket.reconnects() > 0) {
      std::printf("# attempts=%zu backoff-ms=%llu reconnects=%zu\n",
                  result.attempts,
                  static_cast<unsigned long long>(result.total_backoff_ms),
                  socket.reconnects());
    }
    if (stats) {
      for (const std::string& line : socket.request("STATS")) {
        std::printf("%s\n", line.c_str());
      }
    }
    if (result.gave_up_busy) return kExitBusy;
    return result.ok() ? 0 : 1;
  }

  if (!exec) {
    std::fputs(node_lines.c_str(), stdout);
    std::printf("%s\n", svc::format_mapbatch(jobs).c_str());
    if (stats) std::printf("STATS\n");
    return 0;
  }

  svc::MappingService service(exec_config);
  svc::ProtocolSession session(service);
  std::istringstream no_more;
  auto execute = [&](const std::string& line) {
    return session.execute(line, no_more);
  };
  std::size_t pos = 0;
  while (pos < node_lines.size()) {
    const auto nl = node_lines.find('\n', pos);
    execute(node_lines.substr(pos, nl - pos));
    pos = nl == std::string::npos ? node_lines.size() : nl + 1;
  }
  svc::QueryClient client([](const std::string&) { return std::string(); },
                          retry);
  const svc::BatchResult result =
      client.map_batch(jobs, [&](const std::string& line) {
        std::vector<std::string> lines;
        const std::string text = execute(line);
        std::size_t at = 0;
        while (at < text.size()) {
          const auto nl = text.find('\n', at);
          lines.push_back(text.substr(at, nl - at));
          at = nl == std::string::npos ? text.size() : nl + 1;
        }
        return lines;
      });
  for (std::size_t i = 0; i < result.responses.size(); ++i) {
    std::printf("JOB %zu %s\n", i, result.responses[i].c_str());
  }
  std::printf("%s\n", result.trailer.c_str());
  if (result.attempts > 1) {
    std::printf("# attempts=%zu backoff-ms=%llu\n", result.attempts,
                static_cast<unsigned long long>(result.total_backoff_ms));
  }
  if (stats) {
    std::printf("STATS %s\n", service.stats_line().c_str());
  }
  if (result.gave_up_busy) return kExitBusy;
  return result.ok() ? 0 : 1;
}

// `lamactl optimize`: one OPTIMIZE request — search the placement space for
// np processes against a named pattern or a communication-matrix file.
// Default prints the protocol lines (NODE definitions, the OPTIMIZE line,
// and any framed matrix payload) ready to pipe into `lamactl serve`; --exec
// runs the request against an in-process service and prints the response.
int run_optimize(const std::vector<std::string>& args) {
  std::string cluster_path;
  std::string hostfile_path;
  std::string alloc_id = "a0";
  std::string pattern_spec;
  std::string matrix_path;
  std::size_t np = 0;
  std::string options;
  bool stats = false;
  bool exec = false;
  svc::ServiceConfig exec_config;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto need_value = [&] {
      if (i + 1 >= args.size()) {
        throw ParseError("option " + arg + " requires a value");
      }
      return args[++i];
    };
    if (arg == "--cluster") {
      cluster_path = need_value();
    } else if (arg == "--hostfile") {
      hostfile_path = need_value();
    } else if (arg == "--id") {
      alloc_id = need_value();
    } else if (arg == "-np" || arg == "--np") {
      np = parse_size(need_value(), "optimize process count");
    } else if (arg == "--pattern") {
      pattern_spec = need_value();
    } else if (arg == "--matrix") {
      matrix_path = need_value();
    } else if (arg == "--budget") {
      options += " budget=" + need_value();
    } else if (arg == "--passes") {
      options += " passes=" + need_value();
    } else if (arg == "--timeout-ms") {
      options += " timeout=" + need_value();
    } else if (arg == "--threads") {
      options += " threads=" + need_value();
    } else if (arg == "--workers") {
      exec_config.workers = parse_size(need_value(), "optimize workers");
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--exec") {
      exec = true;
    } else {
      throw ParseError("unknown optimize option: " + arg);
    }
  }
  if (cluster_path.empty()) throw ParseError("--cluster <file> is required");
  if (pattern_spec.empty() == matrix_path.empty()) {
    throw ParseError("exactly one of --pattern or --matrix is required");
  }

  const Cluster cluster = parse_cluster_file(read_file(cluster_path));
  const Allocation alloc =
      hostfile_path.empty()
          ? allocate_all(cluster)
          : parse_hostfile(cluster, read_file(hostfile_path));

  // The command line plus any framed payload. A matrix file carries its own
  // "np <N>" header (tmatch/comm_matrix.hpp); the wire form implies np from
  // the command, so the header is stripped and -np may be omitted.
  std::string command = "OPTIMIZE " + alloc_id + " ";
  std::string payload;
  if (!pattern_spec.empty()) {
    if (np == 0) throw ParseError("-np <count> is required with --pattern");
    command += std::to_string(np) + " pattern=" + pattern_spec;
  } else {
    const CommMatrix matrix = CommMatrix::parse(read_file(matrix_path));
    if (np == 0) {
      np = static_cast<std::size_t>(matrix.np());
    } else if (np != static_cast<std::size_t>(matrix.np())) {
      throw ParseError("-np disagrees with the matrix file's np header");
    }
    std::string body = matrix.serialize();
    body.erase(0, body.find('\n') + 1);  // strip the "np <N>" header line
    std::size_t lines = 0;
    for (const char c : body) lines += c == '\n' ? 1 : 0;
    command += std::to_string(np) + " matrix=" + std::to_string(lines);
    payload = std::move(body);
  }
  command += options;

  // The NODE definitions (format_query minus its MAP line).
  std::string node_lines = svc::format_query(alloc, alloc_id, 1, "lama");
  node_lines.erase(node_lines.rfind("MAP "));

  if (!exec) {
    std::fputs(node_lines.c_str(), stdout);
    std::printf("%s\n", command.c_str());
    std::fputs(payload.c_str(), stdout);
    if (stats) std::printf("STATS\n");
    return 0;
  }

  svc::MappingService service(exec_config);
  svc::ProtocolSession session(service);
  std::istringstream no_more;
  std::size_t pos = 0;
  while (pos < node_lines.size()) {
    const auto nl = node_lines.find('\n', pos);
    session.execute(node_lines.substr(pos, nl - pos), no_more);
    pos = nl == std::string::npos ? node_lines.size() : nl + 1;
  }
  std::istringstream more(payload);
  const std::string response = session.execute(command, more);
  std::fputs(response.c_str(), stdout);
  if (stats) {
    std::printf("STATS %s\n", service.stats_line().c_str());
  }
  return starts_with(response, "OK") ? 0 : 1;
}

// `lamactl offline|online|remap`: one-shot control-plane mutations. Default
// prints the protocol line, ready to pipe into a running `lamactl serve`;
// --exec runs it against an in-process service (NODE lines from --cluster
// first) through the retrying client. Exit codes: 0 OK, 1 error, 3 when the
// server still answers "ERR busy retry-after=<ms>" after retries exhausted.
int run_mutation(const std::string& verb, const std::vector<std::string>& args) {
  std::string cluster_path;
  std::string hostfile_path;
  std::string alloc_id = "a0";
  std::optional<std::size_t> node;
  std::vector<std::string> pus;
  std::string timeout_ms;
  bool exec = false;
  svc::RetryPolicy retry;
  svc::ServiceConfig exec_config;
  svc::ConnectConfig connect;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto need_value = [&] {
      if (i + 1 >= args.size()) {
        throw ParseError("option " + arg + " requires a value");
      }
      return args[++i];
    };
    if (arg == "--cluster") {
      cluster_path = need_value();
    } else if (arg == "--hostfile") {
      hostfile_path = need_value();
    } else if (arg == "--connect") {
      connect.address = need_value();
    } else if (arg == "--binary") {
      connect.binary = true;
    } else if (arg == "--id") {
      alloc_id = need_value();
    } else if (arg == "--node" && verb != "remap") {
      node = parse_size(need_value(), verb + " node index");
    } else if (arg == "--pus" && verb != "remap") {
      // Comma-separated PU indices; validated server-side against the node.
      for (const std::string& pu : split(need_value(), ',')) {
        parse_size(pu, verb + " pu index");
        pus.push_back(pu);
      }
    } else if (arg == "--timeout-ms" && verb == "remap") {
      timeout_ms = need_value();
    } else if (arg == "--exec") {
      exec = true;
    } else if (arg == "--retries") {
      retry.max_attempts = parse_size(need_value(), verb + " retries");
    } else if (arg == "--backoff-ms") {
      retry.base_ms = static_cast<std::uint32_t>(
          parse_size(need_value(), verb + " backoff-ms"));
    } else if (arg == "--max-inflight") {
      exec_config.max_inflight =
          parse_size(need_value(), verb + " max-inflight");
    } else {
      throw ParseError("unknown " + verb + " option: " + arg);
    }
  }

  std::string command;
  if (verb == "remap") {
    command = "REMAP " + alloc_id;
    if (!timeout_ms.empty()) command += " timeout=" + timeout_ms;
  } else {
    if (!node.has_value()) {
      throw ParseError("--node <index> is required for " + verb);
    }
    command = (verb == "offline" ? "OFFLINE " : "ONLINE ") + alloc_id + " " +
              std::to_string(*node);
    for (const std::string& pu : pus) command += " " + pu;
  }

  if (!connect.address.empty()) {
    // A live server already holds the allocation state, so the mutation goes
    // straight over the socket — no --cluster needed.
    svc::SocketClient socket(connect);
    svc::QueryClient client(socket.transport(), retry);
    const svc::QueryResult result = client.send(command);
    std::printf("%s\n", result.response.c_str());
    if (result.attempts > 1 || socket.reconnects() > 0) {
      std::printf("# attempts=%zu backoff-ms=%llu reconnects=%zu\n",
                  result.attempts,
                  static_cast<unsigned long long>(result.total_backoff_ms),
                  socket.reconnects());
    }
    if (result.gave_up_busy) return kExitBusy;
    return result.ok() ? 0 : 1;
  }

  if (!exec) {
    std::printf("%s\n", command.c_str());
    return 0;
  }
  if (cluster_path.empty()) {
    throw ParseError("--exec needs --cluster <file>");
  }
  const Cluster cluster = parse_cluster_file(read_file(cluster_path));
  const Allocation alloc =
      hostfile_path.empty()
          ? allocate_all(cluster)
          : parse_hostfile(cluster, read_file(hostfile_path));

  svc::MappingService service(exec_config);
  svc::ProtocolSession session(service);
  std::istringstream no_more;
  std::string node_lines = svc::format_query(alloc, alloc_id, 1, "lama");
  node_lines.erase(node_lines.rfind("MAP "));
  std::size_t pos = 0;
  while (pos < node_lines.size()) {
    const auto nl = node_lines.find('\n', pos);
    session.execute(node_lines.substr(pos, nl - pos), no_more);
    pos = nl == std::string::npos ? node_lines.size() : nl + 1;
  }
  // REMAP needs a baseline mapping to re-place.
  if (verb == "remap") {
    session.execute("MAP " + alloc_id + " 2 lama", no_more);
  }
  svc::QueryClient client(
      [&](const std::string& line) {
        std::string response = session.execute(line, no_more);
        if (!response.empty() && response.back() == '\n') response.pop_back();
        return response;
      },
      retry);
  const svc::QueryResult result = client.send(command);
  std::printf("%s\n", result.response.c_str());
  if (result.attempts > 1) {
    std::printf("# attempts=%zu backoff-ms=%llu\n", result.attempts,
                static_cast<unsigned long long>(result.total_backoff_ms));
  }
  if (result.gave_up_busy) return kExitBusy;
  return result.ok() ? 0 : 1;
}

// `lamactl inject`: replay a seeded fault schedule against an in-process
// service and report whether the resilience invariants held.
int run_inject(const std::vector<std::string>& args) {
  std::string cluster_path;
  std::string hostfile_path;
  std::uint64_t seed = 42;
  std::size_t requests = 200;
  svc::FaultMix mix;
  svc::ServiceConfig config;
  config.workers = 0;  // deterministic by default; faults are interleaved
  bool stats = false;
  std::string trace_dump;
  std::string state_dir;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto need_value = [&] {
      if (i + 1 >= args.size()) {
        throw ParseError("option " + arg + " requires a value");
      }
      return args[++i];
    };
    if (arg == "--cluster") {
      cluster_path = need_value();
    } else if (arg == "--hostfile") {
      hostfile_path = need_value();
    } else if (arg == "--seed") {
      seed = parse_size(need_value(), "inject seed");
    } else if (arg == "--requests") {
      requests = parse_size(need_value(), "inject requests");
    } else if (arg == "--node-deaths") {
      mix.node_deaths = parse_size(need_value(), "inject node-deaths");
    } else if (arg == "--node-recoveries") {
      mix.node_recoveries = parse_size(need_value(), "inject node-recoveries");
    } else if (arg == "--pu-offlines") {
      mix.pu_offlines = parse_size(need_value(), "inject pu-offlines");
    } else if (arg == "--malformed") {
      mix.malformed = parse_size(need_value(), "inject malformed");
    } else if (arg == "--corruptions") {
      mix.tree_corruptions = parse_size(need_value(), "inject corruptions");
    } else if (arg == "--stalls") {
      mix.worker_stalls = parse_size(need_value(), "inject stalls");
    } else if (arg == "--journal-fails") {
      mix.journal_write_fails = parse_size(need_value(), "inject journal-fails");
    } else if (arg == "--fsync-stalls") {
      mix.fsync_stalls = parse_size(need_value(), "inject fsync-stalls");
    } else if (arg == "--corrupt-records") {
      mix.corrupt_records = parse_size(need_value(), "inject corrupt-records");
    } else if (arg == "--recovery-kills") {
      mix.recovery_kills = parse_size(need_value(), "inject recovery-kills");
    } else if (arg == "--state-dir") {
      state_dir = need_value();
    } else if (arg == "--max-inflight") {
      config.max_inflight = parse_size(need_value(), "inject max-inflight");
    } else if (arg == "--timeout-ms") {
      config.default_timeout_ms = static_cast<std::uint32_t>(
          parse_size(need_value(), "inject timeout-ms"));
    } else if (arg == "--flight-recorder") {
      config.flight_recorder =
          parse_size(need_value(), "inject flight-recorder");
    } else if (arg == "--trace-sample") {
      config.trace_sample = static_cast<std::uint32_t>(
          parse_size(need_value(), "inject trace-sample"));
    } else if (arg == "--trace-dump") {
      trace_dump = need_value();
    } else if (arg == "--stats") {
      stats = true;
    } else {
      throw ParseError("unknown inject option: " + arg);
    }
  }
  if (cluster_path.empty()) throw ParseError("--cluster <file> is required");

  const Cluster cluster = parse_cluster_file(read_file(cluster_path));
  const Allocation alloc =
      hostfile_path.empty()
          ? allocate_all(cluster)
          : parse_hostfile(cluster, read_file(hostfile_path));
  const svc::FaultPlan plan =
      svc::FaultPlan::random(seed, requests, mix, alloc);
  svc::MappingService service(config);
  install_trace_dump(service, trace_dump, /*cap=*/0);
  // With --state-dir the injector's session journals its mutations, which
  // the durability fault classes (--journal-fails, --fsync-stalls,
  // --corrupt-records, --recovery-kills) act on.
  std::unique_ptr<dur::StateStore> store;
  if (!state_dir.empty()) {
    dur::DurConfig dur_config;
    dur_config.dir = state_dir;
    store = std::make_unique<dur::StateStore>(dur_config);
    service.attach_durability(store.get());
  }
  const svc::InjectionOutcome outcome =
      svc::run_fault_injection(service, alloc, plan);
  std::printf("seed %llu: %s", static_cast<unsigned long long>(seed),
              outcome.report().c_str());
  if (stats) {
    std::printf("STATS %s\n", service.stats_line().c_str());
  }
  return outcome.passed() ? 0 : 2;
}

// Shared by the observability subcommands' --exec mode: a traced in-process
// service warmed by `requests` lama MAPs (sampling 1/1 so every trace is
// retained), optionally ending with a corrupted-tree request so the flight
// recorder holds a real failure trace.
std::unique_ptr<svc::MappingService> run_obs_workload(
    const std::string& cluster_path, const std::string& hostfile_path,
    std::size_t requests, bool corrupt) {
  if (cluster_path.empty()) {
    throw ParseError("--exec needs --cluster <file>");
  }
  const Cluster cluster = parse_cluster_file(read_file(cluster_path));
  const Allocation alloc =
      hostfile_path.empty()
          ? allocate_all(cluster)
          : parse_hostfile(cluster, read_file(hostfile_path));
  svc::ServiceConfig config;
  config.workers = 0;
  config.flight_recorder = 32;
  config.trace_sample = 1;
  auto service = std::make_unique<svc::MappingService>(config);
  const svc::InternedAlloc interned = service->intern(alloc);
  svc::MapRequest request;
  request.alloc = interned;
  request.opts.allow_oversubscribe = true;
  for (std::size_t i = 0; i < requests; ++i) {
    request.opts.np = 1 + i % 4;
    service->map(request);
  }
  if (corrupt) {
    // Poison every cached tree, then hit the cache: the integrity check
    // rejects it and the request degrades — a guaranteed failure trace.
    service->corrupt_cached_trees_for_testing();
    request.opts.np = 2;
    service->map(request);
  }
  return service;
}

// `lamactl stats [--json]`: print the STATS protocol line for piping into a
// server; with --exec, run a small workload in process and print its stats.
int run_stats(const std::vector<std::string>& args) {
  bool json = false, exec = false;
  std::string cluster_path, hostfile_path;
  std::size_t requests = 16;
  svc::ConnectConfig connect;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto need_value = [&] {
      if (i + 1 >= args.size()) {
        throw ParseError("option " + arg + " requires a value");
      }
      return args[++i];
    };
    if (arg == "--json") {
      json = true;
    } else if (arg == "--exec") {
      exec = true;
    } else if (arg == "--connect") {
      connect.address = need_value();
    } else if (arg == "--binary") {
      connect.binary = true;
    } else if (arg == "--cluster") {
      cluster_path = need_value();
    } else if (arg == "--hostfile") {
      hostfile_path = need_value();
    } else if (arg == "--requests") {
      requests = parse_size(need_value(), "stats requests");
    } else {
      throw ParseError("unknown stats option: " + arg);
    }
  }
  if (!connect.address.empty()) {
    svc::SocketClient socket(connect);
    bool ok = true;
    for (const std::string& line :
         socket.request(json ? "STATS json" : "STATS")) {
      std::printf("%s\n", line.c_str());
      if (starts_with(line, "ERR")) ok = false;
    }
    return ok ? 0 : 1;
  }
  if (!exec) {
    std::printf(json ? "STATS json\n" : "STATS\n");
    return 0;
  }
  const auto service =
      run_obs_workload(cluster_path, hostfile_path, requests, false);
  if (json) {
    std::printf("%s\n", service->metrics_snapshot().to_json().c_str());
  } else {
    std::printf("STATS %s\n", service->stats_line().c_str());
  }
  return 0;
}

// `lamactl metrics [--json]`: print the METRICS protocol line for piping;
// with --exec, run a workload and print the Prometheus (or JSON) exposition.
int run_metrics(const std::vector<std::string>& args) {
  bool json = false, exec = false;
  std::string cluster_path, hostfile_path;
  std::size_t requests = 16;
  svc::ConnectConfig connect;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto need_value = [&] {
      if (i + 1 >= args.size()) {
        throw ParseError("option " + arg + " requires a value");
      }
      return args[++i];
    };
    if (arg == "--json") {
      json = true;
    } else if (arg == "--exec") {
      exec = true;
    } else if (arg == "--connect") {
      connect.address = need_value();
    } else if (arg == "--binary") {
      connect.binary = true;
    } else if (arg == "--cluster") {
      cluster_path = need_value();
    } else if (arg == "--hostfile") {
      hostfile_path = need_value();
    } else if (arg == "--requests") {
      requests = parse_size(need_value(), "metrics requests");
    } else {
      throw ParseError("unknown metrics option: " + arg);
    }
  }
  if (!connect.address.empty()) {
    svc::SocketClient socket(connect);
    bool ok = true;
    for (const std::string& line :
         socket.request(json ? "METRICS json" : "METRICS")) {
      std::printf("%s\n", line.c_str());
      if (starts_with(line, "ERR")) ok = false;
    }
    return ok ? 0 : 1;
  }
  if (!exec) {
    std::printf(json ? "METRICS json\n" : "METRICS\n");
    return 0;
  }
  const auto service =
      run_obs_workload(cluster_path, hostfile_path, requests, false);
  if (json) {
    std::printf("%s\n", service->metrics_snapshot().to_json().c_str());
  } else {
    std::printf("%s", service->metrics_snapshot().to_prometheus().c_str());
  }
  return 0;
}

// `lamactl trace [<id>|last|errors]`: print the TRACE protocol line for
// piping; with --exec, run a workload that includes one corrupted-tree
// failure and print (or --dump) the selected trace as Chrome trace-event
// JSON, loadable in chrome://tracing or Perfetto.
int run_trace(const std::vector<std::string>& args) {
  std::string selector = "last";
  bool exec = false;
  std::string cluster_path, hostfile_path, dump_dir;
  std::size_t requests = 16;
  svc::ConnectConfig connect;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto need_value = [&] {
      if (i + 1 >= args.size()) {
        throw ParseError("option " + arg + " requires a value");
      }
      return args[++i];
    };
    if (arg == "--exec") {
      exec = true;
    } else if (arg == "--connect") {
      connect.address = need_value();
    } else if (arg == "--binary") {
      connect.binary = true;
    } else if (arg == "--cluster") {
      cluster_path = need_value();
    } else if (arg == "--hostfile") {
      hostfile_path = need_value();
    } else if (arg == "--requests") {
      requests = parse_size(need_value(), "trace requests");
    } else if (arg == "--dump") {
      dump_dir = need_value();
    } else if (!arg.empty() && arg[0] != '-') {
      selector = arg;
    } else {
      throw ParseError("unknown trace option: " + arg);
    }
  }
  if (!connect.address.empty()) {
    svc::SocketClient socket(connect);
    bool ok = true;
    for (const std::string& line : socket.request("TRACE " + selector)) {
      std::printf("%s\n", line.c_str());
      if (starts_with(line, "ERR")) ok = false;
    }
    return ok ? 0 : 1;
  }
  if (!exec) {
    std::printf("TRACE %s\n", selector.c_str());
    return 0;
  }
  const auto service =
      run_obs_workload(cluster_path, hostfile_path, requests, true);
  const obs::FlightRecorder& recorder = service->tracer()->recorder();
  std::optional<obs::Trace> trace;
  if (selector == "last") {
    trace = recorder.last();
  } else if (selector == "errors") {
    trace = recorder.last_failure();
  } else {
    trace = recorder.by_id(parse_size(selector, "trace id"));
  }
  if (!trace.has_value()) {
    throw ParseError("no retained trace for '" + selector + "'");
  }
  const std::string chrome = obs::to_chrome_json(*trace);
  if (!dump_dir.empty()) {
    const std::string path =
        dump_dir + "/trace-" + std::to_string(trace->id) + ".json";
    std::ofstream out(path);
    if (!out) throw ParseError("cannot write trace dump: " + path);
    out << chrome << "\n";
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::printf("%s\n", chrome.c_str());
  }
  return 0;
}

// ---- lamactl top -----------------------------------------------------------

// One parsed Prometheus text sample: name{labels} value. The exemplar
// suffix (" # {...} v"), if any, is not needed by the dashboard — strtod
// stops at the space after the value.
struct PromSample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0.0;

  [[nodiscard]] std::string label(const std::string& key) const {
    for (const auto& [k, v] : labels) {
      if (k == key) return v;
    }
    return "";
  }
};

// Parses one exposition line; returns false for comments, blanks, and
// anything that does not look like a sample (the dashboard just skips those).
bool parse_prom_line(const std::string& line, PromSample& out) {
  if (line.empty() || line[0] == '#') return false;
  out.labels.clear();
  std::size_t pos = line.find_first_of("{ ");
  if (pos == std::string::npos || pos == 0) return false;
  out.name = line.substr(0, pos);
  if (line[pos] == '{') {
    ++pos;
    while (pos < line.size() && line[pos] != '}') {
      const std::size_t eq = line.find('=', pos);
      if (eq == std::string::npos || eq + 1 >= line.size() ||
          line[eq + 1] != '"') {
        return false;
      }
      std::string key = line.substr(pos, eq - pos);
      std::string value;
      std::size_t v = eq + 2;
      while (v < line.size() && line[v] != '"') {
        if (line[v] == '\\' && v + 1 < line.size()) ++v;
        value += line[v++];
      }
      if (v >= line.size()) return false;
      out.labels.emplace_back(std::move(key), std::move(value));
      pos = v + 1;
      if (pos < line.size() && line[pos] == ',') ++pos;
    }
    if (pos >= line.size()) return false;
    ++pos;  // '}'
  }
  while (pos < line.size() && line[pos] == ' ') ++pos;
  if (pos >= line.size()) return false;
  const std::string rest = line.substr(pos);
  if (rest == "+Inf") {
    out.value = std::numeric_limits<double>::infinity();
    return true;
  }
  char* end = nullptr;
  out.value = std::strtod(rest.c_str(), &end);
  return end != rest.c_str();
}

// The per-frame dashboard model, rebuilt from each METRICS push.
struct TopModel {
  std::map<std::string, double> scalar;  // label-less samples by name

  struct StageHist {
    std::vector<std::pair<double, double>> buckets;  // (le ns, cumulative)
    double count = 0.0;
    double sum = 0.0;
  };
  std::map<std::string, StageHist> stages;

  struct SloRow {
    double objective_ns = 0.0;
    double good = 0.0;
    double bad = 0.0;
    double fast_burn = 0.0;
    double slow_burn = 0.0;
  };
  std::map<std::string, SloRow> slo;

  void ingest(const PromSample& s) {
    if (s.name == "lama_stage_latency_ns_bucket") {
      StageHist& h = stages[s.label("stage")];
      const std::string le = s.label("le");
      const double bound = le == "+Inf"
                               ? std::numeric_limits<double>::infinity()
                               : std::strtod(le.c_str(), nullptr);
      h.buckets.emplace_back(bound, s.value);
      return;
    }
    if (s.name == "lama_stage_latency_ns_count") {
      stages[s.label("stage")].count = s.value;
      return;
    }
    if (s.name == "lama_stage_latency_ns_sum") {
      stages[s.label("stage")].sum = s.value;
      return;
    }
    if (s.name == "lama_slo_objective_ns") {
      slo[s.label("verb")].objective_ns = s.value;
      return;
    }
    if (s.name == "lama_slo_good_total") {
      slo[s.label("verb")].good = s.value;
      return;
    }
    if (s.name == "lama_slo_bad_total") {
      slo[s.label("verb")].bad = s.value;
      return;
    }
    if (s.name == "lama_slo_burn_rate") {
      SloRow& row = slo[s.label("verb")];
      if (s.label("window") == "slow") {
        row.slow_burn = s.value;
      } else {
        row.fast_burn = s.value;
      }
      return;
    }
    if (s.labels.empty()) scalar[s.name] = s.value;
  }

  [[nodiscard]] double get(const std::string& name) const {
    const auto it = scalar.find(name);
    return it == scalar.end() ? 0.0 : it->second;
  }

  // A stage's quantile (q in [0, 1]) in ns; 0 before the stage first runs.
  [[nodiscard]] double quantile(const std::string& stage, double q) const {
    const auto it = stages.find(stage);
    return it == stages.end() ? 0.0
                              : obs::bucket_quantile(it->second.buckets, q);
  }
};

std::string format_ns(double ns) {
  char buf[32];
  if (ns >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fs", ns / 1e9);
  } else if (ns >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fms", ns / 1e6);
  } else if (ns >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fus", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fns", ns);
  }
  return buf;
}

std::string format_bytes(double bytes) {
  char buf[32];
  if (bytes >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fGB", bytes / 1e9);
  } else if (bytes >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1fMB", bytes / 1e6);
  } else if (bytes >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fkB", bytes / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fB", bytes);
  }
  return buf;
}

std::string percent_of(double part, double whole) {
  char buf[32];
  if (whole <= 0.0) return "-";
  std::snprintf(buf, sizeof(buf), "%.1f%%", 100.0 * part / whole);
  return buf;
}

// Renders one dashboard frame. `qps` < 0 means "not yet known" (first frame).
std::string render_top_frame(const TopModel& m, const std::string& where,
                             std::size_t frame, double qps,
                             const std::deque<std::string>& events) {
  std::ostringstream out;
  char line[256];

  std::snprintf(line, sizeof(line), "lama top — %s   uptime %.1fs   frame %zu\n",
                where.c_str(), m.get("lama_uptime_seconds"), frame);
  out << line;

  char qps_text[32] = "-";
  if (qps >= 0.0) std::snprintf(qps_text, sizeof(qps_text), "%.1f", qps);
  std::snprintf(line, sizeof(line),
                "reqs     %.0f total, %.0f ok, %.0f err, %.0f shed, "
                "%.0f inflight   qps %s\n",
                m.get("lama_requests_total"),
                m.get("lama_completed_total") - m.get("lama_errors_total"),
                m.get("lama_errors_total"), m.get("lama_shed_total"),
                m.get("lama_inflight_requests"), qps_text);
  out << line;

  // The request root's latency: a protocol line from parse to reply.
  std::snprintf(line, sizeof(line),
                "latency  p50 %s   p90 %s   p99 %s   tail captured %.0f "
                "(threshold %s)\n",
                format_ns(m.quantile("request", 0.5)).c_str(),
                format_ns(m.quantile("request", 0.9)).c_str(),
                format_ns(m.quantile("request", 0.99)).c_str(),
                m.get("lama_traces_tail_total"),
                format_ns(m.get("lama_tail_threshold_ns")).c_str());
  out << line;

  const double hits = m.get("lama_cache_hits_total");
  const double misses = m.get("lama_cache_misses_total");
  const double plan_hits = m.get("lama_plan_cache_hits_total");
  const double plan_misses = m.get("lama_plan_cache_misses_total");
  const double opt_hits = m.get("lama_opt_hits_total");
  const double opt_misses = m.get("lama_opt_misses_total");
  std::snprintf(line, sizeof(line),
                "cache    tree %s hit (%.0f/%.0f)   plan %s   opt %s   "
                "%.0f trees resident\n",
                percent_of(hits, hits + misses).c_str(), hits, hits + misses,
                percent_of(plan_hits, plan_hits + plan_misses).c_str(),
                percent_of(opt_hits, opt_hits + opt_misses).c_str(),
                m.get("lama_cache_trees"));
  out << line;

  std::snprintf(line, sizeof(line),
                "net      %.0f conns   %.0f shed   %.0f frame errs   "
                "in %s   out %s\n",
                m.get("lama_net_active_connections"),
                m.get("lama_net_shed_total"),
                m.get("lama_net_frame_errors_total"),
                format_bytes(m.get("lama_net_bytes_in_total")).c_str(),
                format_bytes(m.get("lama_net_bytes_out_total")).c_str());
  out << line;

  std::snprintf(line, sizeof(line),
                "dur      journal lag %.0f   fsyncs %.0f   errors %.0f   "
                "snapshots %.0f\n",
                m.get("lama_dur_journal_lag"),
                m.get("lama_dur_journal_fsyncs_total"),
                m.get("lama_dur_journal_errors_total"),
                m.get("lama_dur_snapshots_total"));
  out << line;

  if (!m.slo.empty()) {
    out << "slo      verb       objective      good       bad  "
           "burn-fast  burn-slow\n";
    for (const auto& [verb, row] : m.slo) {
      std::snprintf(line, sizeof(line),
                    "         %-9s %9s %9.0f %9.0f %10.2f %10.2f%s\n",
                    verb.c_str(), format_ns(row.objective_ns).c_str(),
                    row.good, row.bad, row.fast_burn, row.slow_burn,
                    row.fast_burn > 1.0 ? "  BURNING" : "");
      out << line;
    }
  }

  if (!m.stages.empty()) {
    out << "stage               count       p50       p99       mean\n";
    std::vector<std::pair<std::string, const TopModel::StageHist*>> rows;
    rows.reserve(m.stages.size());
    for (const auto& [name, hist] : m.stages) {
      rows.emplace_back(name, &hist);
    }
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.second->sum > b.second->sum;
    });
    const std::size_t shown = std::min<std::size_t>(rows.size(), 12);
    for (std::size_t i = 0; i < shown; ++i) {
      const TopModel::StageHist& h = *rows[i].second;
      std::snprintf(line, sizeof(line), "  %-15s %9.0f %9s %9s %10s\n",
                    rows[i].first.c_str(), h.count,
                    format_ns(obs::bucket_quantile(h.buckets, 0.5)).c_str(),
                    format_ns(obs::bucket_quantile(h.buckets, 0.99)).c_str(),
                    format_ns(h.count > 0 ? h.sum / h.count : 0.0).c_str());
      out << line;
    }
    if (rows.size() > shown) {
      std::snprintf(line, sizeof(line), "  ... %zu more stages\n",
                    rows.size() - shown);
      out << line;
    }
  }

  if (!events.empty()) {
    out << "events\n";
    for (const std::string& event : events) {
      out << "  " << event << "\n";
    }
  }
  return out.str();
}

// `lamactl top`: a live terminal dashboard over the WATCH verb. Subscribes
// with "WATCH <interval> metrics" and re-renders on every pushed Prometheus
// snapshot; EVENT lines (failures, SLO breaches) land in a rolling log.
// --once renders a single frame from one METRICS request and exits;
// --once --json prints the raw metrics-snapshot JSON for scripts.
int run_top(const std::vector<std::string>& args) {
  svc::ConnectConfig connect;
  std::uint32_t interval_ms = 1000;
  bool once = false;
  bool json = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto need_value = [&] {
      if (i + 1 >= args.size()) {
        throw ParseError("option " + arg + " requires a value");
      }
      return args[++i];
    };
    if (arg == "--connect") {
      connect.address = need_value();
    } else if (arg == "--binary") {
      connect.binary = true;
    } else if (arg == "--interval-ms") {
      interval_ms = static_cast<std::uint32_t>(
          parse_size(need_value(), "top interval-ms"));
      if (interval_ms == 0) interval_ms = 1;
    } else if (arg == "--once") {
      once = true;
    } else if (arg == "--json") {
      json = true;
    } else {
      throw ParseError("unknown top option: " + arg);
    }
  }
  if (connect.address.empty()) {
    throw ParseError("top needs --connect <addr> (a serve --listen server)");
  }
  if (json && !once) {
    throw ParseError("--json requires --once (one snapshot for scripts)");
  }
  svc::SocketClient socket(connect);

  if (once) {
    if (json) {
      // One-shot machine-readable snapshot: the full metrics JSON.
      const std::vector<std::string> lines = socket.request("STATS json");
      if (lines.empty() || starts_with(lines[0], "ERR")) {
        throw ParseError(lines.empty() ? "no response" : lines[0]);
      }
      const std::string& reply = lines[0];
      std::printf("%s\n", starts_with(reply, "STATS ")
                              ? reply.c_str() + 6
                              : reply.c_str());
      return 0;
    }
    TopModel model;
    for (const std::string& line : socket.request("METRICS")) {
      if (starts_with(line, "ERR")) throw ParseError(line);
      PromSample sample;
      if (parse_prom_line(line, sample)) model.ingest(sample);
    }
    std::fputs(render_top_frame(model, connect.address, 1, -1.0, {}).c_str(),
               stdout);
    return 0;
  }

  install_shutdown_signals();
  std::size_t frame = 0;
  double last_completed = -1.0;
  auto last_time = std::chrono::steady_clock::now();
  std::deque<std::string> events;
  TopModel model;
  std::string error;
  const bool ended = socket.watch(
      "WATCH " + std::to_string(interval_ms) + " metrics",
      [&](const std::string& unit) {
        if (g_signal != 0) return false;
        // A unit is one text line or one whole binary frame (several lines).
        std::size_t start = 0;
        while (start <= unit.size()) {
          std::size_t nl = unit.find('\n', start);
          if (nl == std::string::npos) nl = unit.size();
          const std::string line = unit.substr(start, nl - start);
          start = nl + 1;
          if (line.empty() && start > unit.size()) break;
          if (starts_with(line, "EVENT ")) {
            events.push_back(line);
            while (events.size() > 6) events.pop_front();
            continue;
          }
          if (line == "# EOF") {
            // Frame complete: compute qps from the completed-counter delta,
            // then repaint (ANSI home+clear keeps it flicker-free enough).
            ++frame;
            const auto now = std::chrono::steady_clock::now();
            const double dt =
                std::chrono::duration<double>(now - last_time).count();
            const double completed = model.get("lama_completed_total");
            double qps = -1.0;
            if (last_completed >= 0.0 && dt > 0.0) {
              qps = (completed - last_completed) / dt;
            }
            last_completed = completed;
            last_time = now;
            std::fputs("\x1b[H\x1b[2J", stdout);
            std::fputs(
                render_top_frame(model, connect.address, frame, qps, events)
                    .c_str(),
                stdout);
            std::fflush(stdout);
            model = TopModel{};
            continue;
          }
          PromSample sample;
          if (parse_prom_line(line, sample)) model.ingest(sample);
        }
        return g_signal == 0;
      },
      error);
  if (!ended && g_signal == 0) {
    std::fprintf(stderr, "lamactl: watch ended: %s\n", error.c_str());
    return 1;
  }
  std::fputs("\n", stdout);
  return 0;
}

// `lamactl topology [--json]`: one-shot discovery of the machine lamactl is
// running on — the sysfs-parsed tree, counts, warnings, and the canonical
// fingerprint parity check against an equivalent synthetic description
// (auto-derived for uniform machines, or supplied with --parity). Exit 0
// when parity holds (or no description exists to compare), 1 on mismatch.
// --cpu-root/--node-root point at fixture snapshots for tests.
int run_topology(const std::vector<std::string>& args) {
  bool json = false;
  std::string parity_desc;
  SysfsPaths paths;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto need_value = [&] {
      if (i + 1 >= args.size()) {
        throw ParseError("option " + arg + " requires a value");
      }
      return args[++i];
    };
    if (arg == "--json") {
      json = true;
    } else if (arg == "--parity") {
      parity_desc = need_value();
    } else if (arg == "--cpu-root") {
      paths.cpu_root = need_value();
    } else if (arg == "--node-root") {
      paths.node_root = need_value();
    } else {
      throw ParseError("unknown topology option: " + arg);
    }
  }

  const TopologyDiscovery d = discover_topology(paths);
  const std::uint64_t fp = canonical_fingerprint(d.topology);
  const std::string parity_against =
      parity_desc.empty() ? d.synthetic_equivalent : parity_desc;
  bool parity_checked = false;
  bool parity_ok = true;
  std::uint64_t synth_fp = 0;
  std::string synth_shape;
  if (!parity_against.empty()) {
    const NodeTopology synth = NodeTopology::synthetic(parity_against);
    synth_fp = canonical_fingerprint(synth);
    synth_shape = synth.shape_string();
    parity_checked = true;
    parity_ok = synth_fp == fp;
  }

  if (json) {
    std::ostringstream out;
    out << "{\"sockets\":" << d.sockets << ",\"numa_nodes\":" << d.numa_nodes
        << ",\"cores\":" << d.cores << ",\"pus\":" << d.pus
        << ",\"offline_pus\":" << d.offline_pus
        << ",\"smt\":" << (d.smt ? "true" : "false")
        << ",\"numa_level\":" << (d.numa_level ? "true" : "false")
        << ",\"synthetic_equivalent\":\"" << d.synthetic_equivalent
        << "\",\"canonical_fingerprint\":\"" << std::hex << fp << std::dec
        << "\"";
    if (parity_checked) {
      out << ",\"parity\":{\"against\":\"" << parity_against
          << "\",\"fingerprint\":\"" << std::hex << synth_fp << std::dec
          << "\",\"match\":" << (parity_ok ? "true" : "false") << "}";
    }
    out << ",\"warnings\":[";
    for (std::size_t i = 0; i < d.warnings.size(); ++i) {
      std::string escaped;
      for (const char c : d.warnings[i]) {
        if (c == '"' || c == '\\') escaped += '\\';
        escaped += c;
      }
      out << (i == 0 ? "" : ",") << "\"" << escaped << "\"";
    }
    out << "]}";
    std::printf("%s\n", out.str().c_str());
    return parity_ok ? 0 : 1;
  }

  std::printf("%s", d.topology.render().c_str());
  std::printf(
      "discovered %zu socket(s), %zu numa node(s), %zu core(s), %zu pu(s)"
      "%s%s\n",
      d.sockets, d.numa_nodes, d.cores, d.pus, d.smt ? ", smt" : "",
      d.offline_pus > 0 ? (", " + std::to_string(d.offline_pus) +
                           " offline pu(s)").c_str()
                        : "");
  for (const std::string& warning : d.warnings) {
    std::printf("warning: %s\n", warning.c_str());
  }
  if (!d.synthetic_equivalent.empty()) {
    std::printf("synthetic equivalent: %s\n", d.synthetic_equivalent.c_str());
  }
  std::printf("canonical fingerprint: %016llx\n",
              static_cast<unsigned long long>(fp));
  if (parity_checked) {
    if (parity_ok) {
      std::printf("parity: MATCH against \"%s\"\n", parity_against.c_str());
    } else {
      std::printf("parity: MISMATCH against \"%s\"\n", parity_against.c_str());
      std::printf("  discovered %s (fingerprint %016llx)\n",
                  d.topology.shape_string().c_str(),
                  static_cast<unsigned long long>(fp));
      std::printf("  synthetic  %s (fingerprint %016llx)\n",
                  synth_shape.c_str(),
                  static_cast<unsigned long long>(synth_fp));
    }
  }
  return parity_ok ? 0 : 1;
}

int run(const std::vector<std::string>& args) {
  std::string cluster_path;
  std::string hostfile_path;
  std::string pattern_spec;
  bool show_topo = false;
  std::vector<std::string> mpirun_args;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto need_value = [&] {
      if (i + 1 >= args.size()) {
        throw ParseError("option " + arg + " requires a value");
      }
      return args[++i];
    };
    if (arg == "--cluster") {
      cluster_path = need_value();
    } else if (arg == "--hostfile") {
      hostfile_path = need_value();
    } else if (arg == "--pattern") {
      pattern_spec = need_value();
    } else if (arg == "--topo") {
      show_topo = true;
    } else {
      mpirun_args.push_back(arg);
    }
  }
  if (cluster_path.empty()) {
    throw ParseError("--cluster <file> is required");
  }

  const Cluster cluster = parse_cluster_file(read_file(cluster_path));
  if (show_topo) {
    for (std::size_t i = 0; i < cluster.num_nodes(); ++i) {
      std::printf("%s", cluster.node(i).topo.render().c_str());
    }
    return 0;
  }

  const Allocation alloc =
      hostfile_path.empty()
          ? allocate_all(cluster)
          : parse_hostfile(cluster, read_file(hostfile_path));

  const PlacementSpec spec = parse_mpirun_options(mpirun_args);
  LaunchPlan plan = plan_job(alloc, JobSpec{}, spec);
  plan.launch(alloc);
  std::printf("CLI level %d, %zu processes on %zu nodes\n", spec.level,
              plan.procs().size(), alloc.num_nodes());
  std::printf("%s", plan.report_bindings(alloc).c_str());
  if (plan.mapping().pu_oversubscribed) {
    std::printf("warning: processing units are oversubscribed\n");
  }
  if (plan.mapping().slot_oversubscribed) {
    std::printf("warning: scheduler slots are oversubscribed\n");
  }

  if (!pattern_spec.empty()) {
    const TrafficPattern pattern = make_named_pattern(
        pattern_spec, static_cast<int>(plan.procs().size()));
    const CostReport r = evaluate_mapping(alloc, plan.mapping(), pattern,
                                          DistanceModel::commodity());
    TextTable table({"pattern", "total ms", "max-rank ms", "inter-node msgs",
                     "max NIC MB"});
    table.add_row({pattern.name, TextTable::cell(r.total_ns / 1e6, 3),
                   TextTable::cell(r.max_rank_ns / 1e6, 3),
                   TextTable::cell(r.inter_node_messages),
                   TextTable::cell(
                       static_cast<double>(r.max_nic_bytes) / 1e6, 2)});
    std::printf("\n%s", table.to_string().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (!args.empty() && args[0] == "serve") {
      return run_serve({args.begin() + 1, args.end()});
    }
    if (!args.empty() && args[0] == "query") {
      return run_query({args.begin() + 1, args.end()});
    }
    if (!args.empty() && args[0] == "mapbatch") {
      return run_mapbatch({args.begin() + 1, args.end()});
    }
    if (!args.empty() && args[0] == "optimize") {
      return run_optimize({args.begin() + 1, args.end()});
    }
    if (!args.empty() &&
        (args[0] == "offline" || args[0] == "online" || args[0] == "remap")) {
      return run_mutation(args[0], {args.begin() + 1, args.end()});
    }
    if (!args.empty() && args[0] == "inject") {
      return run_inject({args.begin() + 1, args.end()});
    }
    if (!args.empty() && args[0] == "stats") {
      return run_stats({args.begin() + 1, args.end()});
    }
    if (!args.empty() && args[0] == "metrics") {
      return run_metrics({args.begin() + 1, args.end()});
    }
    if (!args.empty() && args[0] == "trace") {
      return run_trace({args.begin() + 1, args.end()});
    }
    if (!args.empty() && args[0] == "top") {
      return run_top({args.begin() + 1, args.end()});
    }
    if (!args.empty() && args[0] == "topology") {
      return run_topology({args.begin() + 1, args.end()});
    }
    return run(args);
  } catch (const lama::Error& e) {
    std::fprintf(stderr, "lamactl: %s\n", e.what());
    std::fprintf(
        stderr,
        "usage: lamactl --cluster <file> [--hostfile <file>] [--topo]\n"
        "               [mpirun options: -np N, --map-by lama:<layout>,\n"
        "                --bind-to <level>, --by-*, --npernode N, ...]\n"
        "               [--pattern <name>[:<bytes>]]\n"
        "       lamactl serve [--workers N] [--cache-shards N] [--capacity N]\n"
        "               [--max-queue N] [--max-inflight N] [--timeout-ms N]\n"
        "               [--retry-after-ms N] [--no-verify] [--stats]\n"
        "               [--flight-recorder N] [--trace-sample N]\n"
        "               [--trace-seed N] [--trace-dump <dir>]\n"
        "               [--trace-dump-cap N] [--no-tail]\n"
        "               [--tail-floor-ns N]  # adaptive tail-latency capture\n"
        "               [--slo verb=dur[@pct],...]  # e.g. query=2ms@0.999\n"
        "               [--state-dir <dir> [--snapshot-every N]\n"
        "                [--fsync-every N] [--no-prewarm] | --no-persist]\n"
        "               [--listen tcp:<host>:<port>|unix:<path>\n"
        "                [--max-connections N] [--shards N]\n"
        "                [--discover-topology] [--no-affinity]]\n"
        "               # epoll socket server; text and binary wire framings\n"
        "               # auto-detected per conn; --shards N runs N epoll\n"
        "               # loops behind one SO_REUSEPORT port (TCP, global\n"
        "               # connection cap); --discover-topology parses sysfs\n"
        "               # and LAMA maps the shard threads onto the machine\n"
        "               # --state-dir journals mutations and restores them\n"
        "               # on restart (all shards share one session and one\n"
        "               # journal); SIGTERM/SIGINT drain\n"
        "       lamactl query --cluster <file> [--hostfile <file>] -np N\n"
        "               [--map-by <spec>] [--bind-to <level>] [--id <name>]\n"
        "               [--npernode N] [--timeout-ms N] [--stats]\n"
        "               [--exec [--retries N] [--backoff-ms N]\n"
        "                [--max-inflight N]]  # run in-process with retries\n"
        "               [--connect <addr> [--binary]]  # against a --listen\n"
        "               # server, reconnecting with capped backoff\n"
        "       lamactl mapbatch --cluster <file> -np N[,N...]\n"
        "               [--map-by <spec>] [--bind-to <level>] [--npernode N]\n"
        "               [--timeout-ms N] [--id <name>]\n"
        "               [--stats] [--exec [--retries N] [--backoff-ms N]\n"
        "                [--max-inflight N]]  # one MAPBATCH, a job per np\n"
        "               [--connect <addr> [--binary]]\n"
        "       lamactl optimize --cluster <file> [--hostfile <file>]\n"
        "               (-np N --pattern <name>[:<bytes>] | --matrix <file>)\n"
        "               [--budget N] [--passes N] [--timeout-ms N]\n"
        "               [--threads N] [--id <name>] [--stats]\n"
        "               [--exec [--workers N]]  # communication-aware search\n"
        "       lamactl offline|online --id <name> --node N [--pus N,N...]\n"
        "               [--exec --cluster <file> [--hostfile <file>]\n"
        "                [--retries N] [--backoff-ms N] [--max-inflight N]]\n"
        "       lamactl remap [--id <name>] [--timeout-ms N] [--exec ...]\n"
        "               # one-shot verbs; print the protocol line, --exec it\n"
        "               # with retries (exit 3 = still busy after retries),\n"
        "               # or --connect <addr> [--binary] a running server\n"
        "       lamactl inject --cluster <file> [--seed N] [--requests N]\n"
        "               [--node-deaths N] [--node-recoveries N]\n"
        "               [--pu-offlines N] [--malformed N] [--corruptions N]\n"
        "               [--stalls N] [--journal-fails N] [--fsync-stalls N]\n"
        "               [--corrupt-records N] [--recovery-kills N]\n"
        "               [--state-dir <dir>] [--max-inflight N]\n"
        "               [--timeout-ms N] [--flight-recorder N]\n"
        "               [--trace-sample N] [--trace-dump <dir>]\n"
        "               [--stats]          # seeded fault-injection replay\n"
        "       lamactl stats [--json]     # print the STATS protocol line\n"
        "       lamactl metrics [--json]   # print the METRICS protocol line\n"
        "       lamactl trace [<id>|last|errors]  # print the TRACE line\n"
        "               (each: --connect <addr> [--binary] queries a live\n"
        "                server; --exec --cluster <file> [--hostfile <file>]\n"
        "                [--requests N] runs a traced in-process workload;\n"
        "                trace --exec adds [--dump <dir>] and ends with a\n"
        "                corrupted-tree failure so a failure trace exists)\n"
        "       lamactl top --connect <addr> [--binary] [--interval-ms N]\n"
        "               [--once [--json]]  # live dashboard over the WATCH\n"
        "               # verb: per-verb SLO burn, stage latency heatmap,\n"
        "               # qps, cache hit ratios; --once --json for scripts\n"
        "       lamactl topology [--json] [--parity <synthetic-desc>]\n"
        "               [--cpu-root <dir>] [--node-root <dir>]\n"
        "               # discover this machine from sysfs: tree, counts,\n"
        "               # warnings, canonical-fingerprint parity vs an\n"
        "               # equivalent synthetic description (exit 1 on\n"
        "               # mismatch); roots override for fixture snapshots\n");
    return 1;
  }
}
