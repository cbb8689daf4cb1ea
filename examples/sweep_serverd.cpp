// The scenario-sweep service as a long-lived network daemon: an epoll
// loop accepting JSONL connections, per-connection request pipelining
// (responses strictly in request order per connection; different
// connections compute in parallel and identical in-flight grids dedupe
// to one compute), bounded per-connection write queues with
// backpressure-then-drop for slow readers, and a SIGINT/SIGTERM graceful
// drain that finishes every request already received, flushes the
// responses, and spills the table cache to --cache-dir exactly like the
// stdin server's shutdown does.
//
// The wire protocol is the stdin sweep_server protocol, byte for byte
// (both front ends run service::JsonlSession): connect with net::Client,
// sweep_client, or plain `nc HOST PORT` and type request lines.
//
// Exit codes: 0 after a graceful drain, 2 on usage errors, 1 on fatal
// runtime errors (bind failure, epoll breakage).

#include <climits>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>

#include "resilience/net/server.hpp"
#include "resilience/util/atomic_file.hpp"
#include "resilience/util/cli.hpp"
#include "resilience/util/thread_pool.hpp"

namespace rn = resilience::net;
namespace rs = resilience::service;
namespace ru = resilience::util;

namespace {

rn::NetServer* g_server = nullptr;

/// Async-signal-safe: NetServer::stop() raises the loop's interrupt.
void handle_signal(int) {
  if (g_server != nullptr) {
    g_server->stop();
  }
}

}  // namespace

int main(int argc, char** argv) {
  ru::CliParser cli("sweep_serverd",
                    "network daemon for scenario sweeps: JSONL over TCP with "
                    "pipelining, backpressure and a graceful drain");
  cli.add_flag("host", "127.0.0.1", "address to bind");
  cli.add_flag("port", "0", "TCP port (0 = kernel-assigned ephemeral port)");
  cli.add_flag("port-file", "",
               "write the bound port to this file once listening (how "
               "scripts find an ephemeral port)");
  cli.add_flag("threads", "0", "sweep pool threads (0 = shared global pool)");
  cli.add_flag("request-workers", "0",
               "threads executing request sessions (0 = auto); distinct "
               "from the sweep pool");
  cli.add_flag("cache-capacity", "64", "LRU table-cache capacity (0 = no cache)");
  cli.add_flag("cache-dir", "",
               "spill evicted/shutdown cache entries to this directory and "
               "lazily reload them (empty = no persistence)");
  cli.add_flag("max-conns", "256",
               "concurrent connection limit; extra clients get one error "
               "line and a close (0 = unlimited)");
  cli.add_flag("write-buf-limit", std::to_string(16 << 20),
               "outbound bytes buffered per connection before the client is "
               "dropped as too slow; reading pauses at half this "
               "(0 = unlimited)");
  cli.add_flag("max-line-bytes", std::to_string(4 << 20),
               "longest accepted request line (0 = unlimited)");
  cli.add_flag("max-pipeline-depth", "256",
               "unprocessed pipelined requests per connection before the "
               "server stops reading that socket (0 = unlimited)");
  cli.add_flag("drain-timeout-ms", "30000",
               "graceful-drain deadline after SIGINT/SIGTERM; busy "
               "connections are force-closed past it (0 = wait forever)");
  cli.add_flag("default-deadline-ms", "0",
               "compute deadline for requests that carry no deadline_ms of "
               "their own; past it the request answers a deadline error "
               "line (0 = unbounded); also bounds queue wait");
  cli.add_flag("max-queue-cost", "0",
               "admission budget in predicted compute units over all "
               "waiting requests; past it new scenario requests answer a "
               "retriable 'overloaded' error (0 = unlimited)");
  cli.add_flag("max-queue-depth", "0",
               "companion bound on waiting scenario requests (0 = "
               "unlimited)");
  cli.add_flag("sim-max-runs", "0",
               "hard cap on a simulate request's sim.max_runs; over-cap "
               "requests answer an error line before any compute (0 = "
               "uncapped)");
  if (!cli.parse(argc, argv)) {
    return 2;  // usage (also --help; CliParser does not distinguish)
  }

  // Negative sizes would wrap to SIZE_MAX (and a negative drain deadline
  // would silently mean "wait forever"); checked_int fails loudly on
  // those AND on non-numeric text std::stoll would half-accept.
  const auto port = cli.checked_int("port", 0, 65535);
  const auto threads = cli.checked_int("threads", 0);
  const auto workers = cli.checked_int("request-workers", 0);
  const auto capacity = cli.checked_int("cache-capacity", 0);
  const auto max_conns = cli.checked_int("max-conns", 0);
  const auto write_buf = cli.checked_int("write-buf-limit", 0);
  const auto max_line = cli.checked_int("max-line-bytes", 0);
  const auto depth = cli.checked_int("max-pipeline-depth", 0);
  const auto drain_ms = cli.checked_int("drain-timeout-ms", 0, INT_MAX);
  const auto deadline_ms = cli.checked_int("default-deadline-ms", 0, INT_MAX);
  const auto queue_cost = cli.checked_double("max-queue-cost", 0.0, 1e18);
  const auto queue_depth = cli.checked_int("max-queue-depth", 0);
  const auto sim_max_runs = cli.checked_uint64("sim-max-runs");
  if (!port || !threads || !workers || !capacity || !max_conns ||
      !write_buf || !max_line || !depth || !drain_ms || !deadline_ms ||
      !queue_cost || !queue_depth || !sim_max_runs) {
    return 2;
  }

  std::unique_ptr<ru::ThreadPool> pool;
  rn::NetServerOptions options;
  options.host = cli.get_string("host");
  options.port = static_cast<std::uint16_t>(*port);
  options.max_connections = static_cast<std::size_t>(*max_conns);
  options.write_buffer_limit = static_cast<std::size_t>(*write_buf);
  options.max_line_bytes = static_cast<std::size_t>(*max_line);
  options.max_pipeline_depth = static_cast<std::size_t>(*depth);
  options.request_workers = static_cast<std::size_t>(*workers);
  options.drain_timeout_ms = static_cast<int>(*drain_ms);
  options.default_deadline_ms = static_cast<int>(*deadline_ms);
  options.max_queue_cost = *queue_cost;
  options.max_queue_depth = static_cast<std::size_t>(*queue_depth);
  options.sim_max_runs = *sim_max_runs;
  options.service.cache_capacity = static_cast<std::size_t>(*capacity);
  options.service.cache_dir = cli.get_string("cache-dir");
  if (*threads > 0) {
    pool =
        std::make_unique<ru::ThreadPool>(static_cast<std::size_t>(*threads));
    options.service.sweep.pool = pool.get();
  }

  try {
    rn::NetServer server(std::move(options));
    g_server = &server;
    struct sigaction action {};
    action.sa_handler = handle_signal;
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);

    std::fprintf(stderr, "sweep_serverd: listening on %s:%u\n",
                 server.options().host.c_str(), server.port());
    const std::string port_file = cli.get_string("port-file");
    if (!port_file.empty()) {
      // Atomic: pollers (tests, sweep_router shard discovery) race this
      // write and must never read a partial port.
      std::string error;
      if (!ru::write_file_atomic(port_file,
                                 std::to_string(server.port()) + "\n",
                                 &error)) {
        std::fprintf(stderr, "sweep_serverd: cannot write %s (%s)\n",
                     port_file.c_str(), error.c_str());
        return 2;
      }
    }

    server.run();

    const rn::NetServer::Stats stats = server.stats();
    const rn::OverloadStats overload = server.overload_stats();
    std::fprintf(stderr,
                 "sweep_serverd: drained (accepted %llu, requests %llu, "
                 "served from memory %llu, rejected %llu, dropped "
                 "slow/framing/error %llu/%llu/%llu, shed overload/expired "
                 "%llu/%llu)\n",
                 static_cast<unsigned long long>(stats.accepted),
                 static_cast<unsigned long long>(stats.requests_started),
                 static_cast<unsigned long long>(stats.served_inline),
                 static_cast<unsigned long long>(stats.rejected_over_limit),
                 static_cast<unsigned long long>(stats.dropped_slow),
                 static_cast<unsigned long long>(stats.dropped_framing),
                 static_cast<unsigned long long>(stats.dropped_error),
                 static_cast<unsigned long long>(overload.shed_overload),
                 static_cast<unsigned long long>(overload.shed_expired));
    g_server = nullptr;
    // NetServer (and its SweepService) destruct here: the cache spills
    // to --cache-dir exactly like the stdin server's exit.
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sweep_serverd: fatal: %s\n", error.what());
    return 1;
  }
  return 0;
}
