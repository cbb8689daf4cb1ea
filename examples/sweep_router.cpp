// The fleet front daemon: sweep_router accepts the same JSONL protocol
// as sweep_serverd on the same epoll transport, but serves each scenario
// request by sharding its chains across N sweep_serverd backends via
// consistent hashing, fanning sub-requests out on resilient clients,
// and merging the streamed cells back byte-identically (net/router.hpp
// has the full argument). Shard health is probed in the background:
// dead shards leave the ring (their chains fail over to survivors and
// replay), shards that answer ping again rejoin at their original ring
// positions. {"type":"stats"} answers the fleet block.
//
// Exit codes: 0 after a graceful SIGINT/SIGTERM drain, 2 on usage
// errors (bad flags, unparsable --shards), 1 on fatal runtime errors
// (bind failure, epoll breakage).

#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "resilience/net/router.hpp"
#include "resilience/net/server.hpp"
#include "resilience/util/atomic_file.hpp"
#include "resilience/util/cli.hpp"

namespace rn = resilience::net;
namespace rs = resilience::service;
namespace ru = resilience::util;

namespace {

rn::NetServer* g_server = nullptr;

/// Async-signal-safe: one eventfd write inside signal_stop().
void handle_signal(int) {
  if (g_server != nullptr) {
    g_server->signal_stop();
  }
}

/// Parses "host:port[,host:port...]" (bare "port" means 127.0.0.1).
bool parse_shards(const std::string& text,
                  std::vector<rn::ShardConfig>& shards) {
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find(',', start);
    if (end == std::string::npos) {
      end = text.size();
    }
    const std::string entry = text.substr(start, end - start);
    if (!entry.empty()) {
      rn::ShardConfig config;
      std::string port_text = entry;
      const std::size_t colon = entry.rfind(':');
      if (colon != std::string::npos) {
        config.host = entry.substr(0, colon);
        port_text = entry.substr(colon + 1);
      }
      std::int64_t port = -1;
      try {
        port = std::stoll(port_text);
      } catch (...) {
        port = -1;
      }
      if (config.host.empty() || port <= 0 || port > 65535) {
        return false;
      }
      config.port = static_cast<std::uint16_t>(port);
      shards.push_back(std::move(config));
    }
    start = end + 1;
  }
  return !shards.empty();
}

}  // namespace

int main(int argc, char** argv) {
  ru::CliParser cli("sweep_router",
                    "fleet front daemon: shard scenario sweeps across "
                    "sweep_serverd backends with failover and rejoin");
  cli.add_flag("host", "127.0.0.1", "address to bind");
  cli.add_flag("port", "0", "TCP port (0 = kernel-assigned ephemeral port)");
  cli.add_flag("port-file", "",
               "write the bound port to this file once listening (atomic "
               "write; how scripts find an ephemeral port)");
  cli.add_flag("shards", "",
               "comma-separated shard endpoints, host:port or bare port "
               "(required; e.g. 127.0.0.1:7001,127.0.0.1:7002)");
  cli.add_flag("vnodes", "64", "ring positions per shard");
  cli.add_flag("probe-interval-ms", "1000",
               "background health-probe period; pong rejoins a dead "
               "shard, a failed probe removes a live one (0 = no prober)");
  cli.add_flag("attempts-per-shard", "2",
               "resilient attempts per sub-request before the shard is "
               "declared dead and its chains fail over");
  cli.add_flag("connect-timeout-ms", "2000",
               "bound on each shard connect attempt (0 = OS default)");
  cli.add_flag("receive-timeout-ms", "10000",
               "bound on waiting for shard response bytes (0 = forever)");
  cli.add_flag("jitter-seed", "1", "backoff jitter seed for shard retries");
  cli.add_flag("request-workers", "0",
               "threads executing routed sessions (0 = auto)");
  cli.add_flag("max-conns", "256",
               "concurrent client connection limit (0 = unlimited)");
  cli.add_flag("max-pipeline-depth", "256",
               "unprocessed pipelined requests per connection (0 = "
               "unlimited)");
  cli.add_flag("drain-timeout-ms", "30000",
               "graceful-drain deadline after SIGINT/SIGTERM (0 = wait "
               "forever)");
  cli.add_flag("overload-rounds", "8",
               "dispatch rounds a request may spend waiting on busy "
               "(overloaded) shards before the router sheds it "
               "retriably itself");
  cli.add_flag("max-queue-cost", "0",
               "the router's own admission budget in predicted compute "
               "units over waiting requests (0 = unlimited)");
  cli.add_flag("max-queue-depth", "0",
               "companion bound on the router's waiting requests (0 = "
               "unlimited)");
  if (!cli.parse(argc, argv)) {
    return 2;  // usage (also --help; CliParser does not distinguish)
  }

  const auto port = cli.checked_int("port", 0, 65535);
  const auto vnodes = cli.checked_int("vnodes", 1);
  const auto probe_ms = cli.checked_int("probe-interval-ms", 0);
  const auto attempts = cli.checked_int("attempts-per-shard", 1);
  const auto connect_ms = cli.checked_int("connect-timeout-ms", 0);
  const auto receive_ms = cli.checked_int("receive-timeout-ms", 0);
  const auto workers = cli.checked_int("request-workers", 0);
  const auto max_conns = cli.checked_int("max-conns", 0);
  const auto depth = cli.checked_int("max-pipeline-depth", 0);
  const auto drain_ms = cli.checked_int("drain-timeout-ms", 0);
  const auto jitter = cli.checked_uint64("jitter-seed");
  const auto overload_rounds = cli.checked_int("overload-rounds", 0);
  const auto queue_cost = cli.checked_double("max-queue-cost", 0.0, 1e18);
  const auto queue_depth = cli.checked_int("max-queue-depth", 0);
  if (!port || !vnodes || !probe_ms || !attempts || !connect_ms ||
      !receive_ms || !workers || !max_conns || !depth || !drain_ms ||
      !jitter || !overload_rounds || !queue_cost || !queue_depth) {
    return 2;
  }
  std::vector<rn::ShardConfig> shards;
  if (!parse_shards(cli.get_string("shards"), shards)) {
    std::fprintf(stderr,
                 "sweep_router: --shards must list at least one host:port "
                 "endpoint\n");
    return 2;
  }

  rn::RouterOptions router_options;
  router_options.shards = std::move(shards);
  router_options.ring_vnodes = static_cast<std::size_t>(*vnodes);
  router_options.probe_interval_ms = static_cast<int>(*probe_ms);
  router_options.attempts_per_shard = static_cast<int>(*attempts);
  router_options.connect_timeout_ms = static_cast<int>(*connect_ms);
  router_options.receive_timeout_ms = static_cast<int>(*receive_ms);
  router_options.jitter_seed = *jitter;
  router_options.overload_rounds = static_cast<int>(*overload_rounds);

  try {
    rn::ShardFleet fleet(router_options);
    fleet.start_prober();

    rn::NetServerOptions options;
    options.host = cli.get_string("host");
    options.port = static_cast<std::uint16_t>(*port);
    options.max_connections = static_cast<std::size_t>(*max_conns);
    options.max_pipeline_depth = static_cast<std::size_t>(*depth);
    options.request_workers = static_cast<std::size_t>(*workers);
    options.drain_timeout_ms = static_cast<int>(*drain_ms);
    options.max_queue_cost = *queue_cost;
    options.max_queue_depth = static_cast<std::size_t>(*queue_depth);
    options.service.cache_capacity = 0;  // the router computes nothing
    options.session_factory =
        [&fleet](rs::LineSession::LineFn emit,
                 std::shared_ptr<std::atomic<bool>> cancel) {
          return std::make_unique<rn::RouterSession>(fleet, std::move(emit),
                                                     std::move(cancel));
        };

    rn::NetServer server(std::move(options));
    g_server = &server;
    struct sigaction action {};
    action.sa_handler = handle_signal;
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);

    std::fprintf(stderr, "sweep_router: listening on %s:%u (%zu shards)\n",
                 server.options().host.c_str(), server.port(),
                 router_options.shards.size());
    const std::string port_file = cli.get_string("port-file");
    if (!port_file.empty()) {
      std::string error;
      if (!ru::write_file_atomic(port_file,
                                 std::to_string(server.port()) + "\n",
                                 &error)) {
        std::fprintf(stderr, "sweep_router: cannot write %s (%s)\n",
                     port_file.c_str(), error.c_str());
        return 2;
      }
    }

    server.run();

    const rn::ShardFleet::Stats stats = fleet.stats();
    std::fprintf(stderr,
                 "sweep_router: drained (failovers %llu, replays %llu, "
                 "rebalances %llu, probes %llu, sheds %llu)\n",
                 static_cast<unsigned long long>(stats.failovers),
                 static_cast<unsigned long long>(stats.replays),
                 static_cast<unsigned long long>(stats.rebalances),
                 static_cast<unsigned long long>(stats.probes),
                 static_cast<unsigned long long>(stats.sheds));
    g_server = nullptr;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sweep_router: fatal: %s\n", error.what());
    return 1;
  }
  return 0;
}
