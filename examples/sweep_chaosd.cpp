// Chaos proxy daemon: sits between a JSONL client and sweep_serverd and
// injects seeded, reproducible transport faults — torn reads/writes at
// arbitrary byte boundaries, stalls, and connection kills (a TCP RST)
// mid-line — without instrumenting either peer. The CI chaos smoke runs
// sweep_client --retries through this against the production daemon and
// diffs the responses byte for byte against a fault-free run.
//
// Every fault is a function of --seed: same seed, same schedule, so a
// failing chaos run reproduces locally from one integer. The kill budget
// bounds total kills across all connections, so a client whose retry
// count exceeds the budget is guaranteed to finish.
//
// Exit codes: 0 on SIGINT/SIGTERM shutdown, 2 on usage errors, 1 on
// fatal runtime errors (bind/listen failure).

#include <atomic>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "resilience/net/fault.hpp"
#include "resilience/util/atomic_file.hpp"
#include "resilience/util/cli.hpp"

namespace rn = resilience::net;
namespace ru = resilience::util;

namespace {

std::atomic<bool> g_stop{false};

/// Async-signal-safe: ChaosProxy::stop() joins threads, so the handler
/// only raises a flag the main loop polls.
void handle_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
  ru::CliParser cli("sweep_chaosd",
                    "fault-injecting TCP proxy for chaos-testing the JSONL "
                    "serving stack: torn chunks, stalls and seeded kills");
  cli.add_flag("host", "127.0.0.1", "address to bind");
  cli.add_flag("port", "0", "listen port (0 = kernel-assigned)");
  cli.add_flag("port-file", "",
               "write the bound port to this file once listening (how "
               "scripts find an ephemeral port)");
  cli.add_flag("upstream-host", "127.0.0.1", "daemon host to forward to");
  cli.add_flag("upstream-port", "", "daemon port to forward to (required)");
  cli.add_flag("seed", "1",
               "fault schedule seed; every split, stall and kill is a "
               "deterministic function of it");
  cli.add_flag("max-chunk", "512",
               "re-chunk traffic to at most this many bytes (1 = byte at "
               "a time)");
  cli.add_flag("stall-every", "64",
               "~1 in N chunks sleeps before forwarding (0 = never)");
  cli.add_flag("stall-max-ms", "5", "stall duration drawn from [0, this]");
  cli.add_flag("kill-every", "256",
               "~1 in N chunks kills the connection (0 = never)");
  cli.add_flag("kill-budget", "6",
               "total kills across all connections; once spent the network "
               "is repaired and retrying clients always finish");
  if (!cli.parse(argc, argv)) {
    return 2;  // usage (also --help; CliParser does not distinguish)
  }

  const auto port = cli.checked_int("port", 0, 65535);
  const auto upstream_port = cli.checked_int("upstream-port", 1, 65535);
  const auto max_chunk = cli.checked_int("max-chunk", 1);
  const auto stall_every = cli.checked_int("stall-every", 0);
  const auto stall_max_ms = cli.checked_int("stall-max-ms", 0, INT_MAX);
  const auto kill_every = cli.checked_int("kill-every", 0);
  const auto kill_budget = cli.checked_int("kill-budget", 0);
  const auto seed = cli.checked_uint64("seed");
  if (!port || !upstream_port || !max_chunk || !stall_every ||
      !stall_max_ms || !kill_every || !kill_budget || !seed) {
    return 2;
  }

  rn::ChaosProxyOptions options;
  options.listen_host = cli.get_string("host");
  options.listen_port = static_cast<std::uint16_t>(*port);
  options.upstream_host = cli.get_string("upstream-host");
  options.upstream_port = static_cast<std::uint16_t>(*upstream_port);
  options.seed = *seed;
  options.profile.max_chunk_bytes = static_cast<std::size_t>(*max_chunk);
  options.profile.stall_every = static_cast<std::uint64_t>(*stall_every);
  options.profile.stall_max_ms = static_cast<int>(*stall_max_ms);
  options.profile.kill_every = static_cast<std::uint64_t>(*kill_every);
  options.profile.kill_budget = static_cast<std::size_t>(*kill_budget);

  try {
    rn::ChaosProxy proxy(std::move(options));
    proxy.start();

    struct sigaction action {};
    action.sa_handler = handle_signal;
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);

    std::fprintf(stderr, "sweep_chaosd: %s:%u -> %s:%u (seed %llu)\n",
                 cli.get_string("host").c_str(), proxy.port(),
                 cli.get_string("upstream-host").c_str(),
                 static_cast<unsigned>(*upstream_port),
                 static_cast<unsigned long long>(*seed));
    const std::string port_file = cli.get_string("port-file");
    if (!port_file.empty()) {
      // Atomic: port-file pollers must never read a partial port.
      std::string error;
      if (!ru::write_file_atomic(port_file,
                                 std::to_string(proxy.port()) + "\n",
                                 &error)) {
        std::fprintf(stderr, "sweep_chaosd: cannot write %s (%s)\n",
                     port_file.c_str(), error.c_str());
        return 2;
      }
    }

    while (!g_stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    proxy.stop();

    const rn::ChaosProxy::Stats stats = proxy.stats();
    std::fprintf(stderr,
                 "sweep_chaosd: stopped (%llu connections, %llu kills, "
                 "%llu stalls, %llu chunks, %llu bytes, budget left %zu)\n",
                 static_cast<unsigned long long>(stats.connections),
                 static_cast<unsigned long long>(stats.kills),
                 static_cast<unsigned long long>(stats.stalls),
                 static_cast<unsigned long long>(stats.chunks),
                 static_cast<unsigned long long>(stats.forwarded_bytes),
                 stats.kill_budget_left);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sweep_chaosd: fatal: %s\n", error.what());
    return 1;
  }
  return 0;
}
