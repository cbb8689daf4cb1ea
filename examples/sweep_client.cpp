// Blocking CLI client for sweep_serverd: sends a JSONL request file over
// one connection and prints every response line to stdout — the driver
// the CI net smoke uses to diff the daemon's responses byte for byte
// against the stdin sweep_server path.
//
// Two send modes:
//   * serial (default): send one line, read its full response, repeat —
//     one request in flight at a time;
//   * --pipeline: send the whole file first, then read responses until
//     every request line has answered — exercising the daemon's
//     per-connection pipelining.
// The input file is forwarded verbatim (blank lines and '#' comments
// included) so the daemon's per-line request numbering — and therefore
// every default "line-N" id — matches a stdin run over the same file.
//
// --retries=N (serial mode only) switches to net::ResilientClient:
// connect timeouts, ping-gated reconnects, exponential backoff and safe
// re-submission — the chaos smoke drives the daemon through sweep_chaosd
// with this mode. Resilient mode sends only request lines (comments
// cannot be replayed meaningfully across reconnects) and default
// "line-N" ids restart per connection, so request files for this mode
// should carry explicit "id" fields.
//
// Exit codes: 0 when every expected response arrived (error-line
// responses are still responses: the server's exit-code semantics live
// server-side), 1 on connection failures or a short response stream,
// 2 on usage errors.

#include <climits>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "resilience/net/client.hpp"
#include "resilience/net/resilient_client.hpp"
#include "resilience/service/jsonl_session.hpp"
#include "resilience/util/cli.hpp"

namespace rn = resilience::net;
namespace rs = resilience::service;
namespace ru = resilience::util;

int main(int argc, char** argv) {
  ru::CliParser cli("sweep_client",
                    "send a JSONL request file to sweep_serverd and print "
                    "the responses");
  cli.add_flag("host", "127.0.0.1", "daemon host");
  cli.add_flag("port", "", "daemon port (required)");
  cli.add_flag("input", "-", "request file ('-' = stdin)");
  cli.add_bool_flag("pipeline",
                    "send every request before reading any response");
  cli.add_flag("retries", "0",
               "total attempts per request via the resilient client "
               "(reconnect + backoff + ping probe); 0 = plain one-shot "
               "client; serial mode only");
  cli.add_flag("connect-timeout-ms", "0",
               "bound on each connect attempt (0 = OS default)");
  cli.add_flag("receive-timeout-ms", "0",
               "bound on waiting for response bytes (0 = wait forever)");
  if (!cli.parse(argc, argv)) {
    return 2;  // usage (also --help; CliParser does not distinguish)
  }
  const auto port_value = cli.checked_int("port", 1, 65535);
  const auto retries_value = cli.checked_int("retries", 0, INT_MAX);
  const auto connect_value = cli.checked_int("connect-timeout-ms", 0, INT_MAX);
  const auto receive_value = cli.checked_int("receive-timeout-ms", 0, INT_MAX);
  if (!port_value || !retries_value || !connect_value || !receive_value) {
    return 2;
  }
  const std::int64_t port = *port_value;
  const std::int64_t retries = *retries_value;
  const std::int64_t connect_timeout = *connect_value;
  const std::int64_t receive_timeout = *receive_value;
  if (retries > 0 && cli.get_bool("pipeline")) {
    std::fprintf(stderr,
                 "sweep_client: --retries is serial-mode only (a retried "
                 "pipeline would re-send requests already answered)\n");
    return 2;
  }

  std::ifstream file;
  std::istream* in = &std::cin;
  const std::string input = cli.get_string("input");
  if (input != "-") {
    file.open(input);
    if (!file) {
      std::fprintf(stderr, "sweep_client: cannot open %s\n", input.c_str());
      return 2;
    }
    in = &file;
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(*in, line)) {
    lines.push_back(line);
  }

  try {
    if (retries > 0) {
      // Resilient serial mode: each request is its own at-least-once
      // transaction; only request lines are sent (see header comment).
      rn::ResilientClientOptions options;
      options.host = cli.get_string("host");
      options.port = static_cast<std::uint16_t>(port);
      options.connect_timeout_ms = static_cast<int>(connect_timeout);
      options.receive_timeout_ms = static_cast<int>(receive_timeout);
      options.max_attempts = static_cast<int>(retries);
      rn::ResilientClient client(options);
      // The healing summary prints on BOTH exits: a success that needed
      // retries, and a final failure — the attempts spent on a request
      // that never completed are exactly the diagnostics a dead fleet
      // leaves behind.
      const auto print_healing_stats = [&client] {
        const rn::ResilientClient::Stats stats = client.stats();
        if (stats.retries > 0 || stats.failures > 0 ||
            stats.overloaded > 0) {
          std::fprintf(stderr,
                       "sweep_client: %llu retries, %llu reconnects, "
                       "%llu attempt failures, %llu overloaded answers\n",
                       static_cast<unsigned long long>(stats.retries),
                       static_cast<unsigned long long>(stats.reconnects),
                       static_cast<unsigned long long>(stats.failures),
                       static_cast<unsigned long long>(stats.overloaded));
        }
      };
      try {
        for (const std::string& entry : lines) {
          if (!rs::is_request_line(entry)) {
            continue;
          }
          const rn::Client::Response response = client.transact(entry);
          for (const std::string& out : response.lines) {
            std::cout << out << '\n';
          }
        }
      } catch (const std::exception& error) {
        std::cout.flush();
        std::fprintf(stderr, "sweep_client: %s\n", error.what());
        print_healing_stats();
        return 1;
      }
      print_healing_stats();
      std::cout.flush();
      return 0;
    }

    rn::Client client;
    client.connect(cli.get_string("host"), static_cast<std::uint16_t>(port),
                   static_cast<int>(connect_timeout));
    if (receive_timeout > 0) {
      client.set_receive_timeout(static_cast<int>(receive_timeout));
    }

    if (cli.get_bool("pipeline")) {
      std::size_t expected = 0;
      std::ostringstream all;
      for (const std::string& entry : lines) {
        all << entry << '\n';
        if (rs::is_request_line(entry)) {
          ++expected;
        }
      }
      client.send_raw(all.str());
      for (std::size_t i = 0; i < expected; ++i) {
        const rn::Client::Response response = client.read_response();
        if (!response.complete) {
          std::fprintf(stderr,
                       "sweep_client: server closed after %zu of %zu "
                       "responses\n",
                       i, expected);
          return 1;
        }
        for (const std::string& out : response.lines) {
          std::cout << out << '\n';
        }
      }
    } else {
      for (const std::string& entry : lines) {
        if (!rs::is_request_line(entry)) {
          client.send_line(entry);  // keeps line numbering aligned
          continue;
        }
        const rn::Client::Response response = client.transact(entry);
        if (!response.complete) {
          std::fprintf(stderr, "sweep_client: incomplete response for: %s\n",
                       entry.c_str());
          return 1;
        }
        for (const std::string& out : response.lines) {
          std::cout << out << '\n';
        }
      }
    }
    std::cout.flush();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sweep_client: %s\n", error.what());
    return 1;
  }
  return 0;
}
