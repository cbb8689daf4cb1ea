// The serving front-end as a CLI: JSONL scenario requests on stdin (or a
// file) in, streamed JSONL cells out. Each input line is one
// ScenarioRequest (see docs/serving.md for the schema); each output line
// is one of
//   {"type":"cell", ...}   a finished (point, family) cell, streamed as
//                          its chain resolves it (live order on a cache
//                          miss, table order on a hit),
//   {"type":"done", ...}   the request summary: signature, cell count,
//                          cache-hit/join flags (plus a counter snapshot
//                          when the request set "stats": true),
//   {"type":"stats", ...}  the reply to a {"type":"stats"} request,
//   {"type":"error", ...}  a validation failure naming the offending
//                          field; the server moves on to the next line.
//
// The request processing itself lives in service::JsonlSession — shared
// with the sweep_serverd network daemon, so both front ends answer any
// request with byte-identical lines (the CI net smoke diffs them).
//
// Identical grids are served from the LRU table cache / deduped when
// concurrently in flight; related grids warm-start from cached chains
// (reuse_seeds, default on); --cache-dir persists the cache across
// restarts. --check turns the run into a self-verifying smoke test: every
// streamed cell set is compared, bit for bit, against a fresh recompute
// through a cold (cache-free, seed-free) SweepService — the same submit
// path, so cache hits, disk reloads and seeded computes are all exercised
// against a genuine cold reference (the CI service smoke runs this on a
// 2-platform request file).
//
// Exit codes (stdout is flushed before every one of them):
//   0  every request served
//   1  --check found a mismatch (takes precedence: wrong bytes are worse
//      than rejected requests)
//   2  usage error
//   3  at least one request in the batch was answered with an error line
//      (partial failure used to be visible only by grepping the stream)

#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "resilience/service/jsonl_session.hpp"
#include "resilience/service/scenario_request.hpp"
#include "resilience/service/serialize.hpp"
#include "resilience/service/sweep_service.hpp"
#include "resilience/util/cli.hpp"
#include "resilience/util/thread_pool.hpp"

namespace rc = resilience::core;
namespace rs = resilience::service;
namespace ru = resilience::util;

namespace {

/// The streamed set must be exactly the batch table's cell set: every
/// (point, family) cell delivered once, bit-identical — no dupes, no
/// drops — and the served table must be bit-identical to a fresh, cold
/// recompute through `verify_service` (a cache-free, seed-free
/// SweepService: the reference runs the same submit path the primary
/// service used, so --check exercises cache hits, disk reloads and seeded
/// computes against a genuine cold compute instead of a bespoke runner
/// call).
bool check_request(const rs::ResolvedRequest& resolved,
                   const rs::SubmitResult& result,
                   const std::vector<rc::SweepCell>& streamed,
                   rs::SweepService& verify_service) {
  const rs::ScenarioRequest& request = resolved.request;
  bool ok = true;
  const rc::SweepTable& table = *result.table;

  if (streamed.size() != table.cells.size()) {
    std::fprintf(stderr,
                 "sweep_server: request '%s': streamed %zu cells, table has "
                 "%zu\n",
                 request.id.c_str(), streamed.size(), table.cells.size());
    ok = false;
  }
  std::map<std::pair<std::size_t, int>, std::size_t> seen;
  for (const rc::SweepCell& cell : streamed) {
    const auto key =
        std::make_pair(cell.point_index, static_cast<int>(cell.kind));
    if (++seen[key] > 1) {
      std::fprintf(stderr,
                   "sweep_server: request '%s': duplicate cell (%zu, %s)\n",
                   request.id.c_str(), cell.point_index,
                   rc::pattern_name(cell.kind).c_str());
      ok = false;
      continue;
    }
    if (!rc::cells_bit_identical(cell,
                                 table.cell(cell.point_index, cell.kind))) {
      std::fprintf(stderr,
                   "sweep_server: request '%s': streamed cell (%zu, %s) "
                   "differs from the batch table\n",
                   request.id.c_str(), cell.point_index,
                   rc::pattern_name(cell.kind).c_str());
      ok = false;
    }
  }
  if (seen.size() != table.cells.size()) {
    std::fprintf(stderr,
                 "sweep_server: request '%s': %zu distinct cells streamed, "
                 "expected %zu\n",
                 request.id.c_str(), seen.size(), table.cells.size());
    ok = false;
  }

  const rs::SubmitResult recomputed = verify_service.submit(resolved);
  if (recomputed.cache_hit || recomputed.seeded) {
    std::fprintf(stderr,
                 "sweep_server: request '%s': verification service was not "
                 "cold (configuration bug)\n",
                 request.id.c_str());
    ok = false;
  }
  if (!rc::tables_bit_identical(table, *recomputed.table)) {
    std::fprintf(stderr,
                 "sweep_server: request '%s': served table differs from a "
                 "fresh recompute (reuse identity violated)\n",
                 request.id.c_str());
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  ru::CliParser cli("sweep_server",
                    "serve scenario sweeps: JSONL requests in, JSONL cells out");
  cli.add_flag("input", "-", "request file, one JSON object per line ('-' = stdin)");
  cli.add_flag("threads", "0", "sweep pool threads (0 = shared global pool)");
  cli.add_flag("cache-capacity", "64", "LRU table-cache capacity (0 = no cache)");
  cli.add_flag("cache-dir", "",
               "spill evicted/shutdown cache entries to this directory and "
               "lazily reload them (empty = no persistence)");
  cli.add_flag("default-deadline-ms", "0",
               "compute deadline for requests that carry no deadline_ms of "
               "their own; past it the request answers a deadline error "
               "line (0 = unbounded)");
  cli.add_flag("sim-max-runs", "0",
               "hard cap on a simulate request's sim.max_runs; over-cap "
               "requests answer an error line before any compute (0 = "
               "uncapped)");
  cli.add_bool_flag("check",
                    "verify every streamed cell set against a fresh batch "
                    "recompute; exit 1 on any mismatch");
  if (!cli.parse(argc, argv)) {
    return 2;  // usage (also --help; CliParser does not distinguish)
  }
  const std::string input = cli.get_string("input");
  const auto threads_flag = cli.checked_int("threads", 0);
  const auto capacity = cli.checked_int("cache-capacity", 0);
  const auto deadline_ms =
      cli.checked_int("default-deadline-ms", 0, std::numeric_limits<int>::max());
  const auto sim_max_runs = cli.checked_uint64("sim-max-runs");
  if (!threads_flag || !capacity || !deadline_ms || !sim_max_runs) {
    return 2;
  }
  const auto threads = static_cast<std::size_t>(*threads_flag);
  const bool check = cli.get_bool("check");

  std::ifstream file;
  std::istream* in = &std::cin;
  if (input != "-") {
    file.open(input);
    if (!file) {
      std::fprintf(stderr, "sweep_server: cannot open %s\n", input.c_str());
      return 2;
    }
    in = &file;
  }

  std::unique_ptr<ru::ThreadPool> pool;
  rs::ServiceOptions options;
  options.cache_capacity = static_cast<std::size_t>(*capacity);
  options.cache_dir = cli.get_string("cache-dir");
  if (threads > 0) {
    pool = std::make_unique<ru::ThreadPool>(threads);
    options.sweep.pool = pool.get();
  }
  rs::SweepService service(options);

  // --check reference: same submit path, guaranteed cold (no cache, no
  // disk tier, no seeds), constructed lazily only when checking.
  std::unique_ptr<rs::SweepService> verify_service;
  if (check) {
    rs::ServiceOptions verify_options;
    verify_options.sweep = options.sweep;
    verify_options.cache_capacity = 0;
    verify_options.reuse_seeds = false;
    verify_service = std::make_unique<rs::SweepService>(verify_options);
  }

  bool check_failed = false;
  rs::JsonlSession::Options session_options{/*collect=*/check,
                                            static_cast<int>(*deadline_ms)};
  session_options.sim_max_runs = *sim_max_runs;
  rs::JsonlSession session(
      service,
      [](std::string&& line, bool end_of_response) {
        std::cout << line << '\n';
        if (end_of_response) {
          std::cout.flush();  // each request's output is complete
        }
      },
      session_options);
  if (check) {
    session.set_outcome_hook([&](const rs::JsonlSession::Outcome& outcome) {
      if (!check_request(outcome.request, outcome.result, outcome.cells,
                         *verify_service)) {
        check_failed = true;
      }
    });
  }

  std::string line;
  while (std::getline(*in, line)) {
    session.handle_line(line);
  }
  std::cout.flush();

  if (check_failed) {
    std::fprintf(stderr, "sweep_server: --check FAILED\n");
    return 1;
  }
  if (session.any_request_errors()) {
    // Partial failure must be machine-visible, not only greppable.
    std::fprintf(stderr,
                 "sweep_server: at least one request was answered with an "
                 "error line\n");
    return 3;
  }
  return 0;
}
