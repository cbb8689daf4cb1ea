#pragma once

// The request front every protocol session shares: classify_line() turns
// one JSONL input line into a classified request, and LineSession answers
// it. service::JsonlSession (the sweep service) and net::RouterSession
// (the sharded fleet) override only their stats answer and how a scenario
// executes, so pongs and located errors are byte-identical on every front
// by construction. Whoever receives a line numbers it: handle_line counts
// every line it is fed (default ids are "line-N" over all input lines,
// blanks and '#' comments included); the daemon numbers per connection,
// classifies at admission and hands the result to serve() on a worker.

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "resilience/service/scenario_request.hpp"
#include "resilience/util/json.hpp"

namespace resilience::service {

/// True when `line` is a request — not blank, not a '#' comment. The one
/// copy of the protocol's skip rule: classify_line applies it, and
/// pipelining clients use it to predict how many responses a request
/// file will produce (every request line gets exactly one terminal
/// done/stats/error/pong line).
[[nodiscard]] bool is_request_line(std::string_view line);

/// One input line, classified.
struct RequestLine {
  enum class Kind { kSkip, kPing, kStats, kScenario, kInvalid };
  Kind kind = Kind::kSkip;
  /// Response id of a ping, stats or invalid line ("line-N" by default).
  std::string id;
  /// kScenario: the request resolved, signed and chained once (its id
  /// defaulted to "line-N"); every later stage reads it.
  ResolvedRequest scenario;
  /// kInvalid: the offending field path ("" when none) and the message.
  std::string field;
  std::string message;
};

/// The protocol's request grammar. `line_number` (1-based, blank and
/// comment lines included) names the default "line-N" id. Never throws
/// on malformed input: it classifies as kInvalid.
[[nodiscard]] RequestLine classify_line(std::string_view line,
                                        std::size_t line_number);

class LineSession {
 public:
  /// Receives each response line (no terminator). `end_of_response` is
  /// true on terminal lines (done/stats/error/pong) — the cue for
  /// per-response flushing on buffered transports.
  using LineFn = std::function<void(std::string&& line, bool end_of_response)>;

  virtual ~LineSession() = default;

  /// Numbers, classifies and serves one input line (a scenario runs to
  /// completion here; callers wanting concurrency run one session per
  /// connection on their own threads).
  void handle_line(std::string_view line);

  /// Answers one classified line; nothing once the cancel flag reads
  /// true. Never throws: a failure escaping a scenario's execution
  /// answers one "internal error: ..." line.
  void serve(RequestLine&& line);

  /// Appends this snapshot to every stats answer as a "transport" block
  /// (NetServer sets it on every session it creates; the stdin path never
  /// does, so its stats bytes are the historical ones).
  void set_transport_stats(std::function<util::JsonValue()> hook) {
    transport_stats_ = std::move(hook);
  }

  /// Lines fed to handle_line so far (blank and comment lines included).
  [[nodiscard]] std::size_t lines_seen() const noexcept { return lines_; }
  /// True when any line was answered with an error line — what
  /// sweep_server's exit code reports.
  [[nodiscard]] bool any_request_errors() const noexcept { return errors_; }
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_ != nullptr &&
           cancelled_->load(std::memory_order_acquire);
  }

 protected:
  LineSession(LineFn emit, std::shared_ptr<const std::atomic<bool>> cancelled)
      : emit_(std::move(emit)), cancelled_(std::move(cancelled)) {}

  /// Forwards one response line unless the client is gone.
  void emit(std::string line, bool end_of_response);
  /// Emits a terminal error line and records that the session errored.
  void fail(std::string line);
  /// The transport hook's snapshot; null when no hook is set.
  [[nodiscard]] util::JsonValue transport_stats() const;
  [[nodiscard]] const std::shared_ptr<const std::atomic<bool>>& cancel_flag()
      const noexcept {
    return cancelled_;
  }

  [[nodiscard]] virtual std::string stats_answer(const std::string& id) = 0;
  /// Executes one scenario request, emitting its whole response.
  virtual void serve_scenario(ResolvedRequest& request) = 0;

 private:
  LineFn emit_;
  std::shared_ptr<const std::atomic<bool>> cancelled_;
  std::function<util::JsonValue()> transport_stats_;
  std::size_t lines_ = 0;
  bool errors_ = false;
};

}  // namespace resilience::service
