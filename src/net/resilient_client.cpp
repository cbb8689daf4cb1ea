#include "resilience/net/resilient_client.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <utility>

#include "resilience/util/json.hpp"

namespace resilience::net {

bool is_overloaded_response(const Client::Response& response,
                            std::int64_t* retry_after_ms) {
  if (retry_after_ms != nullptr) {
    *retry_after_ms = 0;
  }
  if (!response.complete || response.lines.empty()) {
    return false;
  }
  // Cheap reject before parsing: almost every response is not a shed.
  const std::string& last = response.lines.back();
  if (last.find("\"code\":\"overloaded\"") == std::string::npos) {
    return false;
  }
  try {
    const util::JsonValue json = util::JsonValue::parse(last);
    const util::JsonValue* code = json.find("code");
    if (code == nullptr || !code->is_string() ||
        code->as_string() != "overloaded") {
      return false;
    }
    if (retry_after_ms != nullptr) {
      if (const util::JsonValue* retry = json.find("retry_after_ms")) {
        if (retry->is_number()) {
          *retry_after_ms =
              static_cast<std::int64_t>(std::llround(retry->as_double()));
        }
      }
    }
    return true;
  } catch (const util::JsonError&) {
    return false;  // substring matched inside some payload string
  }
}

ResilientClient::ResilientClient(ResilientClientOptions options)
    : options_(std::move(options)), jitter_(options_.jitter_seed) {
  if (options_.max_attempts < 1) {
    options_.max_attempts = 1;
  }
}

void ResilientClient::ensure_connected() {
  if (client_.connected()) {
    return;
  }
  client_.connect(options_.host, options_.port, options_.connect_timeout_ms);
  if (options_.receive_timeout_ms > 0) {
    client_.set_receive_timeout(options_.receive_timeout_ms);
  }
  if (!client_.ping()) {
    client_.close();
    throw std::runtime_error(
        "ResilientClient: endpoint accepted but failed the ping probe");
  }
  if (ever_connected_) {
    ++stats_.reconnects;
  }
  ever_connected_ = true;
}

void ResilientClient::backoff(int attempt) {
  // attempt is 1-based here (the first RETRY passes 1). Exponential base
  // capped at 500 ms; the top half is jitter drawn from the deterministic
  // stream, so two clients with different seeds desync.
  const int base = std::min(500, 10 << std::min(attempt - 1, 6));
  std::this_thread::sleep_for(
      std::chrono::milliseconds(base / 2 + jitter_.pick_ms(base / 2)));
}

Client::Response ResilientClient::transact(std::string_view line) {
  constexpr std::int64_t kRetryAfterCapMs = 5000;  // one honored wait, at most
  std::string last_error = "no attempt made";
  bool slept_on_hint = false;
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++stats_.retries;
      if (!slept_on_hint) {
        backoff(attempt);
      }
    }
    slept_on_hint = false;
    try {
      ensure_connected();
      Client::Response response = client_.transact(line);
      if (response.complete) {
        std::int64_t hint = 0;
        if (is_overloaded_response(response, &hint)) {
          // A shed is a healthy, complete answer — the connection stays
          // open and the attempt is not a failure. Wait the server-stated
          // drain estimate (capped) and re-send; once the attempt budget
          // is spent, hand the overloaded response to the caller so it
          // can tell backpressure from a dead endpoint (the router does).
          ++stats_.overloaded;
          if (attempt + 1 >= options_.max_attempts) {
            return response;
          }
          if (hint > 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(
                std::min(hint, kRetryAfterCapMs)));
            slept_on_hint = true;
          }
          continue;
        }
        return response;
      }
      // Server closed mid-response: the partial lines are worthless (the
      // retry re-delivers every cell — dedupe makes that a replay, not a
      // recompute), so drop them and go again.
      last_error = "response truncated by server close";
    } catch (const std::exception& error) {
      last_error = error.what();
    }
    ++stats_.failures;
    client_.close();
  }
  throw std::runtime_error("ResilientClient: request failed after " +
                           std::to_string(options_.max_attempts) +
                           " attempts; last error: " + last_error);
}

}  // namespace resilience::net
