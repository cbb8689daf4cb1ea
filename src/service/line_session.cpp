#include "resilience/service/line_session.hpp"

#include <exception>
#include <utility>

#include "resilience/service/serialize.hpp"

namespace resilience::service {

bool is_request_line(std::string_view line) {
  const std::size_t first = line.find_first_not_of(" \t\r");
  return first != std::string_view::npos && line[first] != '#';
}

RequestLine classify_line(std::string_view line, std::size_t line_number) {
  RequestLine out;
  if (!is_request_line(line)) {
    return out;  // blank lines and comments between requests are fine
  }
  const std::string default_id = "line-" + std::to_string(line_number);
  const auto invalid = [](std::string id, std::string field,
                          std::string message) {
    RequestLine error;
    error.kind = RequestLine::Kind::kInvalid;
    error.id = std::move(id);
    error.field = std::move(field);
    error.message = std::move(message);
    return error;
  };

  // One parse serves the type dispatch and the request constructor.
  util::JsonValue json;
  try {
    json = util::JsonValue::parse(line);
  } catch (const util::JsonError& error) {
    return invalid(default_id, "", std::string("invalid JSON: ") + error.what());
  }

  if (json.is_object()) {
    if (const util::JsonValue* type = json.find("type")) {
      std::string id = default_id;
      if (const util::JsonValue* id_field = json.find("id")) {
        if (!id_field->is_string()) {
          return invalid(default_id, "id", "expected a string");
        }
        id = id_field->as_string();
      }
      const bool is_stats = type->is_string() && type->as_string() == "stats";
      const bool is_ping = type->is_string() && type->as_string() == "ping";
      if (!is_stats && !is_ping) {
        return invalid(std::move(id), "type",
                       type->is_string()
                           ? "unknown request type '" + type->as_string() + "'"
                           : std::string("expected a string"));
      }
      // Same strictness as scenario requests: typo'd members must not be
      // silently ignored.
      for (const auto& [key, value] : json.as_object()) {
        if (key != "type" && key != "id") {
          return invalid(std::move(id), key, "unknown field '" + key + "'");
        }
      }
      out.kind = is_ping ? RequestLine::Kind::kPing : RequestLine::Kind::kStats;
      out.id = std::move(id);
      return out;
    }
  }

  try {
    out.scenario = resolve_request(json);
  } catch (const RequestError& error) {
    return invalid(default_id, error.field, error.text);
  } catch (const std::exception& error) {
    // Not a validation verdict but a resource failure (a grid too large
    // to resolve): still an answer, never an exception on the admission
    // path.
    return invalid(default_id, "",
                   std::string("internal error: ") + error.what());
  }
  if (out.scenario.request.id.empty()) {
    out.scenario.request.id = default_id;
  }
  out.kind = RequestLine::Kind::kScenario;
  return out;
}

void LineSession::handle_line(std::string_view line) {
  serve(classify_line(line, ++lines_));
}

void LineSession::serve(RequestLine&& line) {
  if (line.kind == RequestLine::Kind::kSkip || cancelled()) {
    return;  // nothing to answer, or the client is gone
  }
  const std::string& id =
      line.kind == RequestLine::Kind::kScenario ? line.scenario.request.id
                                                : line.id;
  try {
    switch (line.kind) {
      case RequestLine::Kind::kPing:
        emit(pong_line(id), true);
        break;
      case RequestLine::Kind::kStats:
        emit(stats_answer(id), true);
        break;
      case RequestLine::Kind::kInvalid:
        fail(error_line(id, line.field, line.message));
        break;
      case RequestLine::Kind::kScenario:
        serve_scenario(line.scenario);
        break;
      case RequestLine::Kind::kSkip:
        break;
    }
  } catch (const std::exception& error) {
    // Validation ran at classification, so this is an engine/runtime
    // failure (resource exhaustion, cache IO, a fleet fault); the
    // protocol answer is an error line, not a dropped connection or a
    // dead server.
    fail(error_line(id, "", std::string("internal error: ") + error.what()));
  }
}

void LineSession::emit(std::string line, bool end_of_response) {
  if (!cancelled()) {
    emit_(std::move(line), end_of_response);
  }
}

util::JsonValue LineSession::transport_stats() const {
  return transport_stats_ ? transport_stats_() : util::JsonValue();
}

void LineSession::fail(std::string line) {
  errors_ = true;
  emit(std::move(line), true);
}

}  // namespace resilience::service
