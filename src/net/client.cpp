#include "resilience/net/client.hpp"

#include <stdexcept>

namespace resilience::net {

bool is_terminal_response_line(std::string_view line) {
  // Server lines are canonical util/json dumps with "type" as the first
  // member, so a prefix test is exact (and cheap enough for the bench's
  // per-line hot path).
  return line.starts_with("{\"type\":\"done\"") ||
         line.starts_with("{\"type\":\"stats\"") ||
         line.starts_with("{\"type\":\"error\"") ||
         line.starts_with("{\"type\":\"pong\"");
}

void Client::connect(const std::string& host, std::uint16_t port,
                     int connect_timeout_ms) {
  fd_ = connect_tcp(host, port, connect_timeout_ms);
  framer_ = LineFramer();  // unlimited: the client trusts its server
  pending_.clear();
  eof_ = false;
  tail_unterminated_ = false;
}

bool Client::quiet() const {
  return fd_.valid() && !eof_ && pending_.empty() && framer_.buffered() == 0 &&
         !wait_readable({fd_.fd()}, 0).front();
}

void Client::shutdown_send() { shutdown_send_half(fd_.fd()); }

void Client::set_receive_timeout(int timeout_ms) {
  net::set_receive_timeout(fd_.fd(), timeout_ms);
}

void Client::send_raw(std::string_view bytes) {
  if (!fd_.valid()) {
    throw std::runtime_error("net::Client: not connected");
  }
  while (!bytes.empty()) {
    std::size_t n = 0;
    // The client socket is blocking, so kWouldBlock cannot happen; a
    // short write just loops.
    const IoStatus status = write_some(fd_.fd(), bytes.data(), bytes.size(), &n);
    if (status != IoStatus::kOk) {
      throw std::runtime_error("net::Client: connection lost while sending");
    }
    bytes.remove_prefix(n);
  }
}

void Client::send_line(std::string_view line) {
  std::string framed;
  framed.reserve(line.size() + 1);
  framed.append(line);
  framed.push_back('\n');
  send_raw(framed);
}

void Client::receive() {
  if (!fd_.valid()) {
    throw std::runtime_error("net::Client: not connected");
  }
  const auto stash = [this](std::string_view line) {
    pending_.emplace_back(line);
  };
  char chunk[16384];
  std::size_t n = 0;
  switch (read_some(fd_.fd(), chunk, sizeof(chunk), &n)) {
    case IoStatus::kOk:
      // Same framing rules as the server (CRLF tolerance included); the
      // unlimited framer cannot fail.
      (void)framer_.feed(std::string_view(chunk, n), stash);
      break;
    case IoStatus::kEof:
      eof_ = true;
      // An unterminated tail is still delivered as a line, but flagged:
      // it may LOOK like a terminal line to the prefix test while being a
      // truncation of one.
      tail_unterminated_ = framer_.buffered() > 0;
      (void)framer_.finish(stash);
      break;
    case IoStatus::kWouldBlock:  // only with a receive timeout set
      throw std::runtime_error("net::Client: read timed out");
    case IoStatus::kError:
      throw std::runtime_error("net::Client: connection lost while reading");
  }
}

std::optional<std::string> Client::read_line() {
  while (pending_.empty() && !eof_) {
    receive();
  }
  if (pending_.empty()) {
    return std::nullopt;
  }
  std::string line = std::move(pending_.front());
  pending_.pop_front();
  return line;
}

Client::Response Client::read_response() {
  Response response;
  while (!read_response_step(response)) {
  }
  return response;
}

bool Client::read_response_step(Response& response) {
  if (pending_.empty() && !eof_) {
    receive();
  }
  while (!pending_.empty()) {
    const bool terminal = is_terminal_response_line(pending_.front());
    response.lines.push_back(std::move(pending_.front()));
    pending_.pop_front();
    // The line just taken was the EOF tail iff the queue is now drained
    // after an unterminated finish, and a truncated line never completes
    // a response, terminal-looking or not.
    if (eof_ && pending_.empty() && tail_unterminated_) {
      return true;
    }
    if (terminal) {
      response.complete = true;
      return true;
    }
  }
  return eof_;  // server closed first: complete stays false
}

Client::Response Client::transact(std::string_view line) {
  send_line(line);
  return read_response();
}

bool Client::ping() {
  try {
    const Response response =
        transact("{\"type\":\"ping\",\"id\":\"__probe__\"}");
    return response.complete && response.lines.size() == 1 &&
           response.lines.front().starts_with("{\"type\":\"pong\"");
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace resilience::net
