#include "checks.hpp"

#include <algorithm>

#include "resilience/service/jsonl_session.hpp"
#include "resilience/service/sweep_service.hpp"
#include "resilience/util/json.hpp"
#include "resilience/util/thread_pool.hpp"

namespace perfbench {

namespace rs = resilience::service;

Reference::Reference(int threads, std::size_t cache_capacity)
    : pool_(std::make_unique<resilience::util::ThreadPool>(
          static_cast<std::size_t>(threads))) {
  rs::ServiceOptions options;
  options.cache_capacity = cache_capacity;
  options.sweep.pool = pool_.get();
  service_ = std::make_unique<rs::SweepService>(options);
}

Reference::~Reference() = default;

std::string Reference::answer(const std::string& line) {
  std::string out;
  rs::JsonlSession session(*service_, [&out](std::string&& text, bool) {
    out += text;
    out += '\n';
  });
  session.handle_line(line);
  return out;
}

std::vector<std::string> Reference::warm_answers(
    const std::vector<std::string>& set) {
  for (const std::string& line : set) {
    (void)answer(line);
  }
  std::vector<std::string> answers;
  for (const std::string& line : set) {
    answers.push_back(answer(line));
  }
  return answers;
}

std::string sorted_cells(const std::string& response) {
  std::vector<std::string> lines;
  std::size_t begin = 0;
  for (std::size_t nl; (nl = response.find('\n', begin)) != std::string::npos;
       begin = nl + 1) {
    lines.push_back(response.substr(begin, nl - begin + 1));
  }
  if (!lines.empty()) {
    std::sort(lines.begin(), lines.end() - 1);
  }
  std::string out;
  for (const std::string& line : lines) {
    out += line;
  }
  return out;
}

std::string check_shape(const std::string& response,
                        std::optional<bool> expect_cache_hit) {
  if (response.size() < 2 || response.back() != '\n') {
    return "empty or unterminated response";
  }
  const std::size_t last = response.rfind('\n', response.size() - 2);
  const std::size_t start = last == std::string::npos ? 0 : last + 1;
  const std::string done = response.substr(start, response.size() - 1 - start);
  resilience::util::JsonValue json;
  try {
    json = resilience::util::JsonValue::parse(done);
  } catch (const std::exception& error) {
    return std::string("unparsable terminal line: ") + error.what();
  }
  const auto* type = json.find("type");
  const auto* cells = json.find("cells");
  const auto* hit = json.find("cache_hit");
  if (type == nullptr || !type->is_string() || type->as_string() != "done" ||
      cells == nullptr || !cells->is_number() || hit == nullptr ||
      !hit->is_bool()) {
    return "terminal line is not a done line: " + done.substr(0, 200);
  }
  const auto lines = static_cast<std::size_t>(
      std::count(response.begin(), response.end(), '\n'));
  if (static_cast<double>(lines - 1) != cells->as_double()) {
    return "done line reports " + std::to_string(cells->as_double()) +
           " cells, response carries " + std::to_string(lines - 1);
  }
  if (expect_cache_hit && hit->as_bool() != *expect_cache_hit) {
    return std::string("cache_hit is ") + (hit->as_bool() ? "true" : "false");
  }
  return "";
}

bool sampled(std::uint64_t seed, std::size_t index) {
  SplitMix64 rng(seed ^ (0x5a5a5a5aULL + index * 0x9e3779b97f4a7c15ULL));
  return rng.next() % 8 == 0;
}

}  // namespace perfbench
