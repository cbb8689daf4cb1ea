#include "resilience/util/cli.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <system_error>

namespace resilience::util {

CliParser::CliParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void CliParser::add_flag(const std::string& name, const std::string& default_value,
                         const std::string& help) {
  flags_[name] = Flag{default_value, help, /*is_bool=*/false, std::nullopt};
}

void CliParser::add_bool_flag(const std::string& name, const std::string& help) {
  flags_[name] = Flag{"false", help, /*is_bool=*/true, std::nullopt};
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::optional<std::string> inline_value;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    const auto it = flags_.find(name);
    if (it == flags_.end()) {
      std::fprintf(stderr, "%s: unknown flag --%s\n", program_.c_str(), name.c_str());
      print_usage();
      return false;
    }
    Flag& flag = it->second;
    if (flag.is_bool) {
      flag.value = inline_value.value_or("true");
    } else if (inline_value) {
      flag.value = *inline_value;
    } else {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: flag --%s requires a value\n", program_.c_str(),
                     name.c_str());
        print_usage();
        return false;
      }
      flag.value = argv[++i];
    }
  }
  return true;
}

std::string CliParser::get_string(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    throw std::invalid_argument("CliParser: unregistered flag " + name);
  }
  return it->second.value.value_or(it->second.default_value);
}

bool CliParser::get_bool(const std::string& name) const {
  const std::string v = get_string(name);
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

std::optional<std::int64_t> CliParser::checked_int(
    const std::string& name, std::int64_t min_value,
    std::int64_t max_value) const {
  const std::string text = get_string(name);
  std::int64_t value = 0;
  const char* const end = text.data() + text.size();
  const std::from_chars_result result =
      std::from_chars(text.data(), end, value, 10);
  if (text.empty() || result.ec != std::errc() || result.ptr != end) {
    std::fprintf(stderr, "%s: --%s expects an integer, got '%s'\n",
                 program_.c_str(), name.c_str(), text.c_str());
    return std::nullopt;
  }
  if (value < min_value || value > max_value) {
    if (max_value == INT64_MAX) {
      std::fprintf(stderr, "%s: --%s must be >= %lld, got %lld\n",
                   program_.c_str(), name.c_str(),
                   static_cast<long long>(min_value),
                   static_cast<long long>(value));
    } else {
      std::fprintf(stderr, "%s: --%s must be in [%lld, %lld], got %lld\n",
                   program_.c_str(), name.c_str(),
                   static_cast<long long>(min_value),
                   static_cast<long long>(max_value),
                   static_cast<long long>(value));
    }
    return std::nullopt;
  }
  return value;
}

std::optional<std::uint64_t> CliParser::checked_uint64(
    const std::string& name, std::uint64_t min_value,
    std::uint64_t max_value) const {
  const std::string text = get_string(name);
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const std::from_chars_result result =
      std::from_chars(text.data(), end, value, 10);
  if (text.empty() || result.ec != std::errc() || result.ptr != end) {
    std::fprintf(stderr, "%s: --%s expects an unsigned integer, got '%s'\n",
                 program_.c_str(), name.c_str(), text.c_str());
    return std::nullopt;
  }
  if (value < min_value || value > max_value) {
    if (max_value == UINT64_MAX) {
      std::fprintf(stderr, "%s: --%s must be >= %llu, got %llu\n",
                   program_.c_str(), name.c_str(),
                   static_cast<unsigned long long>(min_value),
                   static_cast<unsigned long long>(value));
    } else {
      std::fprintf(stderr, "%s: --%s must be in [%llu, %llu], got %llu\n",
                   program_.c_str(), name.c_str(),
                   static_cast<unsigned long long>(min_value),
                   static_cast<unsigned long long>(max_value),
                   static_cast<unsigned long long>(value));
    }
    return std::nullopt;
  }
  return value;
}

std::optional<double> CliParser::checked_double(const std::string& name,
                                                double min_value,
                                                double max_value) const {
  const std::string text = get_string(name);
  double value = 0.0;
  std::size_t consumed = 0;
  bool parsed = false;
  try {
    value = std::stod(text, &consumed);
    parsed = consumed == text.size() && std::isfinite(value);
  } catch (const std::exception&) {
    parsed = false;
  }
  if (!parsed) {
    std::fprintf(stderr, "%s: --%s expects a finite number, got '%s'\n",
                 program_.c_str(), name.c_str(), text.c_str());
    return std::nullopt;
  }
  if (value < min_value || value > max_value) {
    std::fprintf(stderr, "%s: --%s must be in [%g, %g], got %g\n",
                 program_.c_str(), name.c_str(), min_value, max_value, value);
    return std::nullopt;
  }
  return value;
}

bool CliParser::was_set(const std::string& name) const {
  const auto it = flags_.find(name);
  return it != flags_.end() && it->second.value.has_value();
}

void CliParser::print_usage() const {
  std::printf("%s — %s\n\nFlags:\n", program_.c_str(), description_.c_str());
  for (const auto& [name, flag] : flags_) {
    std::printf("  --%-22s %s (default: %s)\n", name.c_str(), flag.help.c_str(),
                flag.default_value.c_str());
  }
  std::printf("  --%-22s %s\n", "help", "show this message");
}

}  // namespace resilience::util
