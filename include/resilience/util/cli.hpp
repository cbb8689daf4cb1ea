#pragma once

// Minimal command-line flag parser shared by examples and bench harnesses.
// Supports "--name value", "--name=value" and boolean "--name" forms plus
// automatic --help generation; deliberately tiny, no external dependency.

#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace resilience::util {

class CliParser {
 public:
  CliParser(std::string program, std::string description);

  /// Registers a flag with a default value; call before parse().
  void add_flag(const std::string& name, const std::string& default_value,
                const std::string& help);
  void add_bool_flag(const std::string& name, const std::string& help);

  /// Parses argv; returns false (after printing usage) on --help or on an
  /// unknown/malformed flag.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string get_string(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;
  [[nodiscard]] bool was_set(const std::string& name) const;

  /// Numeric flag accessors, the only way to read a number, so the tools
  /// can't drift apart in what they accept. The whole value must parse
  /// (no trailing junk), be finite, and land in [min, max]; otherwise a
  /// one-line "<program>: --<name> ..." diagnostic goes to stderr and
  /// nullopt comes back — callers exit 2 (usage error).
  [[nodiscard]] std::optional<std::int64_t> checked_int(
      const std::string& name, std::int64_t min_value,
      std::int64_t max_value = INT64_MAX) const;
  /// Unsigned variant for full-range seed flags (a 64-bit seed has no
  /// meaningful sign, and checked_int would reject the upper half).
  [[nodiscard]] std::optional<std::uint64_t> checked_uint64(
      const std::string& name, std::uint64_t min_value = 0,
      std::uint64_t max_value = UINT64_MAX) const;
  [[nodiscard]] std::optional<double> checked_double(
      const std::string& name, double min_value, double max_value) const;
  /// A flag naming what `lookup` resolves (a platform, a pattern family):
  /// nullopt, after the diagnostic, when it throws std::invalid_argument.
  template <class Lookup>
  [[nodiscard]] auto checked_name(const std::string& name,
                                  const Lookup& lookup) const
      -> std::optional<decltype(lookup(std::string()))> {
    const std::string text = get_string(name);
    try {
      return lookup(text);
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "%s: --%s: %s\n", program_.c_str(), name.c_str(),
                   error.what());
      return std::nullopt;
    }
  }

  /// Positional arguments left over after flag parsing.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  void print_usage() const;

 private:
  struct Flag {
    std::string default_value;
    std::string help;
    bool is_bool = false;
    std::optional<std::string> value;
  };

  std::string program_;
  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace resilience::util
