// Tests for the CLI flag parser.

#include "resilience/util/cli.hpp"

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <string>

namespace ru = resilience::util;

namespace {

ru::CliParser make_parser() {
  ru::CliParser parser("test", "test parser");
  parser.add_flag("runs", "100", "number of runs");
  parser.add_flag("rate", "0.5", "a rate");
  parser.add_flag("name", "hera", "platform name");
  parser.add_bool_flag("verbose", "chatty output");
  return parser;
}

/// One-flag parser with `value` as --n's text, already parsed.
ru::CliParser parsed(const std::string& value) {
  ru::CliParser parser("test", "test parser");
  parser.add_flag("n", "0", "a number");
  const std::string arg = "--n=" + value;
  const std::array argv = {"prog", arg.c_str()};
  EXPECT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  return parser;
}

}  // namespace

TEST(Cli, DefaultsApplyWhenUnset) {
  auto parser = make_parser();
  const std::array argv = {"prog"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(parser.checked_int("runs", 0), 100);
  EXPECT_EQ(parser.checked_double("rate", 0.0, 1.0), 0.5);
  EXPECT_EQ(parser.get_string("name"), "hera");
  EXPECT_FALSE(parser.get_bool("verbose"));
  EXPECT_FALSE(parser.was_set("runs"));
}

TEST(Cli, SpaceSeparatedValues) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--runs", "250", "--name", "atlas"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(parser.checked_int("runs", 0), 250);
  EXPECT_EQ(parser.get_string("name"), "atlas");
  EXPECT_TRUE(parser.was_set("runs"));
}

TEST(Cli, EqualsSeparatedValues) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--rate=0.125"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(parser.checked_double("rate", 0.0, 1.0), 0.125);
}

TEST(Cli, BoolFlagForms) {
  {
    auto parser = make_parser();
    const std::array argv = {"prog", "--verbose"};
    ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_TRUE(parser.get_bool("verbose"));
  }
  {
    auto parser = make_parser();
    const std::array argv = {"prog", "--verbose=false"};
    ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_FALSE(parser.get_bool("verbose"));
  }
}

TEST(Cli, UnknownFlagFails) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--bogus", "1"};
  EXPECT_FALSE(parser.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(Cli, MissingValueFails) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--runs"};
  EXPECT_FALSE(parser.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(Cli, HelpShortCircuits) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--help"};
  EXPECT_FALSE(parser.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(Cli, PositionalArgumentsCollected) {
  auto parser = make_parser();
  const std::array argv = {"prog", "input.txt", "--runs", "5", "output.txt"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  ASSERT_EQ(parser.positional().size(), 2u);
  EXPECT_EQ(parser.positional()[0], "input.txt");
  EXPECT_EQ(parser.positional()[1], "output.txt");
}

TEST(Cli, UnregisteredLookupThrows) {
  auto parser = make_parser();
  const std::array argv = {"prog"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_THROW((void)parser.get_string("nope"), std::invalid_argument);
}

// The strict accessors behind every binary's numeric flags (PR 8): the
// whole value must parse, be finite, and land in range — anything else
// is a nullopt (callers print usage and exit 2), never an exception or
// a silently truncated number.

TEST(Cli, CheckedIntAcceptsInRangeIntegers) {
  EXPECT_EQ(parsed("42").checked_int("n", 0), 42);
  EXPECT_EQ(parsed("0").checked_int("n", 0), 0);
  EXPECT_EQ(parsed("-5").checked_int("n", -10), -5);
  EXPECT_EQ(parsed("65535").checked_int("n", 1, 65535), 65535);
}

TEST(Cli, CheckedIntRejectsGarbageAndTrailingJunk) {
  EXPECT_EQ(parsed("abc").checked_int("n", 0), std::nullopt);
  EXPECT_EQ(parsed("12abc").checked_int("n", 0), std::nullopt);
  EXPECT_EQ(parsed("1.5").checked_int("n", 0), std::nullopt);
  EXPECT_EQ(parsed("").checked_int("n", 0), std::nullopt);
  EXPECT_EQ(parsed(" 7").checked_int("n", 0), std::nullopt);
}

TEST(Cli, CheckedIntEnforcesRange) {
  EXPECT_EQ(parsed("-1").checked_int("n", 0), std::nullopt);
  EXPECT_EQ(parsed("0").checked_int("n", 1, 65535), std::nullopt);
  EXPECT_EQ(parsed("65536").checked_int("n", 1, 65535), std::nullopt);
  EXPECT_EQ(parsed("99999999999999999999").checked_int("n", 0), std::nullopt);
}

TEST(Cli, CheckedDoubleAcceptsFiniteInRange) {
  EXPECT_EQ(parsed("2.5").checked_double("n", 0.0, 10.0), 2.5);
  EXPECT_EQ(parsed("0").checked_double("n", 0.0, 1e18), 0.0);
  EXPECT_EQ(parsed("1e6").checked_double("n", 0.0, 1e18), 1e6);
}

TEST(Cli, CheckedDoubleRejectsGarbageInfinityAndOutOfRange) {
  EXPECT_EQ(parsed("abc").checked_double("n", 0.0, 10.0), std::nullopt);
  EXPECT_EQ(parsed("2.5x").checked_double("n", 0.0, 10.0), std::nullopt);
  EXPECT_EQ(parsed("inf").checked_double("n", 0.0, 1e300), std::nullopt);
  EXPECT_EQ(parsed("nan").checked_double("n", 0.0, 1e300), std::nullopt);
  EXPECT_EQ(parsed("-0.5").checked_double("n", 0.0, 10.0), std::nullopt);
  EXPECT_EQ(parsed("10.5").checked_double("n", 0.0, 10.0), std::nullopt);
}

TEST(Cli, CheckedAccessorsUseTheDefaultWhenUnset) {
  ru::CliParser parser("test", "test parser");
  parser.add_flag("n", "7", "a number");
  const std::array argv = {"prog"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(parser.checked_int("n", 0), 7);
  EXPECT_EQ(parser.checked_double("n", 0.0, 100.0), 7.0);
}
