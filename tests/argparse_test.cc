#include "util/argparse.h"

#include <climits>

#include <gtest/gtest.h>

namespace fdm {
namespace {

ArgParser Parse(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  static std::vector<char*> argv;
  argv.clear();
  for (auto& s : storage) argv.push_back(s.data());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParserTest, EqualsSyntax) {
  auto p = Parse({"prog", "--k=20", "--epsilon=0.1"});
  EXPECT_EQ(p.GetInt("k", 0), 20);
  EXPECT_DOUBLE_EQ(p.GetDouble("epsilon", 0.0), 0.1);
}

TEST(ArgParserTest, SpaceSyntax) {
  auto p = Parse({"prog", "--runs", "5"});
  EXPECT_EQ(p.GetInt("runs", 0), 5);
}

TEST(ArgParserTest, BareFlagIsTrue) {
  auto p = Parse({"prog", "--full"});
  EXPECT_TRUE(p.Has("full"));
  EXPECT_TRUE(p.GetBool("full", false));
}

TEST(ArgParserTest, AbsentFlagUsesDefault) {
  auto p = Parse({"prog"});
  EXPECT_FALSE(p.Has("full"));
  EXPECT_EQ(p.GetInt("k", 42), 42);
  EXPECT_DOUBLE_EQ(p.GetDouble("eps", 2.5), 2.5);
  EXPECT_EQ(p.GetString("name", "dflt"), "dflt");
  EXPECT_FALSE(p.GetBool("full", false));
  EXPECT_TRUE(p.GetBool("full", true));
}

TEST(ArgParserTest, ExplicitBooleans) {
  auto p = Parse({"prog", "--a=true", "--b=false", "--c=1", "--d=0",
                  "--e=yes", "--f=no"});
  EXPECT_TRUE(p.GetBool("a", false));
  EXPECT_FALSE(p.GetBool("b", true));
  EXPECT_TRUE(p.GetBool("c", false));
  EXPECT_FALSE(p.GetBool("d", true));
  EXPECT_TRUE(p.GetBool("e", false));
  EXPECT_FALSE(p.GetBool("f", true));
}

TEST(ArgParserTest, PositionalArguments) {
  auto p = Parse({"prog", "input.csv", "--k=3", "output.csv"});
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "input.csv");
  EXPECT_EQ(p.positional()[1], "output.csv");
  EXPECT_EQ(p.program(), "prog");
}

// A numeric flag that is given must parse: each malformed shape exits 1
// with the flag and a usage line on stderr, instead of running with the
// default (or, cast to a count, a wrapped value).
TEST(ArgParserDeathTest, NonNumberIsAUsageError) {
  auto p = Parse({"prog", "--threads=four", "--rate=fast"});
  EXPECT_EXIT(p.GetInt("threads", 1, 0, INT_MAX), ::testing::ExitedWithCode(1),
              "prog: --threads=four is not an integer in .0, 2147483647.\n"
              "usage: --threads=<an integer in .0, 2147483647.>");
  EXPECT_EXIT(p.GetDouble("rate", 0.0), ::testing::ExitedWithCode(1),
              "--rate=fast is not a number\nusage: --rate=<a number>");
}

TEST(ArgParserDeathTest, TrailingCharactersAreAUsageError) {
  auto p = Parse({"prog", "--max_resident=2x", "--eps=0.1.2", "--k=3 "});
  EXPECT_EXIT(p.GetInt("max_resident", 0, 0), ::testing::ExitedWithCode(1),
              "--max_resident=2x is not an integer");
  EXPECT_EXIT(p.GetDouble("eps", 0.1), ::testing::ExitedWithCode(1),
              "--eps=0.1.2 is not a number");
  EXPECT_EXIT(p.GetInt("k", 0), ::testing::ExitedWithCode(1),
              "--k=3  is not an integer");
}

TEST(ArgParserDeathTest, OutOfRangeIsAUsageError) {
  auto p = Parse({"prog", "--n=9223372036854775808", "--scale=1e999",
                  "--threads=2147483648", "--listen=70000"});
  EXPECT_EXIT(p.GetInt("n", 0), ::testing::ExitedWithCode(1),
              "--n=9223372036854775808 is not an integer in "
              ".-9223372036854775808, 9223372036854775807.");
  EXPECT_EXIT(p.GetDouble("scale", 1.0), ::testing::ExitedWithCode(1),
              "--scale=1e999 is not a number");
  EXPECT_EXIT(p.GetInt("threads", 1, 0, INT_MAX), ::testing::ExitedWithCode(1),
              "--threads=2147483648 is not an integer in .0, 2147483647.");
  EXPECT_EXIT(p.GetInt("listen", 0, 0, 65535), ::testing::ExitedWithCode(1),
              "--listen=70000 is not an integer in .0, 65535.");
}

TEST(ArgParserDeathTest, NegativeCountIsAUsageError) {
  auto p = Parse({"prog", "--cold_cap=-1", "--net_threads=-3"});
  EXPECT_EXIT(p.GetInt("cold_cap", 0, 0), ::testing::ExitedWithCode(1),
              "--cold_cap=-1 is not an integer in .0, 9223372036854775807.");
  EXPECT_EXIT(p.GetInt("net_threads", 2, 0, INT_MAX),
              ::testing::ExitedWithCode(1),
              "--net_threads=-3 is not an integer in .0, 2147483647.");
}

TEST(ArgParserTest, BoundsAdmitValuesInRange) {
  auto p = Parse({"prog", "--cold_cap=0", "--threads=2147483647", "--n"});
  EXPECT_EQ(p.GetInt("cold_cap", 5, 0), 0);
  EXPECT_EQ(p.GetInt("threads", 1, 0, INT_MAX), INT_MAX);
  EXPECT_EQ(p.GetInt("n", 9, 0), 9);  // bare: the default
}

TEST(ArgParserTest, NegativeNumbers) {
  auto p = Parse({"prog", "--lo=-10", "--scale=-0.5"});
  EXPECT_EQ(p.GetInt("lo", 0), -10);
  EXPECT_DOUBLE_EQ(p.GetDouble("scale", 0.0), -0.5);
}

TEST(ArgParserTest, LastOccurrenceWins) {
  auto p = Parse({"prog", "--k=1", "--k=2"});
  EXPECT_EQ(p.GetInt("k", 0), 2);
}

TEST(ArgParserTest, ValueStartingWithDashesIsNotConsumed) {
  // `--a` followed by `--b`: `--a` must be boolean, not swallow `--b`.
  auto p = Parse({"prog", "--a", "--b=3"});
  EXPECT_TRUE(p.GetBool("a", false));
  EXPECT_EQ(p.GetInt("b", 0), 3);
}

}  // namespace
}  // namespace fdm
