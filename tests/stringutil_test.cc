#include "util/stringutil.h"

#include <gtest/gtest.h>

namespace fdm {
namespace {

TEST(SplitTest, BasicFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitTest, NoSeparator) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t a b \n"), "a b");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("none"), "none");
}

TEST(JoinTest, Joins) {
  EXPECT_EQ(Join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(Join({"one"}, ", "), "one");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(PadTest, LeftAndRight) {
  EXPECT_EQ(PadLeft("ab", 5), "   ab");
  EXPECT_EQ(PadRight("ab", 5), "ab   ");
  EXPECT_EQ(PadLeft("abcdef", 3), "abcdef");
  EXPECT_EQ(PadRight("abcdef", 3), "abcdef");
}

TEST(ParseIntTest, AcceptsOnlyWholeInRangeDecimals) {
  int64_t i = 0;
  EXPECT_TRUE(ParseInt64("-42", &i));
  EXPECT_EQ(i, -42);
  uint64_t u = 0;
  EXPECT_TRUE(ParseUint64("18446744073709551615", &u));
  EXPECT_EQ(u, ~uint64_t{0});
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x10",
                          "18446744073709551616"}) {
    EXPECT_FALSE(ParseUint64(bad, &u)) << bad;
  }
  EXPECT_FALSE(ParseInt64("9223372036854775808", &i));
  EXPECT_FALSE(ParseInt64("12a", &i));
}

}  // namespace
}  // namespace fdm
