#include "util/options.hpp"

#include <gtest/gtest.h>

namespace bu = balbench::util;

namespace {
bool parse(bu::Options& o, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return o.parse(static_cast<int>(args.size()), args.data());
}
}  // namespace

TEST(Options, ParsesAllKinds) {
  bool flag = false;
  std::int64_t n = 4;
  double x = 1.5;
  std::string s = "abc";
  bu::Options o("test");
  o.add_flag("flag", &flag, "a flag");
  o.add_int("n", &n, "an int");
  o.add_double("x", &x, "a double");
  o.add_string("s", &s, "a string");

  EXPECT_TRUE(parse(o, {"--flag", "--n", "17", "--x=2.5", "--s", "hello"}));
  EXPECT_TRUE(flag);
  EXPECT_EQ(n, 17);
  EXPECT_DOUBLE_EQ(x, 2.5);
  EXPECT_EQ(s, "hello");
}

TEST(Options, DefaultsSurviveEmptyArgv) {
  std::int64_t n = 4;
  bu::Options o("test");
  o.add_int("n", &n, "an int");
  EXPECT_TRUE(parse(o, {}));
  EXPECT_EQ(n, 4);
}

TEST(Options, UnknownOptionThrows) {
  bu::Options o("test");
  EXPECT_THROW(parse(o, {"--nope"}), std::invalid_argument);
}

TEST(Options, MissingValueThrows) {
  std::int64_t n = 0;
  bu::Options o("test");
  o.add_int("n", &n, "an int");
  EXPECT_THROW(parse(o, {"--n"}), std::invalid_argument);
}

TEST(Options, PositionalArgThrows) {
  bu::Options o("test");
  EXPECT_THROW(parse(o, {"stray"}), std::invalid_argument);
}

TEST(Options, PositionalsCollectedInOrder) {
  std::int64_t n = 0;
  std::vector<std::string> files;
  bu::Options o("test");
  o.add_int("n", &n, "an int");
  o.add_positionals(&files, "FILE", "input files");
  EXPECT_TRUE(parse(o, {"a.json", "--n", "3", "b.json"}));
  EXPECT_EQ(n, 3);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "a.json");
  EXPECT_EQ(files[1], "b.json");
}

TEST(Options, PositionalMetavarShownInHelp) {
  std::vector<std::string> files;
  bu::Options o("test");
  o.add_positionals(&files, "FILE", "input files");
  EXPECT_NE(o.help().find("FILE"), std::string::npos);
  EXPECT_NE(o.help().find("input files"), std::string::npos);
}

TEST(Options, HelpReturnsFalseAndListsOptions) {
  std::int64_t n = 0;
  bu::Options o("my tool");
  o.add_int("n", &n, "an int");
  EXPECT_FALSE(parse(o, {"--help"}));
  EXPECT_NE(o.help().find("--n"), std::string::npos);
  EXPECT_NE(o.help().find("my tool"), std::string::npos);
}

TEST(Options, DuplicateRegistrationThrows) {
  std::int64_t n = 0;
  bu::Options o("test");
  o.add_int("n", &n, "an int");
  EXPECT_THROW(o.add_int("n", &n, "again"), std::logic_error);
}

TEST(Options, FlagWithExplicitValue) {
  bool flag = true;
  bu::Options o("test");
  o.add_flag("flag", &flag, "a flag");
  EXPECT_TRUE(parse(o, {"--flag=false"}));
  EXPECT_FALSE(flag);
}

// Every value must parse whole: a prefix is not a number, and a float
// must be finite (nan would silently switch off a `x > threshold` gate).
TEST(Options, MalformedNumbersThrowNamingTheOption) {
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "1e999", "0.1abc", "",
                          "abc", "1.5.2"}) {
    double x = 0.5;
    bu::Options o("test");
    o.add_double("threshold", &x, "a double");
    try {
      parse(o, {"--threshold", bad});
      ADD_FAILURE() << "accepted --threshold '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--threshold"), std::string::npos)
          << e.what();
    }
    EXPECT_DOUBLE_EQ(x, 0.5) << bad;
  }
  for (const char* bad : {"12abc", "1.5", "", "0x10", "99999999999999999999"}) {
    std::int64_t n = 4;
    bu::Options o("test");
    o.add_int("repeat", &n, "an int");
    try {
      parse(o, {"--repeat", bad});
      ADD_FAILURE() << "accepted --repeat '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--repeat"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(n, 4) << bad;
  }
}

TEST(Options, WholeNumbersStillParse) {
  double x = 0.0;
  std::int64_t n = 0;
  bu::Options o("test");
  o.add_double("x", &x, "a double");
  o.add_int("n", &n, "an int");
  EXPECT_TRUE(parse(o, {"--x", "1e-3", "--n=-7"}));
  EXPECT_DOUBLE_EQ(x, 1e-3);
  EXPECT_EQ(n, -7);
  EXPECT_DOUBLE_EQ(bu::parse_double("0.10", "--t"), 0.10);
  EXPECT_THROW(bu::parse_double("3x", "--handicap factor"),
               std::invalid_argument);
}
