// Unit tests for the table builder, the CLI flag parser and the strict
// number parser behind user-typed numbers.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "graph/graph.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace ssau::util {
namespace {

TEST(Table, AlignedPlainTextOutput) {
  Table t({"name", "value"});
  t.row().add("alpha").add(std::uint64_t{42});
  t.row().add("b").add(3.14159, 2);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name "), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.row().add(1).add(2);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, AddWithoutRowStartsOne) {
  Table t({"x"});
  t.add("implicit");
  EXPECT_EQ(t.rows(), 1u);
}

TEST(Cli, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--n=10", "--name=test"};
  Cli cli(3, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 0), 10);
  EXPECT_EQ(cli.get("name", ""), "test");
}

TEST(Cli, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--n", "10"};
  Cli cli(3, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 0), 10);
}

TEST(Cli, BooleanFlag) {
  const char* argv[] = {"prog", "--verbose"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_FALSE(cli.has("quiet"));
}

TEST(Cli, FallbacksApply) {
  const char* argv[] = {"prog"};
  Cli cli(1, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("p", 0.25), 0.25);
  EXPECT_FALSE(cli.get_bool("x", false));
}

TEST(Cli, NumbersAreWholeTokens) {
  const char* argv[] = {"prog", "--n=8", "--neg=-3", "--p=0.5"};
  Cli cli(4, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 0), 8);
  EXPECT_EQ(cli.get_int("neg", 0), -3);
  EXPECT_DOUBLE_EQ(cli.get_double("p", 0.0), 0.5);
}

TEST(Cli, MalformedNumbersThrowNamingTheFlag) {
  const char* argv[] = {"prog", "--a=8junk", "--b=", "--c=0x10", "--d= 8"};
  Cli cli(5, const_cast<char**>(argv));
  for (const char* flag : {"a", "b", "c", "d"}) {
    try {
      (void)cli.get_int(flag, 0);
      ADD_FAILURE() << "get_int accepted --" << flag;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + flag),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW((void)cli.get_double(flag, 0.0), std::invalid_argument)
        << "--" << flag;
  }
}

TEST(Cli, UnreadFlagsAreRejectedByName) {
  // A mistyped flag (--nodes for --n) and --help must stop the program
  // instead of running it with the defaults.
  const char* argv[] = {"prog", "--n=8", "--nodes=16", "--help", "--csv"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 0), 8);
  EXPECT_TRUE(cli.has("csv"));  // has() counts as a read
  try {
    cli.reject_unread();
    ADD_FAILURE() << "reject_unread accepted --nodes and --help";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--nodes"), std::string::npos) << what;
    EXPECT_NE(what.find("--help"), std::string::npos) << what;
    EXPECT_EQ(what.find("--n,"), std::string::npos) << what;
    EXPECT_EQ(what.find("--csv"), std::string::npos) << what;
  }
  // Once read, they are no longer reported.
  EXPECT_EQ(cli.get_int("nodes", 0), 16);
  EXPECT_TRUE(cli.get_bool("help", false));
  EXPECT_NO_THROW(cli.reject_unread());
}

TEST(Cli, CountsRejectNegativesAndOverflowNamingTheFlag) {
  // At the parser, never at a binary: a negative worker count used to cast
  // to 4,294,967,295 workers.
  const char* argv[] = {"prog",       "--workers=-1", "--n=4294967296",
                        "--seeds=-3", "--steps=junk", "--ok=4294967295",
                        "--zero=0",   "--big=18446744073709551615"};
  Cli cli(8, const_cast<char**>(argv));
  const auto expect_rejected = [&](const char* flag, auto read) {
    try {
      (void)read();
      ADD_FAILURE() << "accepted --" << flag;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + flag),
                std::string::npos)
          << e.what();
    }
  };
  expect_rejected("workers",
                  [&] { return cli.get_count<unsigned>("workers", 0); });
  expect_rejected("n", [&] { return cli.get_count<graph::NodeId>("n", 1); });
  expect_rejected("seeds", [&] { return cli.get_count<int>("seeds", 1); });
  expect_rejected("steps",
                  [&] { return cli.get_count<std::uint64_t>("steps", 1); });
  EXPECT_EQ(cli.get_count<graph::NodeId>("ok", 0), 4294967295u);
  EXPECT_EQ(cli.get_count<int>("zero", 5), 0);
  EXPECT_EQ(cli.get_count<std::uint64_t>("big", 0), UINT64_MAX);
  EXPECT_EQ(cli.get_count<std::size_t>("absent", 12), 12u);
}

TEST(Cli, PositionalArguments) {
  const char* argv[] = {"prog", "file1", "--k=2", "file2"};
  Cli cli(4, const_cast<char**>(argv));
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "file1");
  EXPECT_EQ(cli.positional()[1], "file2");
  // Positional arguments are not flags: only the unread --k is rejected.
  EXPECT_THROW(cli.reject_unread(), std::invalid_argument);
  EXPECT_EQ(cli.get_int("k", 0), 2);
  EXPECT_NO_THROW(cli.reject_unread());
}

TEST(ParseNumber, AcceptsWholeTokensThatFit) {
  EXPECT_EQ(parse_number<std::uint64_t>("0"), 0u);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"),
            UINT64_MAX);
  EXPECT_EQ(parse_number<unsigned>("4"), 4u);
  EXPECT_EQ(parse_number<graph::NodeId>("4294967295"), 4294967295u);
  EXPECT_EQ(parse_number<int>("-3"), -3);
  EXPECT_EQ(parse_number<std::uint64_t>("ff", 16), 255u);
  EXPECT_EQ(parse_number<std::uint64_t>("00000000DEADBEEF", 16), 0xDEADBEEFu);
  EXPECT_EQ(parse_number<double>("0.25"), 0.25);
  EXPECT_EQ(parse_number<double>("1e-3"), 1e-3);
}

TEST(ParseNumber, RejectsJunkSignsAndOverflow) {
  // Trailing characters, the lenient std::sto* forms, and empty tokens.
  EXPECT_FALSE(parse_number<std::uint64_t>("1junk"));
  EXPECT_FALSE(parse_number<std::uint64_t>("3x"));
  EXPECT_FALSE(parse_number<std::uint64_t>(""));
  EXPECT_FALSE(parse_number<std::uint64_t>(" 7"));
  EXPECT_FALSE(parse_number<std::uint64_t>("7 "));
  EXPECT_FALSE(parse_number<std::uint64_t>("+7"));
  EXPECT_FALSE(parse_number<double>("0.5x"));
  EXPECT_FALSE(parse_number<double>(""));
  // A sign on an unsigned type never wraps.
  EXPECT_FALSE(parse_number<std::uint64_t>("-1"));
  EXPECT_FALSE(parse_number<unsigned>("-1"));
  // Out of the target type's range: no truncating cast to 32-bit ids.
  EXPECT_FALSE(parse_number<graph::NodeId>("4294967296"));
  EXPECT_FALSE(parse_number<graph::NodeId>("4294967297"));
  EXPECT_FALSE(parse_number<std::uint64_t>("18446744073709551616"));
  EXPECT_FALSE(parse_number<int>("2147483648"));
  // Hex digests: digits of base 16 only, no prefix.
  EXPECT_FALSE(parse_number<std::uint64_t>("zz12", 16));
  EXPECT_FALSE(parse_number<std::uint64_t>("0x12", 16));
  EXPECT_FALSE(parse_number<std::uint64_t>("1g", 16));
}

}  // namespace
}  // namespace ssau::util
