#include "core/options.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.h"

namespace hpcarbon::options {
namespace {

/// Every field kind a command binds, with the table that binds them.
struct Fields {
  bool verbose = false;
  std::string name = "default";
  double rate = 2.5;
  double gap = 0;
  int count = 7;
  std::size_t threads = 0;
  std::uint64_t seed = 42;
  std::optional<int> offset;
  std::vector<std::string> items;
  std::vector<std::string> repeats;
  std::vector<std::string> positionals;

  Table table() {
    Table t("demo", "[ARG...]", "a table over every kind");
    t.flag("--verbose", &verbose, "say more")
        .text("--name", "TEXT", &name, "a name")
        .number("--rate", "R", &rate, {.lo = 0, .lo_open = true}, "a rate")
        .number("--gap", "S", &gap, {.lo = 0, .hi = 1e6}, "a gap")
        .integer("--count", "N", &count, 1, 100, "a count")
        .integer("--threads", "N", &threads, 0, 4096, "threads")
        .integer("--seed", "S", &seed, 0, kMaxExact, "a seed")
        .integer("--offset", "H", &offset, -12, 14, "an offset")
        .list(
            "--items", "a,b,...",
            [this](const std::string& item) { items.push_back(item); },
            "a list")
        .repeated(
            "--repeat", "X",
            [this](const std::string& v) { repeats.push_back(v); },
            "a repeatable flag")
        .positional(
            [this](const std::string& arg) { positionals.push_back(arg); });
    return t;
  }
};

/// Parse `args` into `f`; true unless --help stopped it.
bool parse(Fields& f, std::vector<std::string> args,
           std::ostream* help = nullptr) {
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  std::ostringstream sink;
  return f.table().parse(static_cast<int>(argv.size()), argv.data(),
                         help != nullptr ? *help : sink);
}

/// The what() of the Error parsing `args` throws ("" when none).
std::string error_of(std::vector<std::string> args) {
  Fields f;
  try {
    parse(f, std::move(args));
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Options, DefaultsSurviveAnEmptyArgv) {
  Fields f;
  EXPECT_TRUE(parse(f, {}));
  EXPECT_FALSE(f.verbose);
  EXPECT_EQ(f.name, "default");
  EXPECT_EQ(f.rate, 2.5);
  EXPECT_EQ(f.count, 7);
  EXPECT_FALSE(f.offset.has_value());
  EXPECT_TRUE(f.items.empty());
}

TEST(Options, EachKindLandsInItsField) {
  Fields f;
  EXPECT_TRUE(parse(f, {"--verbose", "--name", "x y", "--rate", "0.5",
                        "--gap", "0", "--count", "100", "--threads", "4.0",
                        "--seed", "9007199254740992", "--offset", "14",
                        "--items", "a,b", "--repeat", "r1"}));
  EXPECT_TRUE(f.verbose);
  EXPECT_EQ(f.name, "x y");
  EXPECT_EQ(f.rate, 0.5);
  EXPECT_EQ(f.gap, 0.0);
  EXPECT_EQ(f.count, 100);
  EXPECT_EQ(f.threads, 4u);  // a whole number spelled as a decimal
  EXPECT_EQ(f.seed, std::uint64_t{1} << 53);
  EXPECT_EQ(f.offset, 14);
  EXPECT_EQ(f.items, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(f.repeats, (std::vector<std::string>{"r1"}));
}

TEST(Options, LastScalarWinsListsAndRepeatsAccumulate) {
  Fields f;
  EXPECT_TRUE(parse(f, {"--count", "3", "--count", "5", "--name", "a",
                        "--name", "b", "--items", "x,,y,", "--items", "z",
                        "--repeat", "1", "--repeat", "2", "--offset", "1",
                        "--offset", "-1"}));
  EXPECT_EQ(f.count, 5);
  EXPECT_EQ(f.name, "b");
  EXPECT_EQ(f.items, (std::vector<std::string>{"x", "y", "z"}));
  EXPECT_EQ(f.repeats, (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(f.offset, -1);
}

TEST(Options, ValuesAreTakenVerbatimEvenWithALeadingDash) {
  Fields f;
  EXPECT_TRUE(parse(f, {"--offset", "-5", "--name", "--help", "--repeat",
                        "-", "--items", "-a,-b"}));
  EXPECT_EQ(f.offset, -5);
  EXPECT_EQ(f.name, "--help");  // a value, not the help flag
  EXPECT_EQ(f.repeats, (std::vector<std::string>{"-"}));
  EXPECT_EQ(f.items, (std::vector<std::string>{"-a", "-b"}));
}

TEST(Options, BareDashAndEmptyArgumentsArePositional) {
  Fields f;
  EXPECT_TRUE(parse(f, {"first", "-", "--verbose", "", "last"}));
  EXPECT_EQ(f.positionals,
            (std::vector<std::string>{"first", "-", "", "last"}));
  EXPECT_TRUE(f.verbose);
}

TEST(Options, PositionalWithoutACallbackIsAnError) {
  Table t("bare", "", "");
  char arg[] = "stray";
  char* argv[] = {arg};
  std::ostringstream sink;
  try {
    t.parse(1, argv, sink);
    FAIL() << "a stray positional was accepted";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 "unexpected bare argument 'stray' (see `hpcarbon bare "
                 "--help`)");
  }
}

TEST(Options, MissingValueAndUnknownFlagAreWordedOneWay) {
  EXPECT_EQ(error_of({"--count"}), "--count needs a value");
  EXPECT_EQ(error_of({"--verbose", "--items"}), "--items needs a value");
  EXPECT_EQ(error_of({"--bogus"}),
            "unknown demo flag '--bogus' (see `hpcarbon demo --help`)");
  // No --flag=value form and no prefix abbreviation.
  EXPECT_EQ(error_of({"--count=3"}),
            "unknown demo flag '--count=3' (see `hpcarbon demo --help`)");
  EXPECT_EQ(error_of({"--coun", "3"}),
            "unknown demo flag '--coun' (see `hpcarbon demo --help`)");
  EXPECT_EQ(error_of({"-5"}),
            "unknown demo flag '-5' (see `hpcarbon demo --help`)");
}

// Integer fields are range-checked on the parsed double before any cast:
// each of these would be undefined behaviour or a silent wrap if cast
// first, and each must leave the field untouched.
TEST(Options, IntegerRangeIsCheckedBeforeTheCast) {
  for (const char* bad : {"-1", "2.5", "1e30", "nan", "inf", "-inf", "abc",
                          "", "8x", "4097"}) {
    Fields f;
    try {
      parse(f, {"--threads", bad});
      FAIL() << "--threads accepted '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("--threads expects an integer in [0, 4096], "
                            "got '") +
                    bad + "'");
    }
    EXPECT_EQ(f.threads, 0u) << bad;
  }
  for (const char* bad : {"-1", "2.5", "1e30", "nan", "inf", "1e16"}) {
    EXPECT_EQ(error_of({"--seed", bad}),
              std::string("--seed expects an integer in [0, "
                          "9007199254740992], got '") +
                  bad + "'")
        << bad;
  }
  EXPECT_EQ(error_of({"--offset", "15"}),
            "--offset expects an integer in [-12, 14], got '15'");
  EXPECT_EQ(error_of({"--count", "0"}),
            "--count expects an integer in [1, 100], got '0'");
}

TEST(Options, NumbersMustBeFiniteAndInRange) {
  for (const char* bad :
       {"-1", "0", "nan", "inf", "-inf", "1e999", "abc", ""}) {
    Fields f;
    try {
      parse(f, {"--rate", bad});
      FAIL() << "--rate accepted '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("--rate expects a number in (0, inf), got '") +
                    bad + "'");
    }
    EXPECT_EQ(f.rate, 2.5) << bad;
  }
  EXPECT_EQ(error_of({"--gap", "1000001"}),
            "--gap expects a number in [0, 1000000], got '1000001'");
  EXPECT_EQ(error_of({"--gap", "nan"}),
            "--gap expects a number in [0, 1000000], got 'nan'");
  Fields f;
  EXPECT_TRUE(parse(f, {"--gap", "1e6", "--rate", "1e-300"}));
  EXPECT_EQ(f.gap, 1e6);
  EXPECT_EQ(f.rate, 1e-300);
}

TEST(Options, HelpPrintsTheTableAndStopsParsing) {
  for (const char* spelling : {"--help", "-h"}) {
    Fields f;
    std::ostringstream help;
    EXPECT_FALSE(parse(f, {"--count", "3", spelling, "--count", "bad"}, &help))
        << spelling;
    EXPECT_EQ(f.count, 3) << spelling;  // later flags are not parsed
    const std::string text = help.str();
    EXPECT_EQ(text.rfind("usage: hpcarbon demo [ARG...]\na table over every "
                         "kind\n",
                         0),
              0u)
        << text;
    for (const char* line :
         {"  --verbose                 say more\n",
          "  --items a,b,...           a list\n",
          "  --offset H                an offset\n",
          "  -h, --help                print this help and exit\n"}) {
      EXPECT_NE(text.find(line), std::string::npos) << line << text;
    }
  }
}

TEST(Options, IntegerBoundsMustFitTheFieldAndTwoToThe53) {
  Table t("demo", "", "");
  int narrow = 0;
  std::uint64_t wide = 0;
  EXPECT_THROW(t.integer("--narrow", "N", &narrow, 0, 1e10, ""), Error);
  EXPECT_THROW(t.integer("--wide", "N", &wide, 0, 0x1p60, ""), Error);
  EXPECT_THROW(t.integer("--wide", "N", &wide, -1, 10, ""), Error);
  EXPECT_NO_THROW(t.integer("--wide", "N", &wide, 0, kMaxExact, ""));
}

}  // namespace
}  // namespace hpcarbon::options
