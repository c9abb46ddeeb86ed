// CliFlags strictness tests: the unknown-flag wall (check_unknown) and the
// full-token numeric parsing that keeps `--threads 4abc` from silently
// running with 4.  The basic parsing forms are covered in test_common.cpp;
// this suite pins the fail-loud contract the bench/example binaries rely on.
#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>

namespace ecthub {
namespace {

TEST(CliFlagsUnknown, UnconsumedFlagThrowsByName) {
  // The motivating bug: `--lockstep-treads 4` parsed fine and silently ran
  // defaults because nothing ever asked for the typo'd key.
  const char* argv[] = {"prog", "--lockstep-treads", "4"};
  const CliFlags flags(3, argv);
  (void)flags.get_size("lockstep-threads", 1);
  try {
    flags.check_unknown();
    FAIL() << "check_unknown accepted an unconsumed flag";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--lockstep-treads"), std::string::npos)
        << "the error must name the offending flag: " << e.what();
  }
}

TEST(CliFlagsUnknown, ConsumedFlagsPass) {
  const char* argv[] = {"prog", "--alpha", "3", "--beta=x", "--gamma"};
  const CliFlags flags(5, argv);
  (void)flags.get_size("alpha", 0);
  (void)flags.get_string("beta", "");
  (void)flags.get_bool("gamma");
  EXPECT_NO_THROW(flags.check_unknown());
}

TEST(CliFlagsUnknown, HasCountsAsConsumption) {
  // Conditional readers probe with has() first; the probe alone must mark
  // the flag recognized even when the branch never reads the value.
  const char* argv[] = {"prog", "--metro", "8"};
  const CliFlags flags(3, argv);
  EXPECT_TRUE(flags.has("metro"));
  EXPECT_NO_THROW(flags.check_unknown());
}

TEST(CliFlagsUnknown, AbsentFlagReadsDoNotMaskOtherUnknowns) {
  const char* argv[] = {"prog", "--oops", "1"};
  const CliFlags flags(3, argv);
  (void)flags.get_size("days", 7);  // absent: returns the default
  EXPECT_THROW(flags.check_unknown(), std::invalid_argument);
}

TEST(CliFlagsUnknown, ListsEveryUnknownFlag) {
  const char* argv[] = {"prog", "--first-typo", "1", "--second-typo", "2"};
  const CliFlags flags(5, argv);
  try {
    flags.check_unknown();
    FAIL() << "check_unknown accepted two unconsumed flags";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--first-typo"), std::string::npos) << what;
    EXPECT_NE(what.find("--second-typo"), std::string::npos) << what;
  }
}

TEST(CliFlagsUnknown, NoArgumentsIsVacuouslyClean) {
  const char* argv[] = {"prog"};
  const CliFlags flags(1, argv);
  EXPECT_NO_THROW(flags.check_unknown());
}

TEST(CliFlagsUnknown, StrayPositionalsThrowUnlessRead) {
  // `stations=2500` without the leading -- parses as a positional and used
  // to silently run defaults — the same bug class as a typo'd flag name.
  const char* argv[] = {"prog", "stations=2500", "--seed", "7"};
  const CliFlags flags(4, argv);
  (void)flags.get_size("seed", 0);
  try {
    flags.check_unknown();
    FAIL() << "check_unknown accepted a stray positional";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("stations=2500"), std::string::npos)
        << "the error must name the stray argument: " << e.what();
  }
}

TEST(CliFlagsStrict, IntRejectsTrailingGarbage) {
  // std::stoll("4abc") yields 4; the accessor must reject the partial parse.
  const char* argv[] = {"prog", "--threads", "4abc"};
  const CliFlags flags(3, argv);
  EXPECT_THROW((void)flags.get_size("threads", 1), std::invalid_argument);
}

TEST(CliFlagsStrict, SizeRejectsSignsAndSpaces) {
  // Counts used to go through std::stoll and a cast to an unsigned type, so
  // `--episodes -1` wrapped to 2^64 - 1 and ran until killed (or died in
  // vector::reserve).  Only a plain digit run that fits in size_t parses.
  for (const char* value : {"-4", "+4", " 4", "4 ", "0x10", "1e3", "18446744073709551616"}) {
    const char* argv[] = {"prog", "--episodes", value};
    const CliFlags flags(3, argv);
    try {
      (void)flags.get_size("episodes", 1);
      FAIL() << "get_size accepted '" << value << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--episodes"), std::string::npos)
          << "the error must name the flag: " << e.what();
    }
  }
  const std::size_t max = std::numeric_limits<std::size_t>::max();
  const std::string max_text = std::to_string(max);
  const char* argv[] = {"prog", "--episodes", max_text.c_str()};
  EXPECT_EQ(CliFlags(3, argv).get_size("episodes", 1), max);
}

TEST(CliFlagsStrict, DoubleRejectsTrailingGarbage) {
  const char* argv[] = {"prog", "--discount", "0.2x", "--rate", "1e3junk"};
  const CliFlags flags(5, argv);
  EXPECT_THROW((void)flags.get_double("discount", 0.0), std::invalid_argument);
  EXPECT_THROW((void)flags.get_double("rate", 0.0), std::invalid_argument);
}

TEST(CliFlagsStrict, DoubleRejectsNonFinite) {
  // std::stod parses these in full, so only a finiteness check stops them:
  // `--discount inf` used to run as an infinite discount.
  for (const char* value : {"nan", "NaN", "-nan", "inf", "-inf", "infinity", "-Infinity"}) {
    const char* argv[] = {"prog", "--discount", value};
    const CliFlags flags(3, argv);
    try {
      (void)flags.get_double("discount", 0.0);
      FAIL() << "get_double accepted '" << value << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--discount"), std::string::npos)
          << "the error must name the flag: " << e.what();
    }
  }
}

TEST(CliFlagsStrict, CleanNumbersStillParse) {
  const char* argv[] = {"prog", "--threads", "4", "--discount", "0.25", "--rate", "1e3"};
  const CliFlags flags(7, argv);
  EXPECT_EQ(flags.get_size("threads", 0), 4u);
  EXPECT_DOUBLE_EQ(flags.get_double("discount", 0.0), 0.25);
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0.0), 1000.0);
  EXPECT_NO_THROW(flags.check_unknown());
}

TEST(CliFlagsStrict, BooleanSwitchValueIsNotAnInteger) {
  // `--n` with no value parses as the switch value "true"; asking for an
  // integer must fail loud, not yield some truncation of "true".
  const char* argv[] = {"prog", "--n"};
  const CliFlags flags(2, argv);
  EXPECT_THROW((void)flags.get_size("n", 0), std::invalid_argument);
}

}  // namespace
}  // namespace ecthub
