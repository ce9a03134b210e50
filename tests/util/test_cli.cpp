#include "pgf/util/cli.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace pgf {
namespace {

Cli make(std::initializer_list<const char*> args) {
    std::vector<const char*> argv{"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, EqualsForm) {
    Cli cli = make({"--disks=16", "--ratio=0.05"});
    EXPECT_EQ(cli.get_int("disks", 0), 16);
    EXPECT_DOUBLE_EQ(cli.get_double("ratio", 0.0), 0.05);
}

TEST(Cli, SpaceSeparatedForm) {
    Cli cli = make({"--disks", "8", "--name", "hot2d"});
    EXPECT_EQ(cli.get_int("disks", 0), 8);
    EXPECT_EQ(cli.get_string("name", ""), "hot2d");
}

TEST(Cli, BareFlagIsTrueBool) {
    Cli cli = make({"--verbose"});
    EXPECT_TRUE(cli.has("verbose"));
    EXPECT_TRUE(cli.get_bool("verbose", false));
}

TEST(Cli, BoolSpellings) {
    EXPECT_TRUE(make({"--x=true"}).get_bool("x", false));
    EXPECT_TRUE(make({"--x=YES"}).get_bool("x", false));
    EXPECT_TRUE(make({"--x=1"}).get_bool("x", false));
    EXPECT_FALSE(make({"--x=false"}).get_bool("x", true));
    EXPECT_FALSE(make({"--x=off"}).get_bool("x", true));
    EXPECT_FALSE(make({"--x=0"}).get_bool("x", true));
}

/// The message of the UsageError `read` throws ("" when it throws none).
template <typename Read>
std::string usage_error_of(Read read) {
    try {
        read();
    } catch (const UsageError& e) {
        return e.what();
    }
    return "";
}

TEST(Cli, UnknownBoolSpellingIsAUsageError) {
    const Cli cli = make({"--print=maybe"});
    const std::string err =
        usage_error_of([&] { return cli.get_bool("print", false); });
    EXPECT_NE(err.find("--print"), std::string::npos) << err;
    EXPECT_NE(err.find("'maybe'"), std::string::npos) << err;
}

TEST(Cli, IntegerMustBeTheWholeToken) {
    for (const char* bad : {"abc", "12x", " 12", "1.5", "0x10", "+3"}) {
        const Cli cli = make({"--points", bad});
        const std::string err = usage_error_of(
            [&] { return cli.get_int<std::size_t>("points", 0); });
        EXPECT_NE(err.find("--points"), std::string::npos)
            << "'" << bad << "': " << err;
    }
    EXPECT_EQ(make({"--points", "12"}).get_int<std::size_t>("points", 0), 12u);
}

TEST(Cli, NegativeCountIsAUsageError) {
    const Cli cli = make({"--points", "-5"});
    const std::string err =
        usage_error_of([&] { return cli.get_int<std::size_t>("points", 0); });
    EXPECT_NE(err.find("--points"), std::string::npos) << err;
    EXPECT_NE(err.find("'-5'"), std::string::npos) << err;
    // A signed read still takes it.
    EXPECT_EQ(cli.get_int("points", 0), -5);
}

TEST(Cli, IntegerMustFitItsType) {
    const Cli cli = make({"--disks=4294967296", "--n=99999999999999999999"});
    EXPECT_FALSE(usage_error_of([&] {
                     return cli.get_int<std::uint32_t>("disks", 0);
                 }).empty());
    EXPECT_EQ(cli.get_int<std::uint64_t>("disks", 0), 4294967296u);
    EXPECT_FALSE(
        usage_error_of([&] { return cli.get_int("n", 0); }).empty());
}

TEST(Cli, DoubleMustBeAWholeFiniteNumber) {
    for (const char* bad : {"abc", "0.1x", "nan", "inf", "1e999"}) {
        const Cli cli = make({"--ratio", bad});
        const std::string err =
            usage_error_of([&] { return cli.get_double("ratio", 0.0); });
        EXPECT_NE(err.find("--ratio"), std::string::npos)
            << "'" << bad << "': " << err;
    }
    EXPECT_DOUBLE_EQ(make({"--ratio=-2.5e-1"}).get_double("ratio", 0.0),
                     -0.25);
}

TEST(EnvInt, ParsesLikeAFlagAndNamesTheVariable) {
    constexpr const char* kVar = "PGF_TEST_ENV_INT";
    ::unsetenv(kVar);
    EXPECT_EQ(env_int<unsigned>(kVar), std::nullopt);
    ::setenv(kVar, "", 1);
    EXPECT_EQ(env_int<unsigned>(kVar), std::nullopt);
    ::setenv(kVar, "12", 1);
    EXPECT_EQ(env_int<unsigned>(kVar), 12u);
    for (const char* bad : {"banana", "12x", "-5"}) {
        ::setenv(kVar, bad, 1);
        const std::string err =
            usage_error_of([&] { return env_int<unsigned>(kVar); });
        EXPECT_NE(err.find(kVar), std::string::npos)
            << "'" << bad << "': " << err;
    }
    ::unsetenv(kVar);
}

TEST(Cli, MissingFlagsUseFallbacks) {
    Cli cli = make({});
    EXPECT_FALSE(cli.has("absent"));
    EXPECT_EQ(cli.get_int("absent", -7), -7);
    EXPECT_DOUBLE_EQ(cli.get_double("absent", 2.5), 2.5);
    EXPECT_EQ(cli.get_string("absent", "dflt"), "dflt");
    EXPECT_TRUE(cli.get_bool("absent", true));
}

TEST(Cli, PositionalArgumentsPreserveOrder) {
    Cli cli = make({"first", "--k=1", "second"});
    ASSERT_EQ(cli.positional().size(), 2u);
    EXPECT_EQ(cli.positional()[0], "first");
    EXPECT_EQ(cli.positional()[1], "second");
}

TEST(Cli, FlagFollowedByFlagIsBare) {
    Cli cli = make({"--a", "--b=2"});
    EXPECT_TRUE(cli.get_bool("a", false));
    EXPECT_EQ(cli.get_int("b", 0), 2);
}

TEST(Cli, ProgramNameCaptured) {
    Cli cli = make({});
    EXPECT_EQ(cli.program(), "prog");
}

TEST(Cli, CheckFlagsNamesTheUnknownFlag) {
    Cli cli = make({"--points=10", "--no-such-flag", "3", "pos"});
    EXPECT_TRUE(cli.check_flags({"points", "no-such-flag"}));
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(cli.check_flags({"points", "seed"}));
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("unknown flag --no-such-flag"), std::string::npos)
        << err;
    EXPECT_TRUE(make({"pos"}).check_flags({}));
}

TEST(Cli, RepeatedFlagIsAUsageError) {
    for (const Cli& cli : {make({"--points", "5", "--points", "7"}),
                           make({"--points=5", "--seed=1", "--points=5"}),
                           make({"--print", "--print=false"})}) {
        ::testing::internal::CaptureStderr();
        EXPECT_FALSE(cli.check_flags({"points", "seed", "print"}));
        const std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find("prog: flag --"), std::string::npos) << err;
        EXPECT_NE(err.find(" given twice"), std::string::npos) << err;
    }
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(make({"--seed=1", "--seed=2"}).check_flags({"seed"}));
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "prog: flag --seed given twice\n");
}

TEST(Cli, BareValueFlagIsAUsageError) {
    // `--points --out f`: --points has no value, so reading it as a number
    // must fail rather than fall back to the default count.
    const Cli cli = make({"--points", "--out", "f", "--ratio", "--name="});
    EXPECT_TRUE(cli.check_flags({"points", "out", "ratio", "name"}));
    EXPECT_EQ(cli.get_string("out", ""), "f");
    const std::string err = usage_error_of(
        [&] { return cli.get_int<std::size_t>("points", 10000); });
    EXPECT_EQ(err, "--points: expected a value");
    EXPECT_EQ(usage_error_of([&] { return cli.get_double("ratio", 0.1); }),
              "--ratio: expected a value");
    EXPECT_EQ(usage_error_of([&] { return cli.get_string("name", "x"); }),
              "--name: expected a value");
    EXPECT_TRUE(cli.get_bool("points", false));  // a bare bool stays true
}

}  // namespace
}  // namespace pgf
