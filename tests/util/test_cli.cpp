#include "pgf/util/cli.hpp"

#include <gtest/gtest.h>

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

TEST(Cli, UnknownBoolSpellingFallsBack) {
    EXPECT_TRUE(make({"--x=maybe"}).get_bool("x", true));
    EXPECT_FALSE(make({"--x=maybe"}).get_bool("x", false));
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

TEST(Cli, LastValueWinsOnRepeat) {
    Cli cli = make({"--n=1", "--n=2"});
    EXPECT_EQ(cli.get_int("n", 0), 2);
}

}  // namespace
}  // namespace pgf
