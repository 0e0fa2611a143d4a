/**
 * @file
 * Tests for the command-line layer the tools share.
 *
 *  - Strict numbers: sweep::parseU64 takes the full u64 range and
 *    rejects trailing garbage, a '-', overflow and octal/hex prefixes;
 *    sweep::parseFiniteDouble rejects NaN, infinity, a '-' and garbage;
 *    sweep::parseScale also rejects zero.
 *  - The exit-code policy: every ErrCode maps to the code README.md's
 *    table gives it, and cli::run() applies it to a UsageError, a
 *    SimException and a foreign std::exception alike.
 *  - cli::Args: bounded integers and a missing value.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "cli.hh"
#include "common/error.hh"
#include "sweep/gridcli.hh"

namespace
{

using namespace imo;

void
noUsage()
{
}

TEST(CliParse, U64AcceptsTheFullRange)
{
    EXPECT_EQ(sweep::parseU64("0", "--x"), 0u);
    EXPECT_EQ(sweep::parseU64("010", "--x"), 10u);
    EXPECT_EQ(sweep::parseU64("+7", "--x"), 7u);
    EXPECT_EQ(sweep::parseU64("9223372036854775808", "--x"),
              9223372036854775808ull);
    EXPECT_EQ(sweep::parseU64("18446744073709551615", "--x"), UINT64_MAX);
}

TEST(CliParse, U64RejectsMalformedValues)
{
    for (const char *bad : {"", "1O", "1x", "0x10", "1e5", "off", " 5",
                            "5 ", "-1", "-0", "+", "18446744073709551616",
                            "99999999999999999999"}) {
        try {
            sweep::parseU64(bad, "--seed");
            ADD_FAILURE() << "accepted '" << bad << "'";
        } catch (const SimException &e) {
            EXPECT_EQ(e.code(), ErrCode::BadConfig);
            EXPECT_NE(e.error().message.find("--seed"), std::string::npos);
        }
    }
}

TEST(CliParse, FiniteDouble)
{
    EXPECT_DOUBLE_EQ(sweep::parseFiniteDouble("0.25", "--x"), 0.25);
    EXPECT_DOUBLE_EQ(sweep::parseFiniteDouble("1e5", "--x"), 1e5);
    EXPECT_DOUBLE_EQ(sweep::parseFiniteDouble(".5", "--x"), 0.5);
    EXPECT_DOUBLE_EQ(sweep::parseFiniteDouble("+2", "--x"), 2.0);
    EXPECT_DOUBLE_EQ(sweep::parseFiniteDouble("0", "--x"), 0.0);
    for (const char *bad : {"", "abc", "0.1x", "-0.5", "-0", "nan", "NaN",
                            "inf", "-inf", "infinity", "1e400", "0x1p3"}) {
        EXPECT_THROW(sweep::parseFiniteDouble(bad, "--x"), SimException)
            << bad;
    }
}

TEST(CliParse, ScaleMustBePositive)
{
    EXPECT_DOUBLE_EQ(sweep::parseScale("0.1"), 0.1);
    EXPECT_DOUBLE_EQ(sweep::parseScale("20"), 20.0);
    for (const char *bad : {"0", "0.0", "-1", "nan", "inf", "abc"}) {
        try {
            sweep::parseScale(bad);
            ADD_FAILURE() << "accepted scale '" << bad << "'";
        } catch (const SimException &e) {
            EXPECT_NE(e.error().message.find("--scale"), std::string::npos);
        }
    }
}

TEST(CliExit, EveryErrCode)
{
    const auto code = [](ErrCode c) { return cli::exitCodeFor(c); };
    EXPECT_EQ(code(ErrCode::None), 0);
    EXPECT_EQ(code(ErrCode::BadConfig), 3);
    EXPECT_EQ(code(ErrCode::BadProgram), 3);
    EXPECT_EQ(code(ErrCode::Deadlock), 4);
    EXPECT_EQ(code(ErrCode::RunawayExecution), 4);
    EXPECT_EQ(code(ErrCode::FaultInjected), 4);
    EXPECT_EQ(code(ErrCode::BadCheckpoint), 4);
    EXPECT_EQ(code(ErrCode::Internal), 4);
    EXPECT_EQ(code(ErrCode::Interrupted), 5);
    EXPECT_EQ(code(ErrCode::LeaseExpired), 4);
    EXPECT_EQ(code(ErrCode::WorkerLost), 4);
    EXPECT_EQ(code(ErrCode::ResultMismatch), 4);
    EXPECT_EQ(code(ErrCode::StoreCorrupt), 4);
    EXPECT_EQ(code(ErrCode::AuthFailed), 4);
}

TEST(CliExit, RunAppliesThePolicy)
{
    const auto exitOf = [](auto thrower) {
        return cli::run("test", noUsage, [&] {
            thrower();
            return 0;
        });
    };
    EXPECT_EQ(cli::run("test", noUsage, [] { return 0; }), 0);
    EXPECT_EQ(exitOf([] { throw cli::UsageError("bad flag"); }), 2);
    EXPECT_EQ(exitOf([] { throwSimError(ErrCode::BadProgram, "x"); }), 3);
    EXPECT_EQ(exitOf([] { throwSimError(ErrCode::Interrupted, "x"); }), 5);
    // An Internal error (a cross-check divergence a sweep rethrows) is
    // a failure, not bad input; a foreign exception is Internal too.
    EXPECT_EQ(exitOf([] { throwSimError(ErrCode::Internal, "x"); }), 4);
    EXPECT_EQ(exitOf([] { throw std::runtime_error("boom"); }), 4);

    ErrCode seen = ErrCode::None;
    cli::run(
        "test", noUsage, []() -> int { throw std::logic_error("x"); },
        [&](const SimError &err) { seen = err.code; });
    EXPECT_EQ(seen, ErrCode::Internal);
}

TEST(CliArgs, BoundsAndMissingValues)
{
    char prog[] = "tool", len[] = "--len", big[] = "4294967296";
    char seed[] = "--seed";
    char *argv[] = {prog, len, big, seed};
    cli::Args args(4, argv);
    ASSERT_TRUE(args.next());
    EXPECT_TRUE(args.is("--len"));
    EXPECT_THROW(args.u64(UINT32_MAX), SimException);
    ASSERT_TRUE(args.next());
    EXPECT_TRUE(args.is("--seed"));
    EXPECT_THROW(args.value(), cli::UsageError);
    EXPECT_FALSE(args.next());
    EXPECT_EQ(args.all().size(), 3u);
}

} // anonymous namespace
