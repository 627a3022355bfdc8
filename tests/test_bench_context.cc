/**
 * @file
 * Tests for the shared bench harness (bench/bench_common.h): the
 * command line it accepts, the report it always carries, and the exit
 * code finish() turns the verdict into.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

namespace dbsens {
namespace bench {
namespace {

/** An argv built from string literals (argv[0] is the bench name). */
struct Args
{
    explicit Args(std::vector<std::string> a) : strs(std::move(a))
    {
        for (std::string &s : strs)
            ptrs.push_back(s.data());
    }

    int argc() { return int(ptrs.size()); }
    char **argv() { return ptrs.data(); }

    std::vector<std::string> strs;
    std::vector<char *> ptrs;
};

TEST(BenchContext, SmallAcceptedOnlyWhereDeclared)
{
    Args a({"bench_x", "--small"});
    {
        BenchContext ctx(a.argc(), a.argv(), "bench_x",
                         /*has_small=*/true);
        EXPECT_TRUE(ctx.small());
        EXPECT_EQ(ctx.finish(), 0);
    }
    EXPECT_EXIT(BenchContext(a.argc(), a.argv(), "bench_x"),
                ::testing::ExitedWithCode(1),
                "unknown argument '--small'");
}

TEST(BenchContext, UnknownFlagExitsNonZero)
{
    Args a({"bench_x", "--bogus"});
    EXPECT_EXIT(BenchContext(a.argc(), a.argv(), "bench_x",
                             /*has_small=*/true),
                ::testing::ExitedWithCode(1),
                "unknown argument '--bogus'");
}

TEST(BenchContext, FinishReturnsTheVerdict)
{
    Args a({"bench_x"});
    {
        BenchContext ctx(a.argc(), a.argv(), "bench_x");
        EXPECT_EQ(ctx.finish(), 0) << "no verdict passes";
    }
    {
        BenchContext ctx(a.argc(), a.argv(), "bench_x");
        ctx.verdict(true, Json::object());
        EXPECT_EQ(ctx.finish(), 0);
    }
    {
        BenchContext ctx(a.argc(), a.argv(), "bench_x");
        ctx.verdict(false, Json::object());
        EXPECT_NE(ctx.finish(), 0);
        EXPECT_NE(ctx.finish(), 0) << "finish() is idempotent";
    }
}

TEST(BenchContext, UnwritableReportFails)
{
    Args a({"bench_x", "--json",
            ::testing::TempDir() + "no_such_dir/report.json"});
    BenchContext ctx(a.argc(), a.argv(), "bench_x");
    ctx.verdict(true, Json::object());
    EXPECT_NE(ctx.finish(), 0);
}

TEST(BenchContext, JsonReportCarriesSmallAndVerdictPass)
{
    const std::string path =
        ::testing::TempDir() + "bench_context_report.json";
    for (const bool small : {false, true}) {
        std::vector<std::string> args = {"bench_x", "--json", path};
        if (small)
            args.push_back("--small");
        Args a(args);
        {
            BenchContext ctx(a.argc(), a.argv(), "bench_x",
                             /*has_small=*/true);
            Json details = Json::object();
            details["score"] = Json(1.5);
            ctx.verdict(true, std::move(details));
            ASSERT_EQ(ctx.finish(), 0);
        }
        std::string err;
        const Json doc = Json::readFile(path, &err);
        ASSERT_TRUE(err.empty()) << err;
        EXPECT_EQ(doc.at("bench").asString(), "bench_x");
        EXPECT_EQ(doc.at("config").at("small").asBool(), small);
        const Json &v = doc.at("results").at("verdict");
        EXPECT_TRUE(v.at("pass").asBool());
        EXPECT_EQ(v.at("score").asDouble(), 1.5);
        std::remove(path.c_str());
    }
}

TEST(BenchContext, UndeclaredSmallLeavesConfigUntouched)
{
    Args a({"bench_x"});
    BenchContext ctx(a.argc(), a.argv(), "bench_x");
    EXPECT_FALSE(ctx.small());
    EXPECT_FALSE(ctx.config().contains("small"));
}

} // namespace
} // namespace bench
} // namespace dbsens
