/**
 * @file
 * Unit tests for the hierarchical stats registry (core/stats.h), the
 * JSON document model (core/json.h) and histogram quantiles.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/histogram.h"
#include "core/json.h"
#include "core/logging.h"
#include "core/stats.h"

namespace dbsens {
namespace {

TEST(Json, BuildDumpParseRoundTrip)
{
    Json doc = Json::object();
    doc["name"] = Json("bench \"x\"\n");
    doc["count"] = Json(int64_t(42));
    doc["ratio"] = Json(0.5);
    doc["on"] = Json(true);
    Json arr = Json::array();
    arr.push(Json(1));
    arr.push(Json(2.5));
    arr.push(Json());
    doc["items"] = std::move(arr);

    const std::string text = doc.dump(2);
    std::string err;
    const Json back = Json::parse(text, &err);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_EQ(back.at("name").asString(), "bench \"x\"\n");
    EXPECT_EQ(back.at("count").asInt(), 42);
    EXPECT_DOUBLE_EQ(back.at("ratio").asDouble(), 0.5);
    EXPECT_TRUE(back.at("on").asBool());
    ASSERT_EQ(back.at("items").size(), 3u);
    EXPECT_TRUE(back.at("items").at(2).isNull());
    // Compact output parses too and has no whitespace padding.
    const std::string compact = doc.dump();
    EXPECT_EQ(compact.find('\n'), std::string::npos);
    EXPECT_FALSE(Json::parse(compact, &err).isNull());
    EXPECT_TRUE(err.empty()) << err;
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    Json doc = Json::object();
    doc["zeta"] = Json(1);
    doc["alpha"] = Json(2);
    doc["mid"] = Json(3);
    ASSERT_EQ(doc.members().size(), 3u);
    EXPECT_EQ(doc.members()[0].first, "zeta");
    EXPECT_EQ(doc.members()[1].first, "alpha");
    EXPECT_EQ(doc.members()[2].first, "mid");
}

TEST(Json, ParseRejectsMalformed)
{
    std::string err;
    Json::parse("{\"a\": }", &err);
    EXPECT_FALSE(err.empty());
    Json::parse("[1, 2", &err);
    EXPECT_FALSE(err.empty());
    Json::parse("{} trailing", &err);
    EXPECT_FALSE(err.empty());
}

TEST(Json, ReadFileRoundTripsWriteFile)
{
    const std::string path = ::testing::TempDir() + "json_roundtrip.json";
    Json doc = Json::object();
    doc["bench"] = Json("x");
    doc["n"] = Json(3);
    doc["v"] = Json::array();
    doc["v"].push(Json(1.5));
    ASSERT_TRUE(doc.writeFile(path));
    std::string err = "stale";
    const Json back = Json::readFile(path, &err);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_EQ(back.dump(), doc.dump());
    std::remove(path.c_str());
}

TEST(Json, ReadFileReportsMissingFile)
{
    const std::string path = ::testing::TempDir() + "json_missing.json";
    std::remove(path.c_str());
    std::string err;
    EXPECT_TRUE(Json::readFile(path, &err).isNull());
    EXPECT_EQ(err, "cannot read " + path);
}

TEST(Json, ReadFileReportsMalformedFile)
{
    const std::string path = ::testing::TempDir() + "json_bad.json";
    std::ofstream(path) << "{\"a\": }";
    std::string err;
    EXPECT_TRUE(Json::readFile(path, &err).isNull());
    EXPECT_EQ(err.rfind(path + ": parse error: ", 0), 0u) << err;
    std::remove(path.c_str());
}

TEST(Json, NonFiniteNumbersSerializeAsNull)
{
    Json doc = Json::object();
    doc["nan"] = Json(std::nan(""));
    const std::string text = doc.dump();
    EXPECT_NE(text.find("\"nan\":null"), std::string::npos) << text;
}

TEST(StatsRegistry, CounterRegistrationAndValue)
{
    StatsRegistry reg;
    StatCounter &c = reg.counter("bufferpool.misses", "pool misses");
    c.inc();
    c.add(4);
    EXPECT_TRUE(reg.has("bufferpool.misses"));
    EXPECT_DOUBLE_EQ(reg.value("bufferpool.misses"), 5.0);
    // Re-registering the same name returns the same counter.
    reg.counter("bufferpool.misses").inc();
    EXPECT_DOUBLE_EQ(c.value(), 6.0);
}

TEST(StatsRegistry, GaugeReadsLiveState)
{
    StatsRegistry reg;
    double backing = 1.0;
    reg.gauge("ssd.read_bytes", [&backing] { return backing; });
    EXPECT_DOUBLE_EQ(reg.value("ssd.read_bytes"), 1.0);
    backing = 7.5;
    EXPECT_DOUBLE_EQ(reg.value("ssd.read_bytes"), 7.5);
    // Re-registering replaces the callback (fresh SimRun re-binds).
    reg.gauge("ssd.read_bytes", [] { return 99.0; });
    EXPECT_DOUBLE_EQ(reg.value("ssd.read_bytes"), 99.0);
    EXPECT_EQ(reg.names().size(), 1u);
}

TEST(StatsRegistry, UnknownNamePanicsListingRegistered)
{
    StatsRegistry reg;
    reg.counter("known.one");
    EXPECT_DEATH((void)reg.value("missing.stat"), "known.one");
}

// ------------------------------------------- Histogram merge/quantile

TEST(Histogram, EmptyQuantileIsZero)
{
    Histogram h(0.0, 100.0, 10);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST(Histogram, SingleBucketInterpolatesWithinBounds)
{
    Histogram h(0.0, 100.0, 10);
    // All samples land in bucket [30, 40).
    for (int i = 0; i < 5; ++i)
        h.add(35.0);
    // Every quantile stays inside the occupied bucket's bounds.
    for (double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        const double v = h.quantile(q);
        EXPECT_GE(v, 30.0) << "q=" << q;
        EXPECT_LE(v, 40.0) << "q=" << q;
    }
    // Interpolation is monotone in q.
    EXPECT_LE(h.quantile(0.25), h.quantile(0.75));
    // A single sample pins every quantile to the bucket's low edge.
    Histogram one(0.0, 100.0, 10);
    one.add(35.0);
    EXPECT_DOUBLE_EQ(one.quantile(0.0), 30.0);
    EXPECT_DOUBLE_EQ(one.quantile(1.0), 30.0);
}

TEST(Histogram, OverflowClampsIntoLastBucket)
{
    Histogram h(0.0, 100.0, 10);
    h.add(1e9);   // clamps into [90, 100)
    h.add(-1e9);  // clamps into [0, 10)
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(9), 1u);
    // p100 interpolates to the top of the clamp bucket, not beyond.
    EXPECT_LE(h.quantile(1.0), 100.0);
    EXPECT_GE(h.quantile(1.0), 90.0);
    EXPECT_GE(h.quantile(0.0), 0.0);
    EXPECT_LT(h.quantile(0.0), 10.0);
}

TEST(Histogram, QuantileTracksDistributionWithinBucketWidth)
{
    Histogram h(0.0, 1000.0, 100);
    Distribution d;
    for (int i = 0; i < 1000; ++i) {
        const double v = double((i * 7919) % 1000);
        h.add(v);
        d.add(v);
    }
    for (double q : {0.1, 0.5, 0.9, 0.99})
        EXPECT_NEAR(h.quantile(q), d.quantile(q), 10.0) << "q=" << q;
}

TEST(Histogram, MergeMatchesCombinedStream)
{
    Histogram a(0.0, 100.0, 20), b(0.0, 100.0, 20);
    Histogram both(0.0, 100.0, 20);
    for (int i = 0; i < 50; ++i) {
        const double va = double((i * 13) % 100);
        const double vb = double((i * 31) % 100);
        a.add(va);
        b.add(vb);
        both.add(va);
        both.add(vb);
    }
    a.merge(b);
    EXPECT_EQ(a.total(), both.total());
    for (size_t i = 0; i < a.buckets(); ++i)
        EXPECT_EQ(a.bucketCount(i), both.bucketCount(i)) << i;
    for (double q : {0.1, 0.5, 0.9})
        EXPECT_DOUBLE_EQ(a.quantile(q), both.quantile(q)) << q;
}

TEST(Histogram, MergeEmptyIsIdentity)
{
    Histogram a(0.0, 10.0, 5), empty(0.0, 10.0, 5);
    a.add(3.0);
    a.merge(empty);
    EXPECT_EQ(a.total(), 1u);
    Histogram b(0.0, 10.0, 5);
    b.merge(a);
    EXPECT_EQ(b.total(), 1u);
    EXPECT_DOUBLE_EQ(b.quantile(0.5), a.quantile(0.5));
}

TEST(StatsRegistry, GlobalRegistryCountsLogWarnings)
{
    StatsRegistry &g = globalStats();
    const double before = g.has("log.warn_count")
                              ? g.value("log.warn_count")
                              : 0.0;
    warn("test_stats warning");
    EXPECT_DOUBLE_EQ(g.value("log.warn_count"), before + 1.0);
}

} // namespace
} // namespace dbsens
