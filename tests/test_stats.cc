/**
 * @file
 * Unit tests for the hierarchical stats registry (core/stats.h) and
 * the JSON document model (core/json.h).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/json.h"
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
    reg.gauge("known.one", [] { return 1.0; });
    EXPECT_DEATH((void)reg.value("missing.stat"), "known.one");
}

} // namespace
} // namespace dbsens
