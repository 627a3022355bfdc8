/**
 * @file
 * Unit tests for core utilities: RNG, Zipf, histograms, tables.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>

#include "core/calibration.h"
#include "core/digest.h"
#include "core/histogram.h"
#include "core/random.h"
#include "core/table_printer.h"
#include "stats_sketch/kll.h"
#include "stats_sketch/sketch.h"

namespace dbsens {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        const uint64_t va = a();
        EXPECT_EQ(va, b());
        (void)c();
    }
    Rng a2(42), c2(43);
    bool differs = false;
    for (int i = 0; i < 10; ++i)
        differs |= (a2() != c2());
    EXPECT_TRUE(differs);
}

TEST(Rng, UniformBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const uint64_t v = rng.uniform(17);
        EXPECT_LT(v, 17u);
    }
    for (int i = 0; i < 10000; ++i) {
        const int64_t v = rng.range(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, UniformIsRoughlyUniform)
{
    Rng rng(11);
    std::map<uint64_t, int> counts;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        counts[rng.uniform(10)]++;
    for (const auto &[v, c] : counts) {
        EXPECT_NEAR(double(c) / n, 0.1, 0.01) << "value " << v;
    }
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng rng(3);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniformReal();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, TextHasRequestedLength)
{
    Rng rng(1);
    const auto s = rng.text(12);
    EXPECT_EQ(s.size(), 12u);
    for (char c : s) {
        EXPECT_GE(c, 'A');
        EXPECT_LE(c, 'Z');
    }
}

TEST(Zipf, Theta0IsUniform)
{
    Rng rng(5);
    ZipfSampler z(100, 0.0);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 100000; ++i)
        counts[z(rng)]++;
    for (int c : counts)
        EXPECT_NEAR(double(c) / 100000, 0.01, 0.005);
}

TEST(Zipf, SkewConcentratesOnHotItems)
{
    Rng rng(5);
    ZipfSampler z(10000, 0.99);
    uint64_t hot = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        if (z(rng) < 100) // hottest 1%
            ++hot;
    }
    // With theta=0.99, the hot 1% should draw far more than 1%.
    EXPECT_GT(double(hot) / n, 0.3);
}

TEST(Zipf, ValuesInRange)
{
    Rng rng(9);
    ZipfSampler z(37, 0.8);
    for (int i = 0; i < 50000; ++i)
        EXPECT_LT(z(rng), 37u);
}

TEST(Zipf, LargeDomainConstructsFast)
{
    ZipfSampler z(1000000000ull, 0.9);
    Rng rng(2);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(z(rng), 1000000000ull);
}

TEST(Summary, Accumulates)
{
    Summary s;
    s.add(1);
    s.add(2);
    s.add(3);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(Distribution, QuantilesAndCdf)
{
    Distribution d;
    for (int i = 1; i <= 100; ++i)
        d.add(i);
    EXPECT_NEAR(d.quantile(0.0), 1.0, 1e-9);
    EXPECT_NEAR(d.quantile(1.0), 100.0, 1e-9);
    EXPECT_NEAR(d.quantile(0.5), 50.5, 1e-9);
    EXPECT_NEAR(d.cdfAt(50), 0.5, 1e-9);
    EXPECT_NEAR(d.cdfAt(0), 0.0, 1e-9);
    EXPECT_NEAR(d.cdfAt(1000), 1.0, 1e-9);
    EXPECT_NEAR(d.mean(), 50.5, 1e-9);
}

TEST(Distribution, CdfSeriesIsMonotonic)
{
    Distribution d;
    Rng rng(4);
    for (int i = 0; i < 1000; ++i)
        d.add(rng.uniformReal() * 100);
    const auto series = d.cdfSeries(21);
    ASSERT_EQ(series.size(), 21u);
    for (size_t i = 1; i < series.size(); ++i) {
        EXPECT_GE(series[i].first, series[i - 1].first);
        EXPECT_GE(series[i].second, series[i - 1].second);
    }
}

TEST(Histogram, BucketsAndClamping)
{
    Histogram h(0, 10, 10);
    h.add(0.5);
    h.add(9.5);
    h.add(-3);  // clamps to first bucket
    h.add(100); // clamps to last bucket
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(9), 2u);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_DOUBLE_EQ(h.bucketLow(0), 0.0);
    EXPECT_DOUBLE_EQ(h.bucketLow(9), 9.0);
}

TEST(TablePrinter, AlignedOutput)
{
    TablePrinter t({"name", "value"});
    t.row().cell("alpha").cell(int64_t(42));
    t.row().cell("b").cell(3.14159, 2);
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    EXPECT_NE(out.find("3.14"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TablePrinter, CsvOutput)
{
    TablePrinter t({"a", "b"});
    t.row().cell(1).cell(2);
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Calibration, SmtCurveEndpoints)
{
    EXPECT_NEAR(calib::smtCombinedThroughput(0.0), 0.70, 1e-9);
    EXPECT_NEAR(calib::smtCombinedThroughput(1.0), 1.50, 1e-9);
    EXPECT_LE(calib::smtCombinedThroughput(0.5),
              calib::smtCombinedThroughput(0.9));
}

TEST(Calibration, MemoryBudgetsArePositiveAndBounded)
{
    // Buffer pool and query memory overlap (unified memory manager),
    // but each must fit inside server memory on its own.
    EXPECT_GT(calib::bufferPoolRealBytes(), 0u);
    EXPECT_GT(calib::queryMemoryRealBytes(), 0u);
    EXPECT_LT(calib::bufferPoolRealBytes(),
              calib::kServerMemoryPaperBytes / calib::kScaleK);
    EXPECT_LT(calib::queryMemoryRealBytes(),
              calib::kServerMemoryPaperBytes / calib::kScaleK);
    // Table 2 shading: ASDB-2000 (~51 real MB) fits, TPC-H-300
    // (~128 real MB) does not.
    EXPECT_GT(calib::bufferPoolRealBytes(), 51ull << 20);
    EXPECT_LT(calib::bufferPoolRealBytes(), 128ull << 20);
}

// The digests below pin absolute values: every other digest test
// compares two runs of one binary, which a changed hash would pass.
// The offset basis is the repo's 1469598103934665603 (see
// core/digest.h), so these are not textbook FNV-1a values.
TEST(Digest, ByteFoldPinnedValues)
{
    EXPECT_EQ(sketch::fnv1a("", 0), 0x14650fb0739d0383ull);
    EXPECT_EQ(sketch::fnv1a("a", 1), 0x44bd8ad473cd9906ull);
    EXPECT_EQ(sketch::fnv1a("foobar", 6), 0x88fad7c0a8ff07f2ull);
}

TEST(Digest, ValueFoldIsLittleEndianByteFold)
{
    const unsigned char one_le[8] = {1, 0, 0, 0, 0, 0, 0, 0};
    EXPECT_EQ(fnv1aWord(kFnvBasis, 1), 0x29034675a49f07c2ull);
    EXPECT_EQ(fnv1a(one_le, sizeof one_le), 0x29034675a49f07c2ull);
}

TEST(Digest, HexIsSixteenLowerCaseDigits)
{
    EXPECT_EQ(digestHex(0x14650fb0739d0383ull), "14650fb0739d0383");
    EXPECT_EQ(digestHex(1), "0000000000000001");
}

TEST(Digest, SketchDigestsPinned)
{
    sketch::CountMinSketch cms(256, 4, 7);
    sketch::KllSketch kll(32, 5);
    for (uint64_t i = 0; i < 5000; ++i) {
        cms.update(i * i % 1000, 1 + i % 3);
        kll.update(double(i * 7919 % 10007));
    }
    EXPECT_EQ(cms.digest(), 0xff89165e1d2d5049ull);
    EXPECT_EQ(kll.digest(), 0xa80f2a8eeff2e317ull);
}

} // namespace
} // namespace dbsens
