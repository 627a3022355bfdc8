/**
 * @file
 * Unit and property tests for the CAT-capable LLC simulator and the
 * virtual address space / trace plumbing.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/random.h"
#include "core/worker_pool.h"
#include "harness/tpch_driver.h"
#include "hw/cache_feed.h"
#include "hw/llc_sim.h"
#include "hw/virtual_space.h"

namespace dbsens {
namespace {

TEST(LlcSim, GeometryMatchesPaperTestbed)
{
    EXPECT_EQ(LlcSim::kWays, 20);
    // 20 MB / (64 B * 20 ways) = 16384 sets.
    EXPECT_EQ(LlcSim::kSets, 16384);
}

TEST(LlcSim, RepeatAccessHits)
{
    LlcSim llc;
    EXPECT_FALSE(llc.access(0, 0x1000));
    EXPECT_TRUE(llc.access(0, 0x1000));
    EXPECT_TRUE(llc.access(0, 0x1038)); // same 64B line
    EXPECT_FALSE(llc.access(0, 0x1040)); // next line
    EXPECT_EQ(llc.accesses(), 4u);
    EXPECT_EQ(llc.misses(), 2u);
}

TEST(LlcSim, SocketsAreIndependent)
{
    LlcSim llc;
    EXPECT_FALSE(llc.access(0, 0x2000));
    EXPECT_FALSE(llc.access(1, 0x2000));
    EXPECT_TRUE(llc.access(0, 0x2000));
    EXPECT_TRUE(llc.access(1, 0x2000));
}

TEST(LlcSim, AgedInsertionEvictsNeverRehitLinesFirst)
{
    // Scan-resistant policy: a line that has been re-referenced (hit)
    // is promoted; never-rehit lines are the preferred victims.
    LlcSim llc;
    llc.setWayMask(0x3); // 2 ways allowed
    const uint64_t set_stride = uint64_t(LlcSim::kSets) * 64;
    EXPECT_FALSE(llc.access(0, 0));              // A (aged)
    EXPECT_FALSE(llc.access(0, set_stride));     // B (aged)
    EXPECT_TRUE(llc.access(0, set_stride));      // hit B -> promoted
    EXPECT_FALSE(llc.access(0, 2 * set_stride)); // C evicts A (oldest)
    EXPECT_TRUE(llc.access(0, set_stride));      // B survives the scan
    EXPECT_FALSE(llc.access(0, 0));              // A was evicted
}

TEST(LlcSim, FullMaskUsesAllWays)
{
    LlcSim llc;
    const uint64_t set_stride = uint64_t(LlcSim::kSets) * 64;
    for (int i = 0; i < LlcSim::kWays; ++i)
        EXPECT_FALSE(llc.access(0, uint64_t(i) * set_stride));
    // All 20 distinct lines fit in the 20 ways.
    for (int i = 0; i < LlcSim::kWays; ++i)
        EXPECT_TRUE(llc.access(0, uint64_t(i) * set_stride));
    // A 21st line evicts exactly one of them.
    EXPECT_FALSE(llc.access(0, 20ull * set_stride));
    int hits = 0;
    for (int i = 0; i < LlcSim::kWays; ++i)
        hits += llc.access(0, uint64_t(i) * set_stride) ? 1 : 0;
    EXPECT_EQ(hits, LlcSim::kWays - 1);
}

TEST(LlcSim, HitsOutsideMaskStillHit)
{
    // CAT semantics: restricting the mask does not invalidate lines
    // already resident in other ways.
    LlcSim llc;
    llc.setWayMask((1u << LlcSim::kWays) - 1);
    llc.access(0, 0x5000); // fills some way under the full mask
    llc.setWayMask(0x1);   // restrict to one way
    EXPECT_TRUE(llc.access(0, 0x5000));
}

TEST(LlcSim, AllocationMbMapsToWays)
{
    LlcSim llc;
    llc.setTotalAllocationMb(2);
    EXPECT_EQ(llc.allowedWays(), 1);
    llc.setTotalAllocationMb(40);
    EXPECT_EQ(llc.allowedWays(), 20);
    llc.setTotalAllocationMb(12);
    EXPECT_EQ(llc.allowedWays(), 6);
}

class LlcMissCurve : public ::testing::TestWithParam<int>
{
};

TEST_P(LlcMissCurve, MissRateDecreasesMonotonicallyWithAllocation)
{
    // Property: for a Zipf-skewed working set larger than the cache,
    // a bigger CAT allocation never increases the miss rate
    // (stack/inclusion property of LRU with growing way sets).
    const int working_set_mb = GetParam();
    const uint64_t lines =
        uint64_t(working_set_mb) << 20 >> 6; // lines in working set
    Rng rng(1234);
    ZipfSampler zipf(lines, 0.7);
    std::vector<uint64_t> trace;
    trace.reserve(200000);
    for (int i = 0; i < 200000; ++i)
        trace.push_back(zipf(rng) * 64);

    double last_rate = 1.1;
    for (int mb = 2; mb <= 40; mb += 6) {
        LlcSim llc;
        llc.setTotalAllocationMb(mb);
        uint64_t miss = 0;
        for (uint64_t a : trace)
            if (!llc.access(socketOfAddr(a), a))
                ++miss;
        const double rate = double(miss) / double(trace.size());
        EXPECT_LE(rate, last_rate + 0.01)
            << "alloc " << mb << " MB regressed";
        last_rate = rate;
    }
    // And the full allocation must beat the smallest one clearly for
    // working sets that fit.
    if (working_set_mb <= 36) {
        EXPECT_LT(last_rate, 0.9);
    }
}

INSTANTIATE_TEST_SUITE_P(WorkingSets, LlcMissCurve,
                         ::testing::Values(8, 24, 64, 256));

TEST(LlcSim, ResetClearsContents)
{
    LlcSim llc;
    llc.access(0, 0x9000);
    llc.reset();
    EXPECT_FALSE(llc.access(0, 0x9000));
    EXPECT_EQ(llc.accesses(), 1u);
}

/**
 * Hit/miss sequence of `n` seeded accesses under `cos`. The lines
 * crowd 64 sets (set 0 and the last set among them) with 48 tags, so
 * the stream both hits and evicts at every allocation.
 */
std::vector<bool>
runStream(LlcSim &llc, uint64_t seed, int cos, size_t n = 20000)
{
    Rng rng(seed);
    std::vector<bool> hits;
    hits.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        const uint64_t set = rng.uniform(64) * (LlcSim::kSets / 64) +
                             (rng.uniform(2) ? LlcSim::kSets / 64 - 1 : 0);
        const uint64_t tag = rng.uniform(48);
        const uint64_t addr = (tag * uint64_t(LlcSim::kSets) + set) * 64;
        hits.push_back(llc.access(int(rng.uniform(2)), addr, cos));
    }
    return hits;
}

TEST(LlcSim, ReusedSimulatorMatchesFreshOne)
{
    for (int mb = 2; mb <= 40; mb += 2) {
        const uint32_t mask = (1u << LlcSim::waysForAllocationMb(mb)) - 1;
        for (int cos = 0; cos < LlcSim::kMaxCos; ++cos) {
            LlcSim fresh;
            fresh.setCosWayMask(cos, mask);
            const std::vector<bool> want = runStream(fresh, 7, cos);

            // Ran a different stream under both COS, then reset().
            LlcSim reused;
            runStream(reused, 99, 0);
            runStream(reused, 98, 1);
            reused.reset();
            reused.setCosWayMask(cos, mask);
            EXPECT_EQ(runStream(reused, 7, cos), want)
                << mb << " MB, COS " << cos << ", after reset()";
            EXPECT_EQ(reused.accesses(), fresh.accesses());
            EXPECT_EQ(reused.misses(), fresh.misses());

            // A different mask before the stream leaves no trace.
            LlcSim remasked;
            remasked.setCosWayMask(cos, 0x80001);
            remasked.setWayMask(0x1);
            remasked.setCosWayMask(cos, mask);
            EXPECT_EQ(runStream(remasked, 7, cos), want)
                << mb << " MB, COS " << cos << ", after a mask change";
        }
    }
}

TEST(VirtualSpace, RegionsAreDisjointAndScaled)
{
    VirtualSpace vs;
    const auto r1 = vs.allocateScaled(1000);
    const auto r2 = vs.allocateScaled(2000);
    EXPECT_GE(r2.base, r1.base + r1.size);
    EXPECT_GE(r1.size, 1000 * calib::kScaleK);
    EXPECT_GE(r2.size, 2000 * calib::kScaleK);
}

TEST(VirtualSpace, ElementAddressesSpreadAcrossRegion)
{
    VirtualSpace vs;
    const auto r = vs.allocateFullScale(1 << 20);
    const uint64_t a0 = r.elementAddr(0, 1024);
    const uint64_t a1 = r.elementAddr(1, 1024);
    const uint64_t alast = r.elementAddr(1023, 1024);
    EXPECT_EQ(a0, r.base);
    EXPECT_EQ(a1 - a0, r.size / 1024);
    EXPECT_LT(alast, r.base + r.size);
}

TEST(AccessTrace, RecordsAndThins)
{
    AccessTrace trace(1024);
    for (uint64_t i = 0; i < 100000; ++i)
        trace.add(i * 64);
    EXPECT_EQ(trace.total(), 100000u);
    EXPECT_LE(trace.addrs().size(), 1024u);
    EXPECT_GT(trace.addrs().size(), 200u);
    EXPECT_NEAR(trace.keepRatio(),
                double(trace.addrs().size()) / 100000.0, 1e-9);
}

TEST(AccessTrace, ReplayMissRateSeesLocality)
{
    // A trace that loops over a tiny working set must have a near-zero
    // miss rate after warmup; a streaming trace must miss ~always.
    AccessTrace hot;
    for (int rep = 0; rep < 100; ++rep)
        for (uint64_t i = 0; i < 100; ++i)
            hot.add(i * 64);
    EXPECT_LT(hot.replayMissRate(40), 0.05);

    AccessTrace streaming;
    for (uint64_t i = 0; i < 100000; ++i)
        streaming.add(i * 64 * 131); // distinct lines
    EXPECT_GT(streaming.replayMissRate(40), 0.9);
}

// ------------------------------------------------------------ LlcReplay

/**
 * The serial reference replay: every access through LlcSim::access on
 * one fresh simulator, counting misses past the first tenth.
 */
double
oracleMissRate(const std::vector<uint64_t> &addrs, int llc_mb)
{
    if (addrs.empty())
        return 0.0;
    LlcSim llc;
    llc.setTotalAllocationMb(llc_mb);
    const auto warm = size_t(double(addrs.size()) * 0.1);
    for (size_t i = 0; i < addrs.size(); ++i) {
        if (i == warm)
            llc.resetCounters();
        llc.access(socketOfAddr(addrs[i]), addrs[i]);
    }
    return double(llc.misses()) / double(llc.accesses());
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/**
 * Replay `addrs` at every ladder allocation serially and on pools of
 * 1-4 workers (3 gives uneven set ranges); each result must equal the
 * oracle's bit for bit.
 */
void
expectReplayMatchesOracle(const std::vector<uint64_t> &addrs)
{
    AccessTrace trace(addrs.size() + 1); // above the cap: no thinning
    for (uint64_t a : addrs)
        trace.add(a);
    ASSERT_EQ(trace.addrs(), addrs);
    WorkerPool p1(1), p2(2), p3(3), p4(4);
    WorkerPool *const pools[] = {nullptr, &p1, &p2, &p3, &p4};
    for (int mb = 2; mb <= 40; mb += 2) {
        const double want = oracleMissRate(addrs, mb);
        for (WorkerPool *pool : pools) {
            const double got = trace.replayMissRate(mb, pool);
            EXPECT_TRUE(sameBits(got, want))
                << mb << " MB, " << (pool ? pool->workers() : 0)
                << " workers: " << got << " vs oracle " << want;
        }
    }
}

/** Line address of `tag` in `set`: addr >> 20 is the tag. */
uint64_t
lineAddr(uint64_t set, uint64_t tag)
{
    return (tag * uint64_t(LlcSim::kSets) + set) * 64;
}

TEST(LlcReplay, ZipfTraceMatchesOracleAtEveryAllocation)
{
    // A 48 MB Zipf working set: misses fall along the whole ladder.
    Rng rng(77);
    ZipfSampler zipf((48ull << 20) / 64, 0.8);
    std::vector<uint64_t> addrs;
    for (int i = 0; i < 120000; ++i)
        addrs.push_back(zipf(rng) * 64);
    EXPECT_GT(oracleMissRate(addrs, 2), oracleMissRate(addrs, 40));
    expectReplayMatchesOracle(addrs);
}

TEST(LlcReplay, StreamingTraceMatchesOracleAtEveryAllocation)
{
    // Repeated scans over 256 sets spread across every shard's range;
    // set s cycles through 1 + s % 24 tags, so each allocation sees a
    // different mix of rows that fit and rows that thrash.
    std::vector<uint64_t> addrs;
    for (int pass = 0; pass < 4; ++pass)
        for (uint64_t tag = 0; tag < 24; ++tag)
            for (uint64_t s = 0; s < 256; ++s)
                if (tag <= s % 24)
                    addrs.push_back(lineAddr(s * 64, tag));
    EXPECT_GT(oracleMissRate(addrs, 2), oracleMissRate(addrs, 40));
    expectReplayMatchesOracle(addrs);
}

TEST(LlcReplay, MixedSocketTraceMatchesOracleAtEveryAllocation)
{
    // Zipf-hot 4 KB pages (consecutive pages alternate sockets) at
    // random byte offsets, interleaved with arbitrary 64-bit
    // addresses: every tag below 2^44, on both sockets.
    Rng rng(4242);
    ZipfSampler pages(16384, 0.9);
    std::vector<uint64_t> addrs;
    for (int i = 0; i < 120000; ++i)
        addrs.push_back(rng.uniform(4) == 0
                            ? rng()
                            : (pages(rng) << 12) | rng.uniform(4096));
    int on_socket1 = 0;
    for (uint64_t a : addrs)
        on_socket1 += socketOfAddr(a);
    EXPECT_GT(on_socket1, 40000);
    EXPECT_LT(on_socket1, 80000);
    EXPECT_GT(oracleMissRate(addrs, 2), oracleMissRate(addrs, 40));
    expectReplayMatchesOracle(addrs);
}

TEST(LlcReplay, WarmupEdgeCases)
{
    // Empty: 0 with no division. Under 10 addresses the warm-up is
    // empty (warm = 0) and every access counts; 10 and 11 warm one.
    expectReplayMatchesOracle({});
    EXPECT_EQ(AccessTrace().replayMissRate(20), 0.0);
    for (size_t n : {1, 2, 5, 9, 10, 11}) {
        std::vector<uint64_t> distinct, repeated;
        for (size_t i = 0; i < n; ++i) {
            distinct.push_back(lineAddr(5, i));
            repeated.push_back(lineAddr(5, i % 2));
        }
        expectReplayMatchesOracle(distinct);
        expectReplayMatchesOracle(repeated);
    }
    AccessTrace nine;
    for (uint64_t i = 0; i < 9; ++i)
        nine.add(lineAddr(5, 0));
    EXPECT_EQ(nine.replayMissRate(2), 1.0 / 9.0); // cold miss counts
}

TEST(TpchDriverReplay, MissRateMatchesOracleAtEveryAllocation)
{
    TpchDriver driver(2);
    const auto &addrs = driver.trace().addrs();
    ASSERT_GT(addrs.size(), 1000u);
    for (int mb = 2; mb <= 40; mb += 2)
        EXPECT_TRUE(sameBits(driver.missRate(mb), oracleMissRate(addrs, mb)))
            << mb << " MB";
}

TEST(CacheFeeds, LiveFeedCountsMisses)
{
    LlcSim llc;
    LiveCacheFeed feed(llc);
    feed.touch(0x100);
    feed.touch(0x100);
    EXPECT_EQ(feed.accesses(), 2u);
    EXPECT_EQ(feed.misses(), 1u);
}

TEST(CacheFeeds, NullFeedOnlyCounts)
{
    NullCacheFeed feed;
    feed.touch(1);
    feed.touch(2);
    EXPECT_EQ(feed.accesses(), 2u);
    EXPECT_EQ(feed.misses(), 0u);
}

} // namespace
} // namespace dbsens
