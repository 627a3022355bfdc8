/**
 * @file
 * Unit and property tests for the CAT-capable LLC simulator and the
 * virtual address space / trace plumbing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "core/random.h"
#include "core/worker_pool.h"
#include "harness/tpch_driver.h"
#include "hw/cache_feed.h"
#include "hw/llc_sim.h"
#include "hw/virtual_space.h"
#include "reference_llc.h"

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
    EXPECT_LT(ShardedTrace(std::move(hot)).replayMissRate(40), 0.05);

    AccessTrace streaming;
    for (uint64_t i = 0; i < 100000; ++i)
        streaming.add(i * 64 * 131); // distinct lines
    EXPECT_GT(ShardedTrace(std::move(streaming)).replayMissRate(40), 0.9);
}

TEST(AccessTrace, RefusesCapsAbove2Pow24)
{
    // See LlcSim.RefusesAddressesFrom2Pow51 for the style.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    AccessTrace largest(AccessTrace::kMaxCap);
    largest.add(64);
    EXPECT_EQ(largest.addrs().size(), 1u);
    EXPECT_EXIT(AccessTrace(AccessTrace::kMaxCap + 1),
                ::testing::ExitedWithCode(1), "above 2\\^24");
}

// ------------------------------------------------------------ LlcReplay

/**
 * The serial reference replay: every access through ReferenceLlc on
 * one fresh cache, counting misses past the first tenth.
 */
double
oracleMissRate(const std::vector<uint64_t> &addrs, int llc_mb)
{
    if (addrs.empty())
        return 0.0;
    ReferenceLlc llc;
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

/** `addrs` with every byte offset within a line dropped. */
std::vector<uint64_t>
linesOf(std::vector<uint64_t> addrs)
{
    for (uint64_t &a : addrs)
        a &= ~uint64_t(63);
    return addrs;
}

/**
 * Seal `addrs` serially and on pools of 1-4 workers (3 gives uneven
 * sort chunks), then replay each sealed trace on the pool that sealed
 * it at every ladder allocation; each result must equal the oracle's
 * bit for bit.
 */
void
expectReplayMatchesOracle(const std::vector<uint64_t> &addrs)
{
    WorkerPool p1(1), p2(2), p3(3), p4(4);
    WorkerPool *const pools[] = {nullptr, &p1, &p2, &p3, &p4};
    std::vector<ShardedTrace> sealed;
    for (WorkerPool *pool : pools) {
        AccessTrace trace(addrs.size() + 1); // above the cap: no thinning
        for (uint64_t a : addrs)
            trace.add(a);
        ASSERT_EQ(trace.addrs(), addrs);
        sealed.emplace_back(std::move(trace), pool);
        EXPECT_TRUE(trace.addrs().empty());
        EXPECT_EQ(sealed.back().total(), addrs.size());
        ASSERT_EQ(sealed.back().lineAddrs(), linesOf(addrs))
            << (pool ? pool->workers() : 0) << " workers";
    }
    for (int mb = 2; mb <= 40; mb += 2) {
        const double want = oracleMissRate(addrs, mb);
        for (size_t p = 0; p < std::size(pools); ++p) {
            const double got = sealed[p].replayMissRate(mb, pools[p]);
            EXPECT_TRUE(sameBits(got, want))
                << mb << " MB, " << (pools[p] ? pools[p]->workers() : 0)
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

/** A 48 MB Zipf working set: misses fall along the whole ladder. */
std::vector<uint64_t>
zipfTrace()
{
    Rng rng(77);
    ZipfSampler zipf((48ull << 20) / 64, 0.8);
    std::vector<uint64_t> addrs;
    for (int i = 0; i < 120000; ++i)
        addrs.push_back(zipf(rng) * 64);
    return addrs;
}

/**
 * Repeated scans over 256 sets spread across every shard's range;
 * set s cycles through 1 + s % 24 tags, so each allocation sees a
 * different mix of rows that fit and rows that thrash.
 */
std::vector<uint64_t>
streamingTrace()
{
    std::vector<uint64_t> addrs;
    for (int pass = 0; pass < 4; ++pass)
        for (uint64_t tag = 0; tag < 24; ++tag)
            for (uint64_t s = 0; s < 256; ++s)
                if (tag <= s % 24)
                    addrs.push_back(lineAddr(s * 64, tag));
    return addrs;
}

/**
 * Zipf-hot 4 KB pages (consecutive pages alternate sockets) at random
 * byte offsets, interleaved with arbitrary addresses below
 * LlcSim::kAddrLimit: tags up to 2^31, on both sockets.
 */
std::vector<uint64_t>
mixedSocketTrace()
{
    Rng rng(4242);
    ZipfSampler pages(16384, 0.9);
    std::vector<uint64_t> addrs;
    for (int i = 0; i < 120000; ++i)
        addrs.push_back(rng.uniform(4) == 0
                            ? rng() >> 13
                            : (pages(rng) << 12) | rng.uniform(4096));
    return addrs;
}

TEST(LlcReplay, ZipfTraceMatchesOracleAtEveryAllocation)
{
    const std::vector<uint64_t> addrs = zipfTrace();
    EXPECT_GT(oracleMissRate(addrs, 2), oracleMissRate(addrs, 40));
    expectReplayMatchesOracle(addrs);
}

TEST(LlcReplay, StreamingTraceMatchesOracleAtEveryAllocation)
{
    const std::vector<uint64_t> addrs = streamingTrace();
    EXPECT_GT(oracleMissRate(addrs, 2), oracleMissRate(addrs, 40));
    expectReplayMatchesOracle(addrs);
}

TEST(LlcReplay, MixedSocketTraceMatchesOracleAtEveryAllocation)
{
    const std::vector<uint64_t> addrs = mixedSocketTrace();
    int on_socket1 = 0;
    for (uint64_t a : addrs)
        on_socket1 += socketOfAddr(a);
    EXPECT_GT(on_socket1, 40000);
    EXPECT_LT(on_socket1, 80000);
    EXPECT_GT(oracleMissRate(addrs, 2), oracleMissRate(addrs, 40));
    expectReplayMatchesOracle(addrs);
}

/**
 * Hit (1) or miss (0) of every access of `addrs` through `llc`, set to
 * `mb`: every fourth access runs under the other COS, and the masks
 * change as the autopilot changes them. At a third of the trace COS
 * `cos` keeps the low mask and the other COS gets the ways above it
 * (or two of them at 40 MB); at half the cache resets; at two thirds
 * the other COS gets the low mask back and COS `cos` shrinks to the
 * lower half of it, so which way a fill took decides what survives.
 */
template <class Llc>
std::vector<uint8_t>
hitSequence(const std::vector<uint64_t> &addrs, int mb, int cos)
{
    constexpr uint32_t kAll = (1u << LlcSim::kWays) - 1;
    const uint32_t low = (1u << LlcSim::waysForAllocationMb(mb)) - 1;
    const size_t n = addrs.size();
    Llc llc;
    llc.setTotalAllocationMb(mb);
    std::vector<uint8_t> hits(n);
    for (size_t i = 0; i < n; ++i) {
        if (i == n / 3) {
            llc.setCosWayMask(cos, low);
            llc.setCosWayMask(1 - cos, low == kAll ? 0x80001 : kAll & ~low);
        } else if (i == n / 2) {
            llc.reset();
        } else if (i == 2 * n / 3) {
            llc.setCosWayMask(1 - cos, low);
            llc.setCosWayMask(cos, low >> __builtin_popcount(low) / 2);
        }
        const uint64_t a = addrs[i];
        hits[i] = llc.access(socketOfAddr(a), a, i % 4 ? cos : 1 - cos);
    }
    return hits;
}

TEST(LlcSim, HitSequenceMatchesReferenceAtEveryAllocation)
{
    const std::vector<uint64_t> traces[] = {zipfTrace(), streamingTrace(),
                                            mixedSocketTrace()};
    for (const auto &addrs : traces) {
        for (int mb = 2; mb <= 40; mb += 2) {
            for (int cos = 0; cos < LlcSim::kMaxCos; ++cos) {
                const auto want = hitSequence<ReferenceLlc>(addrs, mb, cos);
                const auto got = hitSequence<LlcSim>(addrs, mb, cos);
                ASSERT_EQ(got.size(), want.size());
                EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size()),
                          0)
                    << addrs.size() << "-access trace, " << mb << " MB, COS "
                    << cos;
            }
        }
    }
}

TEST(LlcSim, RefusesAddressesFrom2Pow51)
{
    // The TSan job runs this test too; its runtime has a thread. Each
    // gtest Test saves every flag on construction and restores it on
    // destruction, so the style reverts when this test ends.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    LlcSim llc;
    EXPECT_FALSE(llc.access(0, LlcSim::kAddrLimit - 1));
    EXPECT_TRUE(llc.access(0, LlcSim::kAddrLimit - 1));
    EXPECT_EXIT(llc.access(0, 1ull << 51), ::testing::ExitedWithCode(1),
                "not below 2\\^51");
    AccessTrace trace;
    trace.add(LlcSim::kAddrLimit - 1);
    EXPECT_EXIT(trace.add(1ull << 51), ::testing::ExitedWithCode(1),
                "not below 2\\^51");
    // VirtualSpace may hand out addresses up to the bound, not past it.
    VirtualSpace vs;
    const VirtualRegion r =
        vs.allocateFullScale(LlcSim::kAddrLimit - vs.bytesAllocated());
    EXPECT_EQ(r.base + r.size, LlcSim::kAddrLimit);
    EXPECT_EXIT(vs.allocateFullScale(1), ::testing::ExitedWithCode(1),
                "not below 2\\^51");
}

TEST(LlcReplay, WarmupEdgeCases)
{
    // Empty: 0 with no division. Under 10 addresses the warm-up is
    // empty (warm = 0) and every access counts; 10 and 11 warm one.
    expectReplayMatchesOracle({});
    EXPECT_EQ(ShardedTrace().replayMissRate(20), 0.0);
    EXPECT_EQ(ShardedTrace(AccessTrace()).replayMissRate(20), 0.0);
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
    // The cold miss counts.
    EXPECT_EQ(ShardedTrace(std::move(nine)).replayMissRate(2), 1.0 / 9.0);
}

TEST(LlcReplay, FillsAndHitsShareTheTraceClock)
{
    // A row compares hit stamps (clock) with aged fill stamps (clock -
    // kInsertAge), so a shard must stamp with the trace index, not with
    // a count of its own entries. Here A's hit and B's fill in set 5
    // are kInsertAge + 8 accesses of another shard's set apart, so B's
    // fill stamp is the newer one and C evicts A; on a per-shard count
    // C would evict B, and A would hit at the end.
    const uint64_t set = 5, other = set + 4 * ShardedTrace::kShardSets;
    std::vector<uint64_t> addrs = {lineAddr(set, 0), lineAddr(set, 0)};
    addrs.insert(addrs.end(), LlcSim::kInsertAge + 8, lineAddr(other, 0));
    for (uint64_t tag : {1, 2, 0, 0})
        addrs.push_back(lineAddr(set, tag));
    WorkerPool p3(3);
    for (WorkerPool *pool : {static_cast<WorkerPool *>(nullptr), &p3}) {
        AccessTrace trace;
        for (uint64_t a : addrs)
            trace.add(a);
        const ShardedTrace sealed(std::move(trace), pool);
        EXPECT_TRUE(sameBits(sealed.replayMissRate(4, pool),
                             oracleMissRate(addrs, 4)));
    }
}

TEST(LlcReplay, PackingRoundTripsAtTheLimits)
{
    // Every set offset (so both sockets) in the first, second and last
    // shards, at the largest tag and index and the smallest, with the
    // byte offset 63 that sealing drops.
    constexpr uint64_t kMaxTag = (1ull << 31) - 1;
    constexpr size_t kMaxIndex = AccessTrace::kMaxCap - 1;
    EXPECT_EQ(lineAddr(LlcSim::kSets - 1, kMaxTag) + 63,
              LlcSim::kAddrLimit - 1);
    int sockets[2] = {0, 0};
    for (size_t shard : {size_t(0), size_t(1), ShardedTrace::kShards - 1})
        for (size_t off = 0; off < ShardedTrace::kShardSets; ++off)
            for (uint64_t tag : {uint64_t(0), kMaxTag})
                for (size_t index : {size_t(0), kMaxIndex}) {
                    const uint64_t set = shard * ShardedTrace::kShardSets + off;
                    const uint64_t line = lineAddr(set, tag);
                    const uint64_t e = ShardedTrace::pack(index, line + 63);
                    ASSERT_EQ(e >> 63, 0u);
                    ASSERT_EQ(ShardedTrace::shardOf(line + 63), shard);
                    ASSERT_EQ(ShardedTrace::indexOf(e), index);
                    ASSERT_EQ(ShardedTrace::lineAddrOf(e, shard), line)
                        << set << " " << tag << " " << index;
                    ASSERT_EQ(socketOfAddr(line), int(off >> 6 & 1));
                    ++sockets[socketOfAddr(line)];
                }
    EXPECT_EQ(sockets[0], sockets[1]);
}

TEST(LlcReplay, SealRelocatesOnlyItsRange)
{
    // [lo, hi) moves up by delta; lo - 1 and hi stay. A relocation
    // that reaches kAddrLimit is refused.
    const uint64_t lo = 5 << 20, hi = 9 << 20, delta = 3 << 20;
    const std::vector<uint64_t> addrs = {lo - 1, lo, lo + 4097, hi - 1, hi,
                                         64};
    AccessTrace trace;
    for (uint64_t a : addrs)
        trace.add(a);
    const ShardedTrace sealed(std::move(trace), nullptr, {lo, hi, delta});
    EXPECT_EQ(sealed.lineAddrs(),
              linesOf({lo - 1, lo + delta, lo + 4097 + delta,
                       hi - 1 + delta, hi, 64}));

    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    AccessTrace high;
    high.add(LlcSim::kAddrLimit - 64);
    EXPECT_EXIT(ShardedTrace(std::move(high), nullptr,
                             {LlcSim::kAddrLimit - 64, LlcSim::kAddrLimit, 64}),
                ::testing::ExitedWithCode(1), "not below 2\\^51");
}

TEST(TpchDriverReplay, MissRateMatchesOracleAtEveryAllocation)
{
    TpchDriver driver(2);
    const std::vector<uint64_t> addrs = driver.trace().lineAddrs();
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

TEST(CacheFeeds, BatchedLiveFeedMatchesOneAtATime)
{
    // Batches of 1..9 addresses (Executor::touch sends 7) against the
    // same addresses one at a time: the mixed-socket trace, then 40
    // tags crowding four rows on two sockets, so a batch often holds
    // several lines of one row and a reordered batch would evict
    // differently.
    std::vector<uint64_t> addrs = mixedSocketTrace();
    Rng rng(9);
    for (int i = 0; i < 20000; ++i)
        addrs.push_back(lineAddr(rng.uniform(2) + 64 * rng.uniform(2),
                                 rng.uniform(40)));
    LlcSim batchedLlc, singleLlc;
    batchedLlc.setCosWayMask(1, 0xf0);
    singleLlc.setCosWayMask(1, 0xf0);
    LiveCacheFeed batched(batchedLlc, 1), single(singleLlc, 1);
    std::vector<uint64_t> batchedMisses, singleMisses;
    for (size_t i = 0, len = 1; i < addrs.size(); i += len, len = len % 9 + 1) {
        const size_t end = std::min(addrs.size(), i + len);
        batched.touch(std::span<const uint64_t>(&addrs[i], end - i));
        for (size_t j = i; j < end; ++j)
            single.touch(addrs[j]);
        batchedMisses.push_back(batched.misses());
        singleMisses.push_back(single.misses());
    }
    ASSERT_EQ(batchedMisses.size(), singleMisses.size());
    EXPECT_EQ(std::memcmp(batchedMisses.data(), singleMisses.data(),
                          batchedMisses.size() * sizeof(uint64_t)),
              0);
    EXPECT_EQ(batched.accesses(), addrs.size());
    EXPECT_EQ(single.accesses(), addrs.size());
    EXPECT_EQ(batchedLlc.accesses(), singleLlc.accesses());
    EXPECT_EQ(batchedLlc.misses(), singleLlc.misses());
    // Both caches hold the same lines at the same ages.
    EXPECT_EQ(runStream(batchedLlc, 7, 1), runStream(singleLlc, 7, 1));

    // Feeds without an override touch each address in order.
    NullCacheFeed null;
    null.touch(std::span<const uint64_t>(addrs.data(), 5));
    EXPECT_EQ(null.accesses(), 5u);
    AccessTrace trace;
    RecordingFeed recording(trace);
    recording.touch(std::span<const uint64_t>(addrs.data(), 5));
    EXPECT_EQ(trace.addrs(),
              std::vector<uint64_t>(addrs.begin(), addrs.begin() + 5));
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
