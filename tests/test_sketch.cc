/**
 * @file
 * Differential tests for the sketch-statistics backbone
 * (src/stats_sketch, DESIGN.md Section 16): CountMin estimates vs
 * exact counts on adversarial inputs (uniform, Zipf at several
 * exponents, single-key, all-distinct), merge-equals-concatenation
 * and fold-equals-direct-build bit identities, KLL rank/quantile
 * answers against the exact online error budget, partition
 * split/rejoin exactness, seeded determinism, the observe-only
 * guarantee of the engine hub, the sketch-driven optimizer plan flip,
 * and the autopilot's latency-guardrail veto. Also pins the shared
 * ZipfSampler draw sequences for every engine call-site (n, theta)
 * pair, so a sampler change cannot silently reshuffle workloads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/random.h"
#include "exec/table_handle.h"
#include "harness/oltp_runner.h"
#include "opt/optimizer.h"
#include "opt/sketch_stats.h"
#include "stats_sketch/hub.h"
#include "stats_sketch/kll.h"
#include "stats_sketch/sketch.h"
#include "tune/arbiter.h"
#include "tune/policy.h"
#include "workloads/asdb/asdb.h"

namespace dbsens {
namespace {

using sketch::CountMinSketch;
using sketch::KllSketch;
using sketch::PartitionedCms;
using sketch::SketchConfig;
using sketch::SketchHub;

// ------------------------------------------------- input generators

/**
 * Exact inverse-CDF Zipf over [0, n) with exponent s (any s > 0 —
 * unlike the engine's ZipfSampler, which is restricted to theta < 1).
 * Deterministic given the Rng.
 */
class ExactZipf
{
  public:
    ExactZipf(size_t n, double s)
    {
        cdf_.reserve(n);
        double sum = 0;
        for (size_t i = 1; i <= n; ++i) {
            sum += 1.0 / std::pow(double(i), s);
            cdf_.push_back(sum);
        }
        for (double &c : cdf_)
            c /= sum;
    }

    size_t
    operator()(Rng &rng) const
    {
        const double u = rng.uniformReal();
        return size_t(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                      cdf_.begin());
    }

  private:
    std::vector<double> cdf_;
};

/** One adversarial key stream plus its exact histogram. */
struct Stream
{
    std::string name;
    std::vector<uint64_t> keys;
    std::map<uint64_t, uint64_t> exact;
};

Stream
makeStream(const std::string &name, size_t n,
           const std::function<uint64_t(Rng &)> &draw)
{
    Stream s;
    s.name = name;
    Rng rng(0x5ce7c45eedULL);
    s.keys.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        const uint64_t k = draw(rng);
        s.keys.push_back(k);
        ++s.exact[k];
    }
    return s;
}

/** The adversarial suite: uniform, Zipf s in {0.5, 1, 1.5},
 * single-key, all-distinct. */
std::vector<Stream>
adversarialStreams(size_t n = 60000)
{
    std::vector<Stream> out;
    out.push_back(makeStream("uniform", n, [](Rng &r) {
        return r.uniform(500);
    }));
    for (double s : {0.5, 1.0, 1.5}) {
        auto z = std::make_shared<ExactZipf>(500, s);
        out.push_back(makeStream("zipf-" + std::to_string(s), n,
                                 [z](Rng &r) { return (*z)(r); }));
    }
    out.push_back(
        makeStream("single-key", n, [](Rng &) { return 7ull; }));
    size_t seq = 0;
    out.push_back(makeStream("all-distinct", n, [&seq](Rng &) {
        return seq++;
    }));
    return out;
}

// ------------------------------------------------- CountMin sketch

TEST(CountMin, NeverUnderestimatesAndHonorsAnalyticBound)
{
    for (const Stream &s : adversarialStreams()) {
        CountMinSketch cms(1024, 4, 99);
        for (uint64_t k : s.keys)
            cms.update(k);
        ASSERT_EQ(cms.total(), s.keys.size()) << s.name;
        const double slack = cms.epsilon() * double(cms.total());
        size_t within = 0;
        for (const auto &[k, tru] : s.exact) {
            const uint64_t est = cms.estimate(k);
            ASSERT_GE(est, tru) << s.name << " key " << k;
            if (double(est) <= double(tru) + slack)
                ++within;
        }
        // The bound fails per key w.p. <= exp(-depth) ~ 1.8%.
        EXPECT_GE(double(within), 0.95 * double(s.exact.size()))
            << s.name;
    }
}

TEST(CountMin, MergeEqualsConcatenatedStream)
{
    for (const Stream &s : adversarialStreams(20000)) {
        CountMinSketch whole(512, 4, 7);
        CountMinSketch a(512, 4, 7), b(512, 4, 7), c(512, 4, 7);
        for (size_t i = 0; i < s.keys.size(); ++i) {
            whole.update(s.keys[i]);
            (i % 3 == 0 ? a : i % 3 == 1 ? b : c).update(s.keys[i]);
        }
        a.merge(b);
        a.merge(c);
        EXPECT_EQ(a.digest(), whole.digest()) << s.name;
        EXPECT_EQ(a.total(), whole.total()) << s.name;
    }
}

TEST(CountMin, FoldShrinkIsBitIdenticalToDirectBuild)
{
    for (const Stream &s : adversarialStreams(20000)) {
        CountMinSketch folded(1024, 4, 3);
        for (uint64_t k : s.keys)
            folded.update(k);
        double prev_eps = folded.epsilon();
        while (folded.shrink(64)) {
            CountMinSketch direct(folded.width(), 4, 3);
            for (uint64_t k : s.keys)
                direct.update(k);
            ASSERT_EQ(folded.digest(), direct.digest())
                << s.name << " width " << folded.width();
            EXPECT_DOUBLE_EQ(folded.epsilon(), 2.0 * prev_eps);
            prev_eps = folded.epsilon();
        }
        EXPECT_EQ(folded.width(), 64u);
        EXPECT_FALSE(folded.shrink(64)); // floor reached
    }
}

TEST(CountMin, ShrinkErrorGrowsMonotonically)
{
    const Stream s = adversarialStreams(40000)[2]; // zipf-1.0
    CountMinSketch cms(2048, 4, 11);
    for (uint64_t k : s.keys)
        cms.update(k);
    double prev_mae = -1;
    for (;;) {
        double err = 0;
        for (const auto &[k, tru] : s.exact)
            err += double(cms.estimate(k) - tru);
        const double mae = err / double(s.exact.size());
        EXPECT_GE(mae, prev_mae - 1e-9);
        prev_mae = mae;
        if (!cms.shrink(64))
            break;
    }
    EXPECT_GT(prev_mae, 0.0); // the floor width does collide
}

TEST(CountMin, SameSeedBitIdenticalDifferentSeedNot)
{
    const Stream s = adversarialStreams(20000)[1]; // zipf-0.5
    auto build = [&](uint64_t seed) {
        CountMinSketch cms(512, 4, seed);
        for (uint64_t k : s.keys)
            cms.update(k);
        return cms.digest();
    };
    EXPECT_EQ(build(42), build(42));
    EXPECT_NE(build(42), build(43));
}

// ------------------------------------------------- partitioned CMS

TEST(PartitionedCmsTest, SplitAndRejoinIsExact)
{
    const Stream s = adversarialStreams(30000)[2];
    PartitionedCms parts(8, 512, 4, 5);
    CountMinSketch whole(512, 4, 5);
    for (uint64_t k : s.keys) {
        parts.update(k);
        whole.update(k);
    }
    // Router-merged == single-pass whole-stream sketch.
    EXPECT_EQ(parts.merged().digest(), whole.digest());
    EXPECT_EQ(parts.total(), whole.total());

    // Migration split: even partitions out, odd partitions stay;
    // re-merging the two halves reproduces the whole bit-for-bit.
    CountMinSketch even = parts.extract({0, 2, 4, 6});
    CountMinSketch odd = parts.extract({1, 3, 5, 7});
    EXPECT_EQ(even.total() + odd.total(), whole.total());
    even.merge(odd);
    EXPECT_EQ(even.digest(), whole.digest());

    // Partition-local estimates never underestimate either.
    for (const auto &[k, tru] : s.exact)
        EXPECT_GE(parts.estimate(k), tru);
}

TEST(PartitionedCmsTest, ExplicitPartRoutingIsolatesShards)
{
    PartitionedCms parts(4, 256, 4, 9);
    // Shard i sees key k with multiplicity i+1.
    for (uint32_t p = 0; p < 4; ++p)
        for (uint64_t i = 0; i <= p; ++i)
            parts.updatePart(p, 1234);
    for (uint32_t p = 0; p < 4; ++p)
        EXPECT_EQ(parts.estimatePart(p, 1234), p + 1);
    EXPECT_EQ(parts.merged().estimate(1234), 1u + 2 + 3 + 4);
}

// ------------------------------------------------- KLL sketch

TEST(Kll, RankAndQuantileWithinExactOnlineBound)
{
    for (const Stream &s : adversarialStreams(30000)) {
        KllSketch kll(128, 17);
        std::vector<double> vals;
        vals.reserve(s.keys.size());
        for (uint64_t k : s.keys) {
            kll.update(double(k));
            vals.push_back(double(k));
        }
        std::sort(vals.begin(), vals.end());
        const uint64_t bound = kll.rankErrorBound();
        for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
            const double v = kll.quantile(q);
            // Exact rank interval of v (ties make it an interval).
            const double lo = double(
                std::lower_bound(vals.begin(), vals.end(), v) -
                vals.begin());
            const double hi = double(
                std::upper_bound(vals.begin(), vals.end(), v) -
                vals.begin());
            const double target = q * double(vals.size());
            const double dist =
                target < lo ? lo - target
                            : (target > hi ? target - hi : 0.0);
            EXPECT_LE(dist, double(bound) + 1.0)
                << s.name << " q=" << q;
        }
        // rank() itself honors the bound at sampled probes.
        for (size_t i = 0; i < vals.size(); i += vals.size() / 13) {
            const double v = vals[i];
            const double exact_lo = double(
                std::lower_bound(vals.begin(), vals.end(), v) -
                vals.begin());
            const double exact_hi = double(
                std::upper_bound(vals.begin(), vals.end(), v) -
                vals.begin());
            const double est = double(kll.rank(v));
            const double dist =
                est < exact_lo
                    ? exact_lo - est
                    : (est > exact_hi ? est - exact_hi : 0.0);
            EXPECT_LE(dist, double(bound)) << s.name;
        }
    }
}

TEST(Kll, MergeCoversConcatenationWithinAddedBounds)
{
    const Stream s = adversarialStreams(30000)[3]; // zipf-1.5
    KllSketch a(128, 21), b(128, 22);
    std::vector<double> vals;
    for (size_t i = 0; i < s.keys.size(); ++i) {
        (i % 2 ? a : b).update(double(s.keys[i]));
        vals.push_back(double(s.keys[i]));
    }
    std::sort(vals.begin(), vals.end());
    a.merge(b);
    EXPECT_EQ(a.count(), vals.size());
    const uint64_t bound = a.rankErrorBound();
    for (double q : {0.1, 0.5, 0.9}) {
        const double v = a.quantile(q);
        const double lo =
            double(std::lower_bound(vals.begin(), vals.end(), v) -
                   vals.begin());
        const double hi =
            double(std::upper_bound(vals.begin(), vals.end(), v) -
                   vals.begin());
        const double target = q * double(vals.size());
        const double dist = target < lo
                                ? lo - target
                                : (target > hi ? target - hi : 0.0);
        EXPECT_LE(dist, double(bound) + 1.0);
    }
}

TEST(Kll, ShrinkHalvesBudgetAndGrowsBoundMonotonically)
{
    const Stream s = adversarialStreams(30000)[0];
    KllSketch kll(256, 31);
    for (uint64_t k : s.keys)
        kll.update(double(k));
    uint64_t prev_bound = kll.rankErrorBound();
    size_t prev_bytes = kll.bytes();
    uint32_t prev_k = kll.k();
    while (kll.shrink(16)) {
        EXPECT_EQ(kll.k(), prev_k / 2);
        EXPECT_GE(kll.rankErrorBound(), prev_bound);
        EXPECT_LE(kll.bytes(), prev_bytes);
        prev_bound = kll.rankErrorBound();
        prev_bytes = kll.bytes();
        prev_k = kll.k();
    }
    EXPECT_EQ(kll.count(), s.keys.size()); // shrink loses no mass
}

TEST(Kll, SameSeedBitIdenticalDigests)
{
    auto build = [](uint64_t seed) {
        KllSketch kll(64, seed);
        Rng rng(1);
        for (int i = 0; i < 20000; ++i)
            kll.update(rng.uniformReal());
        return kll.digest();
    };
    EXPECT_EQ(build(5), build(5));
    EXPECT_NE(build(5), build(6));
}

// ------------------------------------- ZipfSampler draw pinning
//
// Every engine call site of the shared core/random.h ZipfSampler,
// with its exact (n, theta) pair: tpce accounts/customers (sf*5, sf
// at theta 0.5), tpce securities (sf*685/1000+1, 0.5), asdb scaling
// rows (sf*17, 0.6), and the cluster fleet's per-shard key draw
// (rowsPerShard, 0.6). Pinning the first draws of each catches any
// change to the sampler (or to Rng) that would silently reshuffle
// every workload's access pattern.

std::vector<uint64_t>
zipfDraws(uint64_t n, double theta, size_t count)
{
    Rng rng(12345);
    ZipfSampler z(n, theta);
    std::vector<uint64_t> out;
    for (size_t i = 0; i < count; ++i)
        out.push_back(z(rng));
    return out;
}

TEST(ZipfPinning, CallSiteDrawSequencesAreStable)
{
    // tpce accounts: sf=150 -> n=750, theta=0.5
    EXPECT_EQ(zipfDraws(750, 0.5, 12),
              (std::vector<uint64_t>{420, 16, 697, 3, 238, 0, 23, 72,
                                     119, 624, 463, 224}));
    // tpce securities: sf=150 -> n=103, theta=0.5
    EXPECT_EQ(zipfDraws(103, 0.5, 12),
              (std::vector<uint64_t>{59, 3, 95, 0, 34, 0, 4, 11, 18,
                                     86, 64, 32}));
    // asdb scaling: sf=150 -> n=2550, theta=0.6
    EXPECT_EQ(zipfDraws(2550, 0.6, 12),
              (std::vector<uint64_t>{1246, 23, 2328, 3, 619, 0, 36,
                                     142, 263, 2031, 1405, 572}));
    // cluster fleet: rowsPerShard=2000, zipfTheta=0.6
    EXPECT_EQ(zipfDraws(2000, 0.6, 12),
              (std::vector<uint64_t>{980, 19, 1827, 3, 488, 0, 29,
                                     113, 208, 1594, 1104, 451}));
}

// ------------------------------------------------- engine hub

TEST(SketchHub, HotKeyDetectionFindsTheHeavyHitter)
{
    SketchConfig cfg;
    cfg.enabled = true;
    SketchHub hub(cfg);
    // Table 1: key 9 gets 40% of 1000 accesses, the rest uniform.
    Rng rng(3);
    for (int i = 0; i < 1000; ++i)
        hub.noteRowAccess(1, i % 10 == 0 ? 9 : 100 + rng.uniform(400));
    EXPECT_TRUE(hub.isHotRow(1, 9));
    EXPECT_FALSE(hub.isHotRow(1, 123456));
    EXPECT_FALSE(hub.isHotRow(2, 9)); // other tables are cold
    EXPECT_GT(hub.hotHits(), 0u);
}

TEST(SketchHub, GrantPressureShedsRungsWithQuantifiedCost)
{
    SketchConfig cfg;
    cfg.enabled = true;
    SketchHub hub(cfg);
    for (int i = 0; i < 5000; ++i)
        hub.noteRowAccess(1, uint64_t(i % 300));
    hub.noteGrantCapacity(1000000); // baseline
    EXPECT_EQ(hub.resizes(), 0);
    const size_t bytes_before = hub.bytes();
    hub.noteGrantCapacity(400000); // below 0.5x -> shed one rung
    EXPECT_EQ(hub.resizes(), 1);
    EXPECT_LT(hub.bytes(), bytes_before);
    ASSERT_EQ(hub.resizeLog().size(), 1u);
    EXPECT_EQ(hub.resizeLog()[0].capacityBytes, 400000u);
    // The fold preserves total mass (counter addition loses nothing).
    ASSERT_NE(hub.rowTracker(1), nullptr);
    EXPECT_EQ(hub.rowTracker(1)->total(), 5000u);
    hub.noteGrantCapacity(150000); // another halving -> another rung
    EXPECT_EQ(hub.resizes(), 2);
}

TEST(SketchHub, ObserveOnlyRunMatchesDisabledRunExactly)
{
    auto once = [](bool enabled) {
        asdb::AsdbWorkload wl(150, 32);
        auto db = wl.generate(7);
        RunConfig cfg;
        cfg.cores = 16;
        cfg.duration = milliseconds(30);
        cfg.sampleInterval = milliseconds(1);
        cfg.seed = 42;
        cfg.sketch.enabled = enabled; // neutral hooks: observe only
        return runOltpOn(wl, *db, cfg);
    };
    const OltpRunResult off = once(false);
    const OltpRunResult on = once(true);
    EXPECT_DOUBLE_EQ(off.tps, on.tps);
    EXPECT_DOUBLE_EQ(off.aborts, on.aborts);
    EXPECT_EQ(off.lockTimeouts, on.lockTimeouts);
    EXPECT_EQ(off.deadlockAborts, on.deadlockAborts);
    EXPECT_DOUBLE_EQ(off.mpki, on.mpki);
    EXPECT_DOUBLE_EQ(off.avgSsdReadBps, on.avgSsdReadBps);
    // ... while the enabled run actually observed the workload.
    EXPECT_FALSE(off.sketch.enabled);
    EXPECT_TRUE(on.sketch.enabled);
    EXPECT_GT(on.sketch.rowAccesses, 0u);
    EXPECT_GT(on.sketch.latencyCount[0], 0u);
}

TEST(SketchHub, SameSeedRunsProduceBitIdenticalSketchDigests)
{
    auto once = [] {
        asdb::AsdbWorkload wl(150, 32);
        auto db = wl.generate(7);
        RunConfig cfg;
        cfg.cores = 16;
        cfg.duration = milliseconds(30);
        cfg.sampleInterval = milliseconds(1);
        cfg.seed = 42;
        cfg.sketch.enabled = true;
        return runOltpOn(wl, *db, cfg).sketch;
    };
    const auto a = once();
    const auto b = once();
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.rowAccesses, b.rowAccesses);
    EXPECT_EQ(a.latencyCount[0], b.latencyCount[0]);
}

// A crash run's sketch summary covers both phases: counts add, the
// digest chains, and the shape, size and quantiles are the last
// phase's (TuneResult::merge's contract).
TEST(SketchHub, CrashRunMergesEveryPhasesSketch)
{
    asdb::AsdbWorkload wl(150, 32);
    auto db = wl.generate(7);
    RunConfig cfg;
    cfg.cores = 16;
    cfg.warmup = milliseconds(10);
    cfg.duration = milliseconds(40);
    cfg.sampleInterval = milliseconds(1);
    cfg.seed = 42;
    cfg.sketch.enabled = true;
    cfg.fault.enabled = true;
    cfg.fault.crashAt = cfg.warmup + cfg.duration / 2;
    std::vector<sketch::SketchResult> phases;
    cfg.phaseAudit = [&phases](SimRun &r, int) {
        phases.push_back(r.sketch->result());
    };
    const OltpRunResult res = runOltpOn(wl, *db, cfg);
    ASSERT_EQ(res.crashes, 1u);
    ASSERT_EQ(phases.size(), 2u);
    ASSERT_GT(phases[0].rowAccesses, 0u);
    ASSERT_GT(phases[1].rowAccesses, 0u);

    const sketch::SketchResult &s = res.sketch;
    const sketch::SketchResult &last = phases[1];
    EXPECT_TRUE(s.enabled);
    EXPECT_EQ(s.rowAccesses, phases[0].rowAccesses + last.rowAccesses);
    EXPECT_EQ(s.pageAccesses, phases[0].pageAccesses + last.pageAccesses);
    EXPECT_EQ(s.hotHits, phases[0].hotHits + last.hotHits);
    EXPECT_EQ(s.resizes, phases[0].resizes + last.resizes);
    EXPECT_EQ(s.latencyCount[0],
              phases[0].latencyCount[0] + last.latencyCount[0]);
    EXPECT_EQ(s.digest, fnv1aWord(phases[0].digest, last.digest));
    EXPECT_EQ(s.cmsWidth, last.cmsWidth);
    EXPECT_EQ(s.columns, last.columns);
    EXPECT_EQ(s.bytes, last.bytes);
    EXPECT_DOUBLE_EQ(s.occupancy, last.occupancy);
    EXPECT_DOUBLE_EQ(s.latP99Ms[0], last.latP99Ms[0]);
}

// ------------------------------------------------- optimizer flip

struct SketchTestTable : TableHandle
{
    std::unique_ptr<TableData> owned;
    BTree *indexOn(const std::string &) const override
    {
        return nullptr;
    }
};

class SketchTestResolver : public TableResolver
{
  public:
    SketchTestTable &
    add(const std::string &name, Schema schema)
    {
        auto t = std::make_unique<SketchTestTable>();
        t->name = name;
        t->owned = std::make_unique<TableData>(std::move(schema));
        t->data = t->owned.get();
        auto &ref = *t;
        tables_[name] = std::move(t);
        return ref;
    }

    const TableHandle &find(const std::string &name) const override
    {
        return *tables_.at(name);
    }

  private:
    std::map<std::string, std::unique_ptr<SketchTestTable>> tables_;
};

TEST(OptimizerSketch, LiveStatsFlipThePlanWhereStaticStaysWrong)
{
    SketchTestResolver resolver;
    auto &fact = resolver.add("fact",
                              Schema({{"key", TypeId::Int64},
                                      {"val", TypeId::Double}}));
    // Half the table is key 0; key 777 appears once.
    const int64_t n = 20000;
    for (int64_t i = 0; i < n; ++i)
        fact.owned->append(
            {i % 2 == 0 ? int64_t(0) : 1 + i % 50, double(i)});
    fact.owned->append({int64_t(777), 0.0});

    auto make = [](int64_t literal) {
        return PlanBuilder::scan("fact", {"key", "val"})
            .filter(eq(col("key"), lit(literal)))
            .orderBy({{"val", false}})
            .build();
    };
    auto optimize = [&](sketch::SketchHub *hub, int64_t literal,
                        double *est) {
        OptimizerConfig cfg;
        cfg.maxdop = 32;
        cfg.serialThreshold = 3.75 * double(n);
        cfg.sketch = hub;
        Optimizer opt(resolver, cfg);
        auto plan = make(literal);
        opt.optimize(*plan);
        if (est)
            *est = plan->children[0]->estRows;
        return opt.lastPlanParallel();
    };

    // Static heuristics: 2% either way -> serial for both literals,
    // and off by 25x on the hot key.
    double static_est = 0;
    EXPECT_FALSE(optimize(nullptr, 0, &static_est));
    EXPECT_FALSE(optimize(nullptr, 777, nullptr));
    EXPECT_LT(static_est, double(n) / 10);

    // Live sketch: the hot literal goes parallel, the rare literal
    // stays serial, and the hot estimate is within the CMS bound.
    SketchConfig sc;
    sc.enabled = true;
    SketchHub hub(sc);
    double hot_est = 0, rare_est = 0;
    EXPECT_TRUE(optimize(&hub, 0, &hot_est));
    EXPECT_FALSE(optimize(&hub, 777, &rare_est));
    EXPECT_NEAR(hot_est, double(n) / 2, 0.01 * double(n));
    EXPECT_LT(rare_est, 100.0);

    // String/absent columns fall back to static heuristics (null).
    EXPECT_EQ(ensureColumnStats(hub, resolver.find("fact"), "nope"),
              nullptr);
}

// ------------------------------------------------- latency guardrail

TEST(LatencyGuardrail, TrialLatencySpikeVetoesTheCommit)
{
    ResourceTotals totals;
    totals.cores = 32;
    totals.llcMb = 40;
    totals.maxdop = 32;
    totals.grantBytes = 256u << 20;
    ResourceArbiter arb(totals);
    TuneConfig cfg;
    cfg.hysteresis = 0.01;
    ProbeAndShiftPolicy policy(arb, cfg, arb.evenSplit());

    // Score says "more tenant-0 cores is better" (every such trial
    // clears the margin) — but any departure from the even split
    // spikes tail latency 100x, so the guardrail must veto every
    // commit and the base state must never move.
    KnobState state = policy.base();
    for (int epoch = 1; epoch <= 40; ++epoch) {
        EpochMetrics m;
        m.epoch = epoch;
        m.baselineDone = epoch >= Autopilot::kBaselineEpochs;
        m.score = double(state.tenant[0].cores);
        m.latencyMs = state == arb.evenSplit() ? 1.0 : 100.0;
        state = policy.onEpoch(m);
    }
    EXPECT_EQ(policy.shifts(), 0);
    EXPECT_GT(policy.latencyRollbacks(), 0);
    EXPECT_TRUE(policy.base() == arb.evenSplit());
}

TEST(LatencyGuardrail, NoLatencyStatMeansNoVeto)
{
    // latencyMs < 0 (no stat wired) must leave trajectories exactly
    // as before the guardrail existed: the same score series commits.
    ResourceTotals totals;
    totals.cores = 32;
    totals.llcMb = 40;
    totals.maxdop = 32;
    totals.grantBytes = 256u << 20;
    ResourceArbiter arb(totals);
    TuneConfig cfg;
    cfg.hysteresis = 0.01;
    ProbeAndShiftPolicy policy(arb, cfg, arb.evenSplit());

    KnobState state = policy.base();
    for (int epoch = 1; epoch <= 40; ++epoch) {
        EpochMetrics m;
        m.epoch = epoch;
        m.baselineDone = epoch >= Autopilot::kBaselineEpochs;
        m.score = double(state.tenant[0].cores);
        state = policy.onEpoch(m); // latencyMs stays -1
    }
    EXPECT_GT(policy.shifts(), 0);
    EXPECT_EQ(policy.latencyRollbacks(), 0);
}

} // namespace
} // namespace dbsens
