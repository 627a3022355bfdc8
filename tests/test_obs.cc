/**
 * @file
 * Tests for the observability subsystem (src/obs): the blame ledger's
 * sum-to-makespan invariant and window clipping, query-scope span
 * normalization, the resource mapping, ring-series downsampling, SLO
 * tracking, and the end-to-end guarantees — observability-off runs are
 * unperturbed and same-seed attribution is bit-identical.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "engine/sim_run.h"
#include "harness/oltp_runner.h"
#include "obs/blame.h"
#include "obs/observer.h"
#include "obs/series.h"
#include "workloads/htap/htap.h"
#include "workloads/tpce/tpce.h"

namespace dbsens {
namespace {

using obs::BlameClass;
using obs::BlameLedger;
using obs::kBlameClasses;
using obs::Resource;
using obs::RingSeries;
using obs::SeriesKind;
using obs::SloSpec;
using obs::SloTracker;
using obs::TenantAttribution;

/** Ledger with a hand-driven clock. */
struct FakeClockLedger
{
    SimTime now = 0;
    BlameLedger ledger{[this] { return now; }};
};

double
sumShares(const TenantAttribution &t)
{
    double s = 0;
    for (size_t c = 0; c < kBlameClasses; ++c)
        s += t.shareNs[c];
    return s;
}

// ------------------------------------------------------ BlameLedger

TEST(BlameLedger, SharesSumToMakespanExactly)
{
    FakeClockLedger f;
    f.ledger.setSessions(0, 3);
    f.ledger.beginWindow(1000);

    // Session-style charges: a CPU burst (queued 1000-1200, executing
    // 1200-1700 split 400 compute / 100 stall), a lock wait, an IO.
    f.ledger.cpuBurst(0, 1000, 1200, 1700, 400, 100);
    f.ledger.chargeInterval(0, BlameClass::LockWait, 1700, 2100);
    f.now = 2600;
    f.ledger.chargeDur(0, BlameClass::SsdRead, 500);

    f.ledger.freeze(11000);
    const TenantAttribution &t = f.ledger.tenant(0);
    // 3 sessions x 10000 ns window.
    EXPECT_DOUBLE_EQ(t.makespanNs, 30000.0);
    EXPECT_DOUBLE_EQ(t.shareNs[size_t(BlameClass::CpuQueue)], 200.0);
    EXPECT_DOUBLE_EQ(t.shareNs[size_t(BlameClass::CpuCompute)], 400.0);
    EXPECT_DOUBLE_EQ(t.shareNs[size_t(BlameClass::MemStall)], 100.0);
    EXPECT_DOUBLE_EQ(t.shareNs[size_t(BlameClass::LockWait)], 400.0);
    EXPECT_DOUBLE_EQ(t.shareNs[size_t(BlameClass::SsdRead)], 500.0);
    // Idle absorbs everything uncharged; the sum is exact.
    EXPECT_GT(t.shareNs[size_t(BlameClass::Idle)], 0.0);
    EXPECT_LE(std::fabs(sumShares(t) - t.makespanNs),
              1e-9 * t.makespanNs);
}

TEST(BlameLedger, ChargesClipToTheWindow)
{
    FakeClockLedger f;
    f.ledger.setSessions(0, 1);
    f.ledger.beginWindow(1000);

    // Entirely before the window: no-op.
    f.ledger.chargeInterval(0, BlameClass::LockWait, 0, 900);
    // Straddles the window start: only [1000, 1500) lands.
    f.ledger.chargeInterval(0, BlameClass::LockWait, 500, 1500);
    f.ledger.freeze(2000);
    // After freeze: no-op.
    f.ledger.chargeInterval(0, BlameClass::LockWait, 1500, 1800);

    const TenantAttribution &t = f.ledger.tenant(0);
    EXPECT_DOUBLE_EQ(t.shareNs[size_t(BlameClass::LockWait)], 500.0);
    EXPECT_DOUBLE_EQ(t.makespanNs, 1000.0);
    EXPECT_DOUBLE_EQ(t.shareNs[size_t(BlameClass::Idle)], 500.0);
}

TEST(BlameLedger, ChargesBeforeBeginWindowAreDropped)
{
    FakeClockLedger f;
    f.ledger.setSessions(0, 1);
    // Window not open yet: warmup work must not leak in.
    f.ledger.chargeInterval(0, BlameClass::SsdRead, 0, 500);
    f.ledger.beginWindow(1000);
    f.ledger.freeze(2000);
    const TenantAttribution &t = f.ledger.tenant(0);
    EXPECT_DOUBLE_EQ(t.shareNs[size_t(BlameClass::SsdRead)], 0.0);
    EXPECT_DOUBLE_EQ(t.shareNs[size_t(BlameClass::Idle)], 1000.0);
}

TEST(BlameLedger, QueryScopeNormalizesOntoWallSpan)
{
    FakeClockLedger f;
    f.ledger.setSessions(1, 1);
    f.ledger.beginWindow(0);

    // A "query" whose dop-parallel workers accumulate 3000 ns of raw
    // charge inside a 1000 ns wall span (overlapping workers).
    f.ledger.beginQuery(1, "Q1", 100);
    f.ledger.cpuBurst(1, 100, 100, 1000, 600, 300); // 900 exec
    f.ledger.cpuBurst(1, 100, 200, 1100, 600, 300); // 100 queue + 900
    f.ledger.chargeInterval(1, BlameClass::SsdRead, 100, 1100);
    f.ledger.endQuery(1, 1100);
    f.ledger.freeze(2000);

    ASSERT_EQ(f.ledger.queries().size(), 1u);
    const obs::QueryAttribution &q = f.ledger.queries()[0];
    EXPECT_EQ(q.name, "Q1");
    EXPECT_EQ(q.tenant, 1);
    EXPECT_EQ(q.count, 1u);
    EXPECT_DOUBLE_EQ(q.spanNs, 1000.0);
    // Raw worker time exceeds the span (parallel overlap)...
    double raw = 0, norm = 0;
    for (size_t c = 0; c < kBlameClasses; ++c) {
        raw += q.rawNs[c];
        norm += q.shareNs[c];
    }
    EXPECT_GT(raw, q.spanNs);
    // ...but the normalized shares sum to the span exactly, so the
    // tenant totals still obey the makespan invariant.
    EXPECT_NEAR(norm, q.spanNs, 1e-9 * q.spanNs);
    const TenantAttribution &t = f.ledger.tenant(1);
    EXPECT_LE(std::fabs(sumShares(t) - t.makespanNs),
              1e-9 * t.makespanNs);
    // Normalization preserves class proportions.
    const size_t cpu = size_t(BlameClass::CpuCompute);
    EXPECT_NEAR(q.shareNs[cpu] / q.spanNs, q.rawNs[cpu] / raw, 1e-12);
}

TEST(BlameLedger, RepeatedQueriesAggregateByName)
{
    FakeClockLedger f;
    f.ledger.setSessions(1, 1);
    f.ledger.beginWindow(0);
    for (int i = 0; i < 3; ++i) {
        const SimTime s = SimTime(i) * 1000;
        f.ledger.beginQuery(1, "Q7", s);
        f.ledger.cpuBurst(1, s, s, s + 400, 400, 0);
        f.ledger.endQuery(1, s + 500);
    }
    f.ledger.freeze(3000);
    ASSERT_EQ(f.ledger.queries().size(), 1u);
    EXPECT_EQ(f.ledger.queries()[0].count, 3u);
    EXPECT_DOUBLE_EQ(f.ledger.queries()[0].spanNs, 1500.0);
}

TEST(BlameLedger, DigestIsDeterministicAndShareSensitive)
{
    auto build = [](double stall) {
        auto f = std::make_unique<FakeClockLedger>();
        f->ledger.setSessions(0, 2);
        f->ledger.beginWindow(0);
        f->ledger.cpuBurst(0, 0, 100, 900, 500, stall);
        f->ledger.freeze(5000);
        return f;
    };
    auto a = build(300), b = build(300), c = build(301);
    EXPECT_EQ(a->ledger.digest(), b->ledger.digest());
    EXPECT_NE(a->ledger.digest(), c->ledger.digest());
}

TEST(ResourceBlame, MappingCoversTheKnobMovableClasses)
{
    double s[kBlameClasses] = {};
    s[size_t(BlameClass::CpuCompute)] = 1;
    s[size_t(BlameClass::CpuQueue)] = 2;
    s[size_t(BlameClass::SmtContention)] = 4;
    s[size_t(BlameClass::MemStall)] = 8;
    s[size_t(BlameClass::SsdRead)] = 16;
    s[size_t(BlameClass::SsdWrite)] = 32;
    s[size_t(BlameClass::GrantWait)] = 64;
    s[size_t(BlameClass::WalFlush)] = 128;
    // Cores includes compute: dop-parallel work shrinks with a
    // bigger core lease (see DESIGN.md Section 13).
    EXPECT_DOUBLE_EQ(obs::resourceBlameNs(s, Resource::Cores), 7.0);
    EXPECT_DOUBLE_EQ(obs::resourceBlameNs(s, Resource::Llc), 8.0);
    EXPECT_DOUBLE_EQ(obs::resourceBlameNs(s, Resource::SsdRead), 16.0);
    EXPECT_DOUBLE_EQ(obs::resourceBlameNs(s, Resource::SsdWrite),
                     160.0);
    EXPECT_DOUBLE_EQ(obs::resourceBlameNs(s, Resource::Grant), 64.0);
}

TEST(ResourceBlame, RankingSortsDescendingStable)
{
    TenantAttribution t;
    t.shareNs[size_t(BlameClass::MemStall)] = 100;
    t.shareNs[size_t(BlameClass::CpuQueue)] = 100;
    t.shareNs[size_t(BlameClass::GrantWait)] = 300;
    const auto ranked = t.ranking();
    ASSERT_EQ(ranked.size(), obs::kResources);
    EXPECT_EQ(ranked[0].resource, Resource::Grant);
    // Cores ties Llc at 100; stable sort keeps enum order.
    EXPECT_EQ(ranked[1].resource, Resource::Cores);
    EXPECT_EQ(ranked[2].resource, Resource::Llc);
    EXPECT_DOUBLE_EQ(ranked[0].blameNs, 300.0);
}

// ------------------------------------------------------- RingSeries

TEST(RingSeries, DownsamplesByDoublingStride)
{
    RingSeries s("x", SeriesKind::Rate, 8);
    for (int i = 0; i < 32; ++i)
        s.add(SimTime(i) * 100, 1.0);
    EXPECT_EQ(s.samples(), 32u);
    // Compaction halves the point count whenever it fills, doubling
    // the stride each time: 32 ticks at capacity 8 compacts thrice.
    EXPECT_EQ(s.stride(), 8u);
    EXPECT_LE(s.points().size(), 8u);
    // Every raw tick is accounted for by a stored or pending point.
    EXPECT_EQ(uint64_t(s.points().size()) * s.stride(), 32u);
}

TEST(RingSeries, RateMergesPreserveTheTotal)
{
    RingSeries s("txns", SeriesKind::Rate, 4);
    double total = 0;
    for (int i = 0; i < 64; ++i) {
        const double v = double(i % 7);
        s.add(SimTime(i), v);
        total += v;
    }
    double stored = 0;
    for (const auto &p : s.points())
        stored += p.value;
    // Full batches are stored; at most stride-1 trailing raw ticks
    // are still pending, each bounded by the max raw value (6).
    EXPECT_LE(stored, total);
    EXPECT_GE(stored, total - double(s.stride() - 1) * 6.0);
    EXPECT_DOUBLE_EQ(s.summary().sum(), total);
}

TEST(RingSeries, LevelMergesByMean)
{
    RingSeries s("gauge", SeriesKind::Level, 4);
    for (int i = 0; i < 16; ++i)
        s.add(SimTime(i), 10.0); // constant gauge
    // However many times it compacted, a constant level stays put.
    for (const auto &p : s.points())
        EXPECT_DOUBLE_EQ(p.value, 10.0);
    EXPECT_DOUBLE_EQ(s.summary().mean(), 10.0);
    EXPECT_DOUBLE_EQ(s.summary().max(), 10.0);
}

// ------------------------------------------------------- SloTracker

TEST(SloTracker, FlagsP99Ceiling)
{
    SloTracker slo;
    SloSpec spec;
    spec.p99LatencyMs = 1.0; // 1 ms ceiling
    slo.setSpec(0, spec);

    // Tick 1: fast — no violations.
    for (int i = 0; i < 100; ++i)
        slo.recordLatency(0, 0.5e6); // 0.5 ms
    EXPECT_EQ(slo.evaluate(seconds(1)), 0u);

    // Tick 2: slow p99.
    for (int i = 0; i < 100; ++i)
        slo.recordLatency(0, i < 95 ? 0.5e6 : 5e6);
    EXPECT_EQ(slo.evaluate(seconds(2)), 1u);
    ASSERT_EQ(slo.violations().size(), 1u);
    EXPECT_STREQ(slo.violations()[0].metric, "p99_latency_ms");
    EXPECT_GT(slo.violations()[0].value, 1.0);
    EXPECT_DOUBLE_EQ(slo.violations()[0].limit, 1.0);

    // Unconfigured tenant never violates, even with awful latency;
    // tenant 0 stays healthy this tick.
    for (int i = 0; i < 100; ++i)
        slo.recordLatency(0, 0.5e6);
    slo.recordLatency(1, 1e9);
    EXPECT_EQ(slo.evaluate(seconds(3)), 0u);
}

// ------------------------------------------------------- end-to-end

RunConfig
tinyConfig(bool observed)
{
    RunConfig cfg;
    cfg.cores = 16;
    cfg.duration = milliseconds(30);
    cfg.sampleInterval = milliseconds(1);
    cfg.seed = 42;
    cfg.obs.enabled = observed;
    cfg.obs.sampleEvery = milliseconds(2);
    return cfg;
}

TEST(ObsIntegration, ObservedRunMatchesUnobservedResults)
{
    tpce::TpceWorkload wl(200, 20);
    std::unique_ptr<Database> db = wl.generate(1);
    const OltpRunResult off = runOltpOn(wl, *db, tinyConfig(false));
    db = wl.generate(1);
    const OltpRunResult on = runOltpOn(wl, *db, tinyConfig(true));

    // Telemetry is read-only: the simulated outcome is unchanged.
    EXPECT_DOUBLE_EQ(on.tps, off.tps);
    EXPECT_DOUBLE_EQ(on.aborts, off.aborts);
    EXPECT_DOUBLE_EQ(on.mpki, off.mpki);
    EXPECT_DOUBLE_EQ(on.avgSsdReadBps, off.avgSsdReadBps);
    EXPECT_DOUBLE_EQ(on.avgSsdWriteBps, off.avgSsdWriteBps);
    EXPECT_FALSE(off.attribution.enabled);
    EXPECT_TRUE(on.attribution.enabled);
}

TEST(ObsIntegration, AttributionSumsToMakespanEndToEnd)
{
    tpce::TpceWorkload wl(200, 20);
    std::unique_ptr<Database> db = wl.generate(1);
    const OltpRunResult r = runOltpOn(wl, *db, tinyConfig(true));
    ASSERT_TRUE(r.attribution.enabled);
    EXPECT_LE(r.attribution.sumError(), 1e-9);
    const TenantAttribution &t0 = r.attribution.tenants[0];
    EXPECT_GT(t0.makespanNs, 0.0);
    EXPECT_GT(t0.chargedNs(), 0.0);
    // A busy OLTP tenant spends real time computing.
    EXPECT_GT(t0.shareNs[size_t(BlameClass::CpuCompute)], 0.0);
    // Series were sampled over the window.
    EXPECT_FALSE(r.attribution.series.empty());
    for (const auto &s : r.attribution.series)
        EXPECT_GT(s.samples, 0u) << s.name;
}

TEST(ObsIntegration, SameSeedAttributionDigestsBitIdentical)
{
    htap::HtapWorkload wl(600);
    std::unique_ptr<Database> db = wl.generate(1);
    auto cfg = [] {
        RunConfig c;
        c.duration = milliseconds(60);
        c.warmup = milliseconds(10);
        c.sampleInterval = milliseconds(2);
        c.obs.enabled = true;
        c.obs.sampleEvery = milliseconds(2);
        return c;
    };
    const OltpRunResult a = runOltpOn(wl, *db, cfg());
    // Regenerate so run 1's mutation drift cannot leak into run 2.
    db = wl.generate(1);
    const OltpRunResult b = runOltpOn(wl, *db, cfg());

    ASSERT_TRUE(a.attribution.enabled);
    EXPECT_NE(a.attribution.digest, 0u);
    EXPECT_EQ(a.attribution.digest, b.attribution.digest);
    EXPECT_LE(a.attribution.sumError(), 1e-9);
    // HTAP runs attribute analytical queries per name.
    EXPECT_FALSE(a.attribution.queries.empty());
    EXPECT_EQ(a.attribution.queries.size(), b.attribution.queries.size());
    // The analytical tenant's scan work shows memory stalls.
    const TenantAttribution &t1 = a.attribution.tenants[1];
    EXPECT_GT(t1.shareNs[size_t(BlameClass::MemStall)], 0.0);
}

TEST(ObsIntegration, ReportJsonCarriesTheObsSection)
{
    tpce::TpceWorkload wl(200, 20);
    std::unique_ptr<Database> db = wl.generate(1);
    const OltpRunResult r = runOltpOn(wl, *db, tinyConfig(true));
    const Json j = r.attribution.toJson();
    ASSERT_TRUE(j.contains("tenants"));
    ASSERT_EQ(j.at("tenants").size(), size_t(kNumTenants));
    const Json &t0 = j.at("tenants").at(0);
    EXPECT_TRUE(t0.contains("share_ms"));
    EXPECT_TRUE(t0.contains("ranking"));
    EXPECT_GT(j.at("window_ms").asDouble(), 0.0);
    EXPECT_LE(j.at("sum_error").asDouble(), 1e-9);
    std::string err;
    Json::parse(j.dump(2), &err);
    EXPECT_TRUE(err.empty()) << err;
}

} // namespace
} // namespace dbsens
