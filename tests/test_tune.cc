/**
 * @file
 * Tests for the autopilot subsystem (src/tune): arbiter resource
 * math and mask construction, NUMA-aware lease placement in the core
 * scheduler, the probe-and-shift policy state machine, trace
 * integration (tune.* events appear only when the autopilot runs),
 * and end-to-end determinism — the same seed produces bit-identical
 * knob trajectories and final states.
 */

#include <gtest/gtest.h>

#include "core/digest.h"
#include "core/json.h"
#include "core/trace.h"
#include "engine/sim_run.h"
#include "harness/oltp_runner.h"
#include "sim/core_scheduler.h"
#include "tune/arbiter.h"
#include "tune/policy.h"
#include "tune/probe.h"
#include "workloads/htap/htap.h"
#include "workloads/tpce/tpce.h"

namespace dbsens {
namespace {

ResourceTotals
fullMachine()
{
    ResourceTotals t;
    t.cores = 32;
    t.llcMb = 40;
    t.maxdop = 32;
    t.grantBytes = 256u << 20;
    return t;
}

// ------------------------------------------------- ResourceArbiter

TEST(ResourceArbiter, EvenSplitPartitionsTheMachine)
{
    ResourceArbiter arb(fullMachine());
    const KnobState s = arb.evenSplit();
    EXPECT_TRUE(arb.clamp(s) == s); // already feasible
    EXPECT_EQ(s.tenant[0].cores + s.tenant[1].cores, 32);
    EXPECT_EQ(s.tenant[0].llcMb + s.tenant[1].llcMb, 40);
    EXPECT_EQ(s.tenant[0].cores, 16);
    EXPECT_EQ(s.tenant[0].llcMb, 20);
    EXPECT_EQ(s.tenant[0].grantBytes + s.tenant[1].grantBytes,
              fullMachine().grantBytes);
    for (int t = 0; t < kNumTenants; ++t)
        EXPECT_LE(s.tenant[t].maxdop, s.tenant[t].cores);
}

TEST(ResourceArbiter, ClampEnforcesFloorsAndTotals)
{
    ResourceArbiter arb(fullMachine());
    KnobState s = arb.evenSplit();
    s.tenant[0].cores = 31; // would leave tenant 1 with 1
    s.tenant[1].cores = 31; // and oversubscribe
    s.tenant[0].llcMb = 39; // odd and oversized
    const KnobState c = arb.clamp(s);
    EXPECT_TRUE(arb.clamp(c) == c); // idempotent
    EXPECT_GE(c.tenant[1].cores, 2);
    EXPECT_LE(c.tenant[0].cores + c.tenant[1].cores, 32);
    EXPECT_EQ(c.tenant[0].llcMb % 2, 0);
}

TEST(ResourceArbiter, CoreMasksAreDisjointIslands)
{
    ResourceArbiter arb(fullMachine());
    KnobState s = arb.evenSplit();
    const uint64_t m0 = arb.coreMask(s, 0);
    const uint64_t m1 = arb.coreMask(s, 1);
    EXPECT_EQ(m0 & m1, 0u);
    EXPECT_EQ(__builtin_popcountll(m0), 16);
    EXPECT_EQ(__builtin_popcountll(m1), 16);
    // Tenant 0 anchors at socket 0 (physical 0..7 + SMT 16..23),
    // tenant 1 at socket 1.
    EXPECT_EQ(m0, 0x00ff00ffull);
    EXPECT_EQ(m1, 0xff00ff00ull);

    // An uneven split stays disjoint and sums to the total.
    s.tenant[0].cores = 24;
    s.tenant[1].cores = 8;
    const uint64_t u0 = arb.coreMask(s, 0);
    const uint64_t u1 = arb.coreMask(s, 1);
    EXPECT_EQ(u0 & u1, 0u);
    EXPECT_EQ(__builtin_popcountll(u0), 24);
    EXPECT_EQ(__builtin_popcountll(u1), 8);
}

TEST(ResourceArbiter, LlcWayMasksSplitLowAndHighWays)
{
    ResourceArbiter arb(fullMachine());
    const KnobState s = arb.evenSplit();
    const uint32_t w0 = arb.llcWayMask(s, 0);
    const uint32_t w1 = arb.llcWayMask(s, 1);
    EXPECT_EQ(w0 & w1, 0u);
    // 40 MB = 20 ways; even split = 10 low + 10 high.
    EXPECT_EQ(w0, 0x3ffu);
    EXPECT_EQ(w1, 0x3ffu << 10);
}

TEST(ResourceArbiter, MovesApplyAndRejectAtBounds)
{
    ResourceArbiter arb(fullMachine());
    KnobState s = arb.evenSplit();
    const auto moves = arb.moves(s);
    EXPECT_FALSE(moves.empty());
    for (const TuneMove &m : moves) {
        KnobState n = s;
        ASSERT_TRUE(arb.apply(n, m)) << m.name();
        EXPECT_TRUE(arb.clamp(n) == n) << m.name();
        EXPECT_FALSE(n == s) << m.name();
    }
    // Walk cores to tenant 0's ceiling: the move must stop applying.
    TuneMove grab{TuneMove::Kind::ShiftCores, 1, 0, 4};
    int applied = 0;
    while (arb.apply(s, grab))
        ++applied;
    EXPECT_GT(applied, 0);
    EXPECT_GE(s.tenant[1].cores, 2);
}

// ------------------------------------- NUMA-aware lease placement

/** Occupy cores one burst at a time, recording the grant order. */
std::vector<int>
grantOrder(CoreScheduler &cpu, EventLoop &loop, int tenant, int n)
{
    std::vector<int> order;
    for (int i = 0; i < n; ++i) {
        loop.spawn([](CoreScheduler &c, int t) -> Task<void> {
            CpuWork w;
            w.computeNs = 1e9; // long: stays busy for the whole test
            w.tenant = t;
            co_await c.consume(w);
        }(cpu, tenant));
        loop.runUntil(loop.now() + 1); // grant happens, burst pends
        order.push_back(cpu.lastGrantedCore());
    }
    return order;
}

TEST(CoreSchedulerNuma, LeasePrefersPhysicalThenSmtThenRemote)
{
    EventLoop loop;
    CoreScheduler cpu(loop);
    // Socket 0 entirely plus two remote physical cores.
    uint64_t mask = 0;
    for (int c : {0, 1, 2, 16, 17, 8, 9})
        mask |= 1ull << c;
    cpu.setTenantMask(0, mask);

    const std::vector<int> order = grantOrder(cpu, loop, 0, 7);
    // Preferred socket (0): physical cores before their SMT
    // siblings; the remote socket's cores come last.
    EXPECT_EQ(order,
              (std::vector<int>{0, 1, 2, 16, 17, 8, 9}));
}

TEST(CoreSchedulerNuma, PreferredSocketFollowsTheBusyIsland)
{
    EventLoop loop;
    CoreScheduler cpu(loop);
    // Lease is socket-1 heavy: 1 core on socket 0, three on socket 1.
    uint64_t mask = 0;
    for (int c : {0, 8, 9, 24})
        mask |= 1ull << c;
    cpu.setTenantMask(0, mask);

    const std::vector<int> order = grantOrder(cpu, loop, 0, 4);
    // Most-leased socket (1) fills first: physical 8, 9, then SMT 24,
    // then the lone socket-0 core.
    EXPECT_EQ(order, (std::vector<int>{8, 9, 24, 0}));
}

TEST(CoreSchedulerNuma, UntaggedBurstsIgnoreLeases)
{
    EventLoop loop;
    CoreScheduler cpu(loop);
    cpu.setTenantMask(0, 0xf0ull);
    const std::vector<int> order = grantOrder(cpu, loop, -1, 2);
    // Untagged work keeps the historical prefix placement.
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], 1);
}

TEST(CoreSchedulerNuma, RepartitionWakesQueuedSessions)
{
    EventLoop loop;
    CoreScheduler cpu(loop);
    cpu.setTenantMask(0, 0x1ull);  // tenant 0: core 0 only
    cpu.setTenantMask(1, 0x2ull);  // tenant 1: core 1 only

    int done = 0;
    auto burst = [&](int tenant) -> Task<void> {
        CpuWork w;
        w.computeNs = 1000;
        w.tenant = tenant;
        co_await cpu.consume(w);
        ++done;
    };
    loop.spawn(burst(0));
    loop.spawn(burst(0)); // queued: lease has one core
    loop.runUntil(loop.now() + 1);
    EXPECT_EQ(cpu.queueLength(), 1u);

    // Mid-run repartition: tenant 0 gains core 2; the queued burst
    // must be granted without waiting for core 0 to free up.
    cpu.setTenantMask(0, 0x5ull);
    loop.runUntil(loop.now() + 1);
    EXPECT_EQ(cpu.queueLength(), 0u);
    EXPECT_EQ(cpu.lastGrantedCore(), 2);
    loop.run();
    EXPECT_EQ(done, 2);
}

// ------------------------------------------- policy state machine

/** Drive the policy with a synthetic score: more OLTP cores = better. */
double
coreScore(const KnobState &s)
{
    return double(s.tenant[0].cores);
}

TEST(ProbeAndShiftPolicy, ClimbsTowardTheSyntheticOptimum)
{
    ResourceArbiter arb(fullMachine());
    TuneConfig cfg;
    cfg.hysteresis = 0.01;
    ProbeAndShiftPolicy policy(arb, cfg, arb.evenSplit());

    KnobState state = policy.base();
    for (int epoch = 1; epoch <= 40; ++epoch) {
        EpochMetrics m;
        m.epoch = epoch;
        m.baselineDone = epoch >= Autopilot::kBaselineEpochs;
        m.score = coreScore(state);
        state = policy.onEpoch(m);
    }
    // The policy probed every knob once and committed core shifts
    // toward tenant 0's ceiling (30 = total - kMinCores).
    EXPECT_GT(policy.probes(), 0);
    EXPECT_GT(policy.shifts(), 0);
    EXPECT_GT(policy.base().tenant[0].cores, 16);
}

TEST(ProbeAndShiftPolicy, RollsBackWhenNothingHelps)
{
    ResourceArbiter arb(fullMachine());
    TuneConfig cfg;
    ProbeAndShiftPolicy policy(arb, cfg, arb.evenSplit());

    // Flat score: no move clears the hysteresis margin, so the base
    // state must never change and nothing commits.
    KnobState state = policy.base();
    for (int epoch = 1; epoch <= 30; ++epoch) {
        EpochMetrics m;
        m.epoch = epoch;
        m.baselineDone = epoch >= Autopilot::kBaselineEpochs;
        m.score = 100.0;
        state = policy.onEpoch(m);
    }
    EXPECT_EQ(policy.shifts(), 0);
    EXPECT_TRUE(policy.base() == arb.evenSplit());
}

TEST(SensitivityProbe, RanksByDeltaDescending)
{
    SensitivityProbe p;
    p.begin({{TuneMove::Kind::ShiftCores, 0, 1, 2},
             {TuneMove::Kind::ShiftLlc, 0, 1, 4},
             {TuneMove::Kind::ShiftGrant, 0, 1, 8}});
    p.record(-1.0);
    p.record(5.0);
    p.record(2.0);
    ASSERT_TRUE(p.done());
    const auto ranked = p.ranked();
    ASSERT_EQ(ranked.size(), 3u);
    EXPECT_EQ(ranked[0].move.kind, TuneMove::Kind::ShiftLlc);
    EXPECT_EQ(ranked[1].move.kind, TuneMove::Kind::ShiftGrant);
    EXPECT_EQ(ranked[2].move.kind, TuneMove::Kind::ShiftCores);
}

// ----------------------------------------- end-to-end integration

RunConfig
tinyHtapConfig(bool autopilot)
{
    RunConfig cfg;
    cfg.duration = milliseconds(60);
    cfg.warmup = milliseconds(10);
    cfg.sampleInterval = milliseconds(2);
    cfg.tune.enabled = autopilot;
    cfg.tune.epoch = milliseconds(5);
    return cfg;
}

TEST(AutopilotIntegration, SameSeedSameTrajectoryDigest)
{
    htap::HtapWorkload wl(600);
    std::unique_ptr<Database> db = wl.generate(1);

    auto once = [&] {
        return runOltpOn(wl, *db, tinyHtapConfig(true));
    };
    // Same database object, same seed: the mutation drift of run 1
    // must not leak into run 2's decisions, so regenerate between.
    const OltpRunResult a = once();
    db = wl.generate(1);
    const OltpRunResult b = once();

    EXPECT_TRUE(a.tune.enabled);
    EXPECT_GT(a.tune.epochs, 0);
    EXPECT_EQ(a.tune.trajectoryDigest, b.tune.trajectoryDigest);
    EXPECT_TRUE(a.tune.finalState == b.tune.finalState);
    EXPECT_EQ(a.tune.shifts, b.tune.shifts);
    EXPECT_DOUBLE_EQ(a.tps, b.tps);
    EXPECT_DOUBLE_EQ(a.olapUsefulPerSec, b.olapUsefulPerSec);
}

// A crash splits a run into a pre-crash and a resumed SimRun, each
// with its own Autopilot. The run's tuning summary must cover both:
// counts add, the trajectory digests chain, and the final state is
// the resumed phase's. A one-phase run reports its autopilot's
// summary unchanged.
TEST(AutopilotIntegration, CrashRunMergesEveryPhasesTuning)
{
    tpce::TpceWorkload wl(200, 24);
    auto run = [&](bool crash) {
        std::unique_ptr<Database> db = wl.generate(3);
        RunConfig cfg;
        cfg.cores = 8;
        cfg.warmup = milliseconds(10);
        cfg.duration = milliseconds(40);
        cfg.sampleInterval = milliseconds(1);
        cfg.seed = 11;
        cfg.tune.enabled = true;
        cfg.tune.epoch = milliseconds(4);
        cfg.fault.enabled = crash;
        if (crash)
            cfg.fault.crashAt = cfg.warmup + cfg.duration / 2;
        std::vector<TuneResult> phases;
        cfg.phaseAudit = [&phases](SimRun &r, int) {
            phases.push_back(r.autopilot->result());
        };
        OltpRunResult res = runOltpOn(wl, *db, cfg);
        return std::make_pair(std::move(res), std::move(phases));
    };

    const auto [one, one_phases] = run(false);
    ASSERT_EQ(one_phases.size(), 1u);
    EXPECT_EQ(one.tune.epochs, one_phases[0].epochs);
    EXPECT_EQ(one.tune.trajectoryDigest, one_phases[0].trajectoryDigest);

    const auto [res, phases] = run(true);
    ASSERT_EQ(res.crashes, 1u);
    ASSERT_EQ(phases.size(), 2u);
    ASSERT_GT(phases[0].epochs, 0) << "crash landed before tuning began";
    ASSERT_GT(phases[1].epochs, 0);
    const TuneResult &t = res.tune;
    EXPECT_TRUE(t.enabled);
    EXPECT_EQ(t.policy, "probe-and-shift");
    EXPECT_EQ(t.epochs, phases[0].epochs + phases[1].epochs);
    EXPECT_EQ(t.probes, phases[0].probes + phases[1].probes);
    EXPECT_EQ(t.shifts, phases[0].shifts + phases[1].shifts);
    EXPECT_EQ(t.rollbacks, phases[0].rollbacks + phases[1].rollbacks);
    EXPECT_EQ(t.freezes, phases[0].freezes + phases[1].freezes);
    EXPECT_EQ(t.trajectoryDigest,
              fnv1aWord(phases[0].trajectoryDigest,
                        phases[1].trajectoryDigest));
    EXPECT_TRUE(t.finalState == phases[1].finalState);
    EXPECT_DOUBLE_EQ(t.score, phases[1].score);
    EXPECT_EQ(t.probeDeltas.size(), phases[1].probeDeltas.size());
}

TEST(AutopilotIntegration, DisabledRunReportsNoTuning)
{
    htap::HtapWorkload wl(600);
    std::unique_ptr<Database> db = wl.generate(1);
    const OltpRunResult r = runOltpOn(wl, *db, tinyHtapConfig(false));
    EXPECT_FALSE(r.tune.enabled);
    EXPECT_EQ(r.tune.policy, "off");
    EXPECT_EQ(r.tune.epochs, 0);
    EXPECT_EQ(r.tune.trajectoryDigest, 0u);
}

TEST(AutopilotIntegration, RegistersTuneGauges)
{
    htap::HtapWorkload wl(600);
    std::unique_ptr<Database> db = wl.generate(1);
    SimRun run(*db, tinyHtapConfig(true));
    ASSERT_NE(run.autopilot, nullptr);
    EXPECT_EQ(run.stats.value("tune.t0.cores"), 16.0);
    EXPECT_EQ(run.stats.value("tune.t1.cores"), 16.0);
    EXPECT_EQ(run.stats.value("tune.epochs"), 0.0);
    // Leases and COS masks were actually installed.
    EXPECT_NE(run.cpu.tenantMask(0), 0u);
    EXPECT_NE(run.cpu.tenantMask(1), 0u);
    EXPECT_EQ(run.cpu.tenantMask(0) & run.cpu.tenantMask(1), 0u);
}

/** Count events of one category in a recorder's JSON document. */
int
countCategory(const TraceRecorder &tr, const std::string &cat)
{
    std::string err;
    const Json doc = Json::parse(tr.toJson().dump(), &err);
    EXPECT_TRUE(err.empty()) << err;
    int n = 0;
    for (const auto &e : doc.at("traceEvents").items())
        if (e.contains("cat") && e.at("cat").asString() == cat)
            ++n;
    return n;
}

TEST(AutopilotTrace, TuneEventsOnlyWhenAutopilotRuns)
{
    htap::HtapWorkload wl(600);

    // Autopilot on + recorder active: epoch spans and knob instants.
    {
        std::unique_ptr<Database> db = wl.generate(1);
        TraceRecorder tr;
        TraceRecorder::setActive(&tr);
        runOltpOn(wl, *db, tinyHtapConfig(true));
        TraceRecorder::setActive(nullptr);
        EXPECT_GT(countCategory(tr, "tune"), 0);
    }
    // Autopilot off + recorder active: no tune.* events at all.
    {
        std::unique_ptr<Database> db = wl.generate(1);
        TraceRecorder tr;
        TraceRecorder::setActive(&tr);
        runOltpOn(wl, *db, tinyHtapConfig(false));
        TraceRecorder::setActive(nullptr);
        EXPECT_EQ(countCategory(tr, "tune"), 0);
    }
    // Autopilot on, tracing off: runs clean (nothing to observe).
    {
        std::unique_ptr<Database> db = wl.generate(1);
        ASSERT_EQ(TraceRecorder::active(), nullptr);
        const OltpRunResult r =
            runOltpOn(wl, *db, tinyHtapConfig(true));
        EXPECT_TRUE(r.tune.enabled);
    }
}

} // namespace
} // namespace dbsens
