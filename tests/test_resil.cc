/**
 * @file
 * Tests for the resilience subsystem (src/resil) and its satellites:
 * the shared capped-exponential backoff helpers (core/backoff.h),
 * incident-detector hysteresis (no flapping on boundary oscillation),
 * degradation-ladder escalation/de-escalation order and re-admission
 * backoff, token-bucket determinism, the autopilot change-freeze
 * (in-flight trials roll back), resil-off identity, same-seed
 * incident-digest bit-identity, and the chaos tuning-plus-faults mode
 * with every auditor clean.
 */

#include <gtest/gtest.h>

#include "chaos/chaos.h"
#include "core/backoff.h"
#include "harness/oltp_runner.h"
#include "resil/controller.h"
#include "resil/detector.h"
#include "resil/ladder.h"
#include "tune/autopilot.h"
#include "workloads/tpce/tpce.h"

namespace dbsens {
namespace {

// ---------------------------------------------------- core/backoff.h

TEST(Backoff, CappedExpDelayDoublesThenClamps)
{
    const SimDuration base = microseconds(50);
    const SimDuration cap = microseconds(450);
    EXPECT_EQ(cappedExpDelay(base, cap, 1), microseconds(50));
    EXPECT_EQ(cappedExpDelay(base, cap, 2), microseconds(100));
    EXPECT_EQ(cappedExpDelay(base, cap, 3), microseconds(200));
    EXPECT_EQ(cappedExpDelay(base, cap, 4), microseconds(400));
    // The doubling stops at the cap and stays there.
    EXPECT_EQ(cappedExpDelay(base, cap, 5), microseconds(450));
    EXPECT_EQ(cappedExpDelay(base, cap, 50), microseconds(450));
}

TEST(Backoff, JitterIsSeededDeterministicAndBounded)
{
    const SimDuration base = microseconds(50);
    const SimDuration cap = milliseconds(5);
    Rng a(42), b(42);
    for (int attempt = 1; attempt <= 12; ++attempt) {
        const SimDuration da = cappedExpBackoff(base, cap, attempt, a);
        const SimDuration db = cappedExpBackoff(base, cap, attempt, b);
        EXPECT_EQ(da, db) << "attempt " << attempt;
        const SimDuration d = cappedExpDelay(base, cap, attempt);
        EXPECT_GE(da, d);
        EXPECT_LE(da, d + d / 2);
    }
    // A different seed draws a different jitter stream somewhere.
    Rng c(43);
    bool differs = false;
    Rng a2(42);
    for (int attempt = 1; attempt <= 12; ++attempt)
        differs |= cappedExpBackoff(base, cap, attempt, a2) !=
                   cappedExpBackoff(base, cap, attempt, c);
    EXPECT_TRUE(differs);
}

TEST(Backoff, ExpBackoffEscalatesToCapAndResets)
{
    ExpBackoff b(6, 48);
    EXPECT_EQ(b.current(), 6);
    b.escalate();
    EXPECT_EQ(b.current(), 12);
    b.escalate();
    b.escalate();
    EXPECT_EQ(b.current(), 48);
    b.escalate(); // saturates
    EXPECT_EQ(b.current(), 48);
    b.reset();
    EXPECT_EQ(b.current(), 6);
}

// ------------------------------------------------- IncidentDetector

// The thresholds are fixed: enter at pressure >= 1.0 for 2 ticks,
// exit at <= 0.25 for 4 ticks.
static_assert(resil::IncidentDetector::kEnterPressure == 1.0);
static_assert(resil::IncidentDetector::kEnterTicks == 2);
static_assert(resil::IncidentDetector::kExitPressure == 0.25);
static_assert(resil::IncidentDetector::kExitTicks == 4);

TEST(IncidentDetector, EntryNeedsConsecutiveHotTicks)
{
    resil::IncidentDetector det;
    using Edge = resil::IncidentDetector::Edge;
    // One hot tick, then calm: the streak resets, no incident.
    EXPECT_EQ(det.observe(1, 2.0, resil::kCauseBrownout), Edge::None);
    EXPECT_EQ(det.observe(2, 0.0, 0), Edge::None);
    EXPECT_EQ(det.observe(3, 2.0, resil::kCauseSlo), Edge::None);
    EXPECT_FALSE(det.active());
    // Two consecutive hot ticks: enter, with the streak's causes.
    EXPECT_EQ(det.observe(4, 1.5, resil::kCauseBrownout), Edge::Enter);
    EXPECT_TRUE(det.active());
    ASSERT_EQ(det.incidents(), 1);
    EXPECT_EQ(det.episodes()[0].causes,
              resil::kCauseSlo | resil::kCauseBrownout);
    EXPECT_EQ(det.episodes()[0].start, 4);
    EXPECT_EQ(det.episodes()[0].end, 0); // still open
}

TEST(IncidentDetector, BoundaryOscillationNeverFlaps)
{
    resil::IncidentDetector det;
    using Edge = resil::IncidentDetector::Edge;
    // Alternating hot/calm while inactive: neither streak completes.
    for (SimTime t = 1; t <= 40; ++t)
        EXPECT_EQ(det.observe(t, (t % 2) ? 1.5 : 0.0, 0), Edge::None);
    EXPECT_FALSE(det.active());
    EXPECT_EQ(det.incidents(), 0);

    // Force entry, then oscillate again: the exit streak never
    // completes either — the episode stays open, no flapping.
    det.observe(41, 2.0, 0);
    EXPECT_EQ(det.observe(42, 2.0, 0), Edge::Enter);
    for (SimTime t = 43; t <= 80; ++t)
        EXPECT_EQ(det.observe(t, (t % 2) ? 1.5 : 0.0, 0), Edge::None);
    EXPECT_TRUE(det.active());
    EXPECT_EQ(det.incidents(), 1);
}

TEST(IncidentDetector, ExitNeedsCalmStreakAndMidBandHolds)
{
    resil::IncidentDetector det;
    using Edge = resil::IncidentDetector::Edge;
    det.observe(1, 2.0, 0);
    EXPECT_EQ(det.observe(2, 2.0, 0), Edge::Enter);
    // Mid-band pressure (between exit and enter): holds, no exit.
    for (SimTime t = 3; t <= 10; ++t)
        EXPECT_EQ(det.observe(t, 0.5, 0), Edge::None);
    EXPECT_TRUE(det.active());
    // Three calm ticks then a blip: streak resets.
    det.observe(11, 0.0, 0);
    det.observe(12, 0.0, 0);
    det.observe(13, 0.0, 0);
    det.observe(14, 0.9, 0);
    EXPECT_TRUE(det.active());
    // Four consecutive calm ticks: exit, episode closed.
    det.observe(15, 0.0, 0);
    det.observe(16, 0.0, 0);
    det.observe(17, 0.0, 0);
    EXPECT_EQ(det.observe(18, 0.1, 0), Edge::Exit);
    EXPECT_FALSE(det.active());
    EXPECT_EQ(det.episodes()[0].end, 18);
    EXPECT_DOUBLE_EQ(det.episodes()[0].peakPressure, 2.0);
}

// ------------------------------------------------ DegradationLadder

// Fixed ladder timing: 2 hot ticks per rung, holds 6, 12, 24, 48
// (cap), and 64 quiet ticks at rung 0 forgive every rung.
static_assert(resil::DegradationLadder::kEscalateTicks == 2);
static_assert(resil::DegradationLadder::kHoldTicks == 6);
static_assert(resil::DegradationLadder::kHoldShiftCap == 3);
static_assert(resil::DegradationLadder::kStrikeResetTicks == 64);

TEST(DegradationLadder, ClimbsOneRungAtATimeInOrder)
{
    resil::DegradationLadder lad;
    std::vector<int> moves;
    for (int i = 0; i < 10; ++i) {
        const int m = lad.update(/*incident=*/true, /*hot=*/true);
        if (m >= 0)
            moves.push_back(m);
    }
    // 2 hot ticks per rung, 4 rungs, then saturation.
    EXPECT_EQ(moves, (std::vector<int>{
                         resil::kRungClampDop, resil::kRungShrinkGrant,
                         resil::kRungAdmission,
                         resil::kRungOltpPriority}));
    EXPECT_EQ(lad.rung(), resil::kRungOltpPriority);
    EXPECT_EQ(lad.maxRung(), resil::kRungOltpPriority);
    EXPECT_EQ(lad.escalations(), 4);
}

TEST(DegradationLadder, MidBandHoldsPosition)
{
    resil::DegradationLadder lad;
    lad.update(true, true);
    lad.update(true, true); // rung 1
    ASSERT_EQ(lad.rung(), 1);
    // Incident persists but pressure is off the bar: hold.
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(lad.update(true, false), -1);
    EXPECT_EQ(lad.rung(), 1);
}

TEST(DegradationLadder, StepsDownAfterHoldWithBackoff)
{
    resil::DegradationLadder lad;
    // Engage rung 1, then count the calm ticks until it releases.
    auto hold_of_next_engagement = [&] {
        lad.update(true, true);
        lad.update(true, true);
        EXPECT_EQ(lad.rung(), 1);
        for (int i = 1; i <= 100; ++i)
            if (lad.update(false, false) == 0)
                return i;
        return -1;
    };
    // First engagement: the hold is the base; each re-engagement
    // doubles it up to the cap.
    EXPECT_EQ(hold_of_next_engagement(), 6);
    EXPECT_EQ(lad.deescalations(), 1);
    EXPECT_EQ(hold_of_next_engagement(), 12);
    EXPECT_EQ(hold_of_next_engagement(), 24);
    EXPECT_EQ(hold_of_next_engagement(), 48);
    EXPECT_EQ(hold_of_next_engagement(), 48); // capped

    // A quiet spell at rung 0 resets the strike backoff to base.
    for (int i = 0; i < resil::DegradationLadder::kStrikeResetTicks; ++i)
        lad.update(false, false);
    EXPECT_EQ(hold_of_next_engagement(), 6);
}

// ----------------------------------------------------- TokenBucket

TEST(TokenBucket, DeterministicRefillAndBurstCap)
{
    resil::TokenBucket b;
    b.configure(/*ratePerSec=*/1000.0, /*burst=*/2.0);
    b.reset(0);
    // Burst drains first.
    EXPECT_TRUE(b.tryTake(0));
    EXPECT_TRUE(b.tryTake(0));
    EXPECT_FALSE(b.tryTake(0));
    // 1000/s = one token per ms.
    EXPECT_FALSE(b.tryTake(microseconds(500)));
    EXPECT_TRUE(b.tryTake(milliseconds(2)));
    // Refill saturates at the burst: a long gap buys 2 takes, not 10.
    EXPECT_TRUE(b.tryTake(milliseconds(100)));
    EXPECT_TRUE(b.tryTake(milliseconds(100)));
    EXPECT_FALSE(b.tryTake(milliseconds(100)));

    // Same call sequence, same outcomes and state — bit-for-bit.
    resil::TokenBucket c;
    c.configure(1000.0, 2.0);
    c.reset(0);
    const bool takes[] = {c.tryTake(0),
                          c.tryTake(0),
                          c.tryTake(0),
                          c.tryTake(microseconds(500)),
                          c.tryTake(milliseconds(2)),
                          c.tryTake(milliseconds(100)),
                          c.tryTake(milliseconds(100)),
                          c.tryTake(milliseconds(100))};
    const bool want[] = {true, true, false, false,
                         true, true, true,  false};
    for (size_t i = 0; i < sizeof want; ++i)
        EXPECT_EQ(takes[i], want[i]) << "call " << i;
    EXPECT_DOUBLE_EQ(c.tokens(), b.tokens());
}

// ------------------------------------ change-freeze (autopilot)

ResourceTotals
freezeTotals()
{
    ResourceTotals totals;
    totals.cores = 32;
    totals.llcMb = 40;
    totals.maxdop = 32;
    totals.grantBytes = 256u << 20;
    return totals;
}

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

TEST(FreezeGuard, FreezeRollsBackInFlightTrialAndHolds)
{
    const ResourceTotals totals = freezeTotals();
    ResourceArbiter arb(totals);
    TuneConfig cfg;
    cfg.enabled = true;
    cfg.hysteresis = 0.02;
    cfg.epoch = milliseconds(1);
    const KnobState base = arb.evenSplit();

    // The climber alone: drive epochs until it opens a trial — flat
    // scores during baseline/hold, a consistent uplift on probe
    // epochs so some candidate looks promising.
    ProbeAndShiftPolicy policy(arb, cfg, base);
    EpochMetrics m;
    bool in_trial = false;
    for (int e = 1; e <= 300 && !in_trial; ++e) {
        m.epoch = e;
        m.baselineDone = e > Autopilot::kBaselineEpochs;
        const bool probing = startsWith(policy.phaseLabel(), "probe");
        m.score = probing ? 1.3 : 1.0;
        m.rate[0] = probing ? 1.3 : 1.0;
        m.rate[1] = probing ? 1.3 : 1.0;
        policy.onEpoch(m);
        in_trial = startsWith(policy.phaseLabel(), "trial");
    }
    ASSERT_TRUE(in_trial) << "policy never opened a trial";
    ASSERT_GT(policy.probes(), 0);

    // Freeze mid-trial: the trial rolls back and the climber hands
    // back the pre-trial base state to hold.
    const int rollbacks_before = policy.rollbacks();
    EXPECT_TRUE(policy.onFreeze() == base); // nothing committed yet
    EXPECT_EQ(policy.rollbacks(), rollbacks_before + 1);
    EXPECT_EQ(policy.phaseLabel(), "hold");
    // Unfreeze: holding resumes with the fast re-probe backoff.
    policy.onUnfreeze();
    EXPECT_EQ(policy.phaseLabel(), "hold");

    // The same path through the Autopilot on an event loop. Progress
    // gauges advance mid-epoch by an amount that depends on the
    // running epoch's label: probe epochs score 1.3x, and while
    // `boost` is set every epoch scores 5x.
    EventLoop loop;
    StatsRegistry stats;
    double progress[kNumTenants] = {0, 0};
    double boost = 1.0;
    bool running = true;
    stats.gauge("p0", [&] { return progress[0]; }, "");
    stats.gauge("p1", [&] { return progress[1]; }, "");
    Autopilot ap(loop, cfg, totals, 0);
    Autopilot::Actuators act;
    act.stats = &stats;
    act.progressStat[0] = "p0";
    act.progressStat[1] = "p1";
    act.running = [&] { return running; };
    ap.start(std::move(act));
    auto driver = [&]() -> Task<void> {
        co_await SimDelay(loop, cfg.epoch / 2);
        while (running) {
            const double f =
                boost * (startsWith(ap.phaseLabel(), "probe") ? 1.3 : 1.0);
            for (double &p : progress)
                p += 1000 * f;
            co_await SimDelay(loop, cfg.epoch);
        }
    };
    loop.spawn(driver());
    for (int e = 0; e < 300 && !startsWith(ap.phaseLabel(), "trial");
         ++e)
        loop.runUntil(loop.now() + cfg.epoch);
    ASSERT_TRUE(startsWith(ap.phaseLabel(), "trial"))
        << "autopilot never opened a trial";
    EXPECT_FALSE(ap.state() == base);

    const TuneResult before = ap.result();
    ap.setFrozen(true);
    EXPECT_TRUE(ap.frozen());
    EXPECT_EQ(ap.freezes(), 1);
    EXPECT_EQ(ap.result().rollbacks, before.rollbacks + 1);
    EXPECT_TRUE(ap.state() == base); // rolled back at once
    EXPECT_EQ(ap.phaseLabel(), "frozen");
    EXPECT_NE(ap.trajectoryDigest(), before.trajectoryDigest);

    // Idempotent: a second freeze neither rolls back again, counts,
    // folds into the digest nor moves the knobs.
    const uint64_t frozen_digest = ap.trajectoryDigest();
    ap.setFrozen(true);
    EXPECT_EQ(ap.freezes(), 1);
    EXPECT_EQ(ap.result().rollbacks, before.rollbacks + 1);
    EXPECT_EQ(ap.trajectoryDigest(), frozen_digest);
    EXPECT_TRUE(ap.state() == base);

    // While frozen every epoch holds the state: even a great score
    // must not move the knobs.
    boost = 5.0;
    const int epochs_frozen = ap.epochs();
    loop.runUntil(loop.now() + 5 * cfg.epoch);
    EXPECT_GE(ap.epochs(), epochs_frozen + 4);
    EXPECT_TRUE(ap.state() == base);
    EXPECT_EQ(ap.phaseLabel(), "frozen");
    EXPECT_EQ(ap.trajectoryDigest(), frozen_digest);

    // Unfreeze: holding resumes, and the edge folds into the digest.
    ap.setFrozen(false);
    EXPECT_FALSE(ap.frozen());
    EXPECT_EQ(ap.phaseLabel(), "hold");
    EXPECT_NE(ap.trajectoryDigest(), frozen_digest);

    running = false;
    loop.run();
}

// ------------------------------------------- end-to-end determinism

RunConfig
shortTpceConfig()
{
    RunConfig cfg;
    cfg.duration = milliseconds(30);
    cfg.warmup = milliseconds(10);
    cfg.sampleInterval = milliseconds(2);
    return cfg;
}

TEST(ResilEndToEnd, DisabledControllerChangesNothing)
{
    tpce::TpceWorkload wl(100);
    const RunConfig cfg = shortTpceConfig();

    const OltpRunResult off = runOltp(wl, cfg);
    // resil.enabled=false constructs no controller: identical config,
    // identical run (the null-pointer gate) — and a calm enabled run
    // (no faults, no SLO pressure) never engages a rung, so the
    // workload-visible numbers match the disabled run bit-for-bit.
    RunConfig calm = cfg;
    calm.resil.enabled = true;
    const OltpRunResult on = runOltp(wl, calm);

    EXPECT_EQ(off.tps, on.tps);
    EXPECT_EQ(off.aborts, on.aborts);
    EXPECT_EQ(off.lockTimeouts, on.lockTimeouts);
    EXPECT_EQ(off.txnsRetried, on.txnsRetried);
    EXPECT_FALSE(off.resil.enabled);
    EXPECT_TRUE(on.resil.enabled);
    EXPECT_EQ(on.resil.incidents, 0);
    EXPECT_EQ(on.resil.maxRung, 0);
    EXPECT_EQ(on.resil.admitSheds[0], 0u);
    EXPECT_EQ(on.resil.admitSheds[1], 0u);
}

TEST(ResilEndToEnd, SameSeedIncidentDigestIsBitIdentical)
{
    tpce::TpceWorkload wl(100);
    RunConfig cfg = shortTpceConfig();
    cfg.fault.enabled = true;
    cfg.fault.brownoutPeriod = milliseconds(10);
    cfg.fault.brownoutDuration = milliseconds(5);
    cfg.fault.brownoutFactor = 0.2;
    cfg.resil.enabled = true;

    const OltpRunResult a = runOltp(wl, cfg);
    const OltpRunResult b = runOltp(wl, cfg);

    // Periodic brownouts must register as incidents and climb rungs.
    EXPECT_GE(a.resil.incidents, 1);
    EXPECT_GE(a.resil.maxRung, 1);
    EXPECT_GT(a.resil.ticks, 0);
    ASSERT_FALSE(a.resil.episodes.empty());
    EXPECT_NE(a.resil.incidentDigest, 0u);

    // Same seed, same build: the incident log replays bit-for-bit.
    EXPECT_EQ(a.resil.incidentDigest, b.resil.incidentDigest);
    EXPECT_EQ(a.resil.incidents, b.resil.incidents);
    EXPECT_EQ(a.resil.escalations, b.resil.escalations);
    EXPECT_EQ(a.resil.deescalations, b.resil.deescalations);
    ASSERT_EQ(a.resil.transitions.size(), b.resil.transitions.size());
    for (size_t i = 0; i < a.resil.transitions.size(); ++i) {
        EXPECT_EQ(a.resil.transitions[i].at, b.resil.transitions[i].at);
        EXPECT_EQ(a.resil.transitions[i].to, b.resil.transitions[i].to);
    }

    // A different seed walks a different incident timeline. (The
    // pressure signal is workload-coupled through SSD retries/sheds;
    // at minimum the run's own digest must still be reproducible, so
    // only assert inequality when the timelines actually differ.)
    RunConfig other = cfg;
    other.seed = cfg.seed + 17;
    const OltpRunResult c = runOltp(wl, other);
    if (c.resil.transitions.size() != a.resil.transitions.size()) {
        EXPECT_NE(c.resil.incidentDigest, a.resil.incidentDigest);
    }
}

// -------------------------------------- chaos tuning-plus-faults mode

TEST(ChaosResil, EpisodeJsonRoundTripsAndDefaultsOff)
{
    verify::ChaosEpisode ep;
    ep.workload = "HTAP";
    ep.tune = true;
    ep.resil = true;
    verify::ChaosEpisode back;
    std::string err;
    ASSERT_TRUE(
        verify::ChaosEpisode::fromJson(ep.toJson(), &back, &err))
        << err;
    EXPECT_TRUE(back.tune);
    EXPECT_TRUE(back.resil);

    // Legacy repro files carry neither key: both default to false.
    Json j = ep.toJson();
    Json legacy = Json::object();
    for (const char *key :
         {"workload", "scale_factor", "seed", "fault_seed",
          "duration_ns", "warmup_ns", "lock_timeout_ns", "detector",
          "deadlock_check_ns", "grant_timeout_ns", "script"})
        legacy[key] = j.at(key);
    ASSERT_TRUE(
        verify::ChaosEpisode::fromJson(legacy, &back, &err))
        << err;
    EXPECT_FALSE(back.tune);
    EXPECT_FALSE(back.resil);
}

TEST(ChaosResil, TuneAndResilEpisodeAuditsCleanAndReplays)
{
    verify::ChaosEpisode ep;
    ep.workload = "HTAP";
    ep.scaleFactor = 100;
    ep.seed = 20260809;
    ep.faultSeed = 11;
    ep.duration = milliseconds(24);
    ep.warmup = milliseconds(8);
    ep.lockTimeout = milliseconds(4);
    ep.detector = true;
    ep.grantTimeout = milliseconds(2);
    ep.tune = true;
    ep.resil = true;
    ep.script = {
        {milliseconds(10), FaultEvent::Kind::BrownoutStart, 0.15},
        {milliseconds(12), FaultEvent::Kind::OfflineCores, 8},
        {milliseconds(20), FaultEvent::Kind::BrownoutEnd, 0},
    };

    const verify::EpisodeOutcome a = verify::runEpisode(ep);
    EXPECT_TRUE(a.ok()) << a.report.summary();
    EXPECT_TRUE(a.result.tune.enabled);
    EXPECT_TRUE(a.result.resil.enabled);
    EXPECT_GT(a.result.resil.ticks, 0);

    // Bit-identical replay, controller digests included.
    const verify::EpisodeOutcome b = verify::runEpisode(ep);
    EXPECT_EQ(a.stateDigest, b.stateDigest);
    EXPECT_EQ(a.result.resil.incidentDigest,
              b.result.resil.incidentDigest);
    EXPECT_EQ(a.result.tune.trajectoryDigest,
              b.result.tune.trajectoryDigest);
}

// The --small chaos episodes at seeds 7 and 55 are HTAP runs with
// tune and resil on that freeze tuning once, without a crash; at seed
// 55 the freeze lands in the middle of a probe pass. Pinning the
// autopilot summary pins that freeze path: the dropped probe pass, the
// held state and the knob-4 folds. No trial is open at either freeze,
// so neither rolls anything back; BrownoutDuringTrialRollsItBack below
// covers the rollback.
TEST(ChaosResil, FreezeEpisodesPinTuneSummary)
{
    struct Pin
    {
        uint64_t seed;
        int epochs, probes, shifts, rollbacks, freezes;
        uint64_t digest;
    };
    const Pin pins[] = {
        {7, 9, 0, 0, 0, 1, 10683642436286003437ull},
        {55, 7, 1, 0, 0, 1, 7462369445666731983ull},
    };
    for (const Pin &p : pins) {
        SCOPED_TRACE(p.seed);
        const verify::ChaosEpisode ep = verify::randomEpisode(p.seed, true);
        ASSERT_EQ(ep.workload, "HTAP");
        ASSERT_TRUE(ep.tune && ep.resil);
        const verify::EpisodeOutcome o = verify::runEpisode(ep);
        EXPECT_TRUE(o.ok()) << o.report.summary();
        EXPECT_EQ(o.result.crashes, 0u);
        const TuneResult &t = o.result.tune;
        EXPECT_EQ(t.epochs, p.epochs);
        EXPECT_EQ(t.probes, p.probes);
        EXPECT_EQ(t.shifts, p.shifts);
        EXPECT_EQ(t.rollbacks, p.rollbacks);
        EXPECT_EQ(t.freezes, p.freezes);
        EXPECT_EQ(t.trajectoryDigest, p.digest);
    }
}

// A brownout that lands while a trial shift is open freezes tuning and
// rolls the trial back, through the whole engine. The run is a chaos
// episode's (HTAP, 4 ms tuning epochs, resil on, auditors attached)
// without its 4 ms p99 SLO: healthy OLTP p99 there is 12-22 ms, so
// that SLO opens an incident 4 ms after warm-up in every chaos episode,
// before any trial can open. Here only the brownout raises pressure.
// After 2 baseline and 7 probe epochs the first trial opens at 44 ms,
// and the run ends at 48 ms, before the trial is judged.
TEST(ChaosResil, BrownoutDuringTrialRollsItBack)
{
    auto run = [](bool brownout) {
        std::unique_ptr<OltpWorkload> wl = makeOltpWorkload("HTAP", 200);
        std::unique_ptr<Database> db = wl->generate(3);
        RunConfig cfg;
        cfg.seed = 3;
        cfg.warmup = milliseconds(8);
        cfg.duration = milliseconds(40);
        cfg.sampleInterval = milliseconds(2);
        cfg.lockTimeout = milliseconds(5);
        cfg.txnRetryLimit = 3;
        cfg.fault.enabled = true;
        cfg.fault.seed = 5;
        if (brownout)
            cfg.fault.script = {
                {milliseconds(42), FaultEvent::Kind::BrownoutStart, 0.2},
                {milliseconds(48), FaultEvent::Kind::BrownoutEnd, 0},
            };
        cfg.tune.enabled = true;
        cfg.tune.epoch = milliseconds(4);
        cfg.resil.enabled = true;
        verify::AuditReport rep;
        cfg.phaseAudit = [&rep](SimRun &r, int) {
            verify::auditLockTable(r.locks, r.activeTxnList(), rep);
            verify::auditBufferPool(r.pool, rep);
        };
        OltpRunResult res = runOltpOn(*wl, *db, cfg);
        EXPECT_TRUE(rep.ok()) << rep.summary();
        return res;
    };

    const OltpRunResult calm = run(false);
    EXPECT_EQ(calm.resil.incidents, 0);
    EXPECT_EQ(calm.tune.probes, 7);
    EXPECT_EQ(calm.tune.rollbacks, 0);
    EXPECT_EQ(calm.tune.freezes, 0);
    EXPECT_EQ(calm.tune.trajectoryDigest, 323414429882683752ull);

    const OltpRunResult hit = run(true);
    EXPECT_EQ(hit.resil.incidents, 1);
    EXPECT_EQ(hit.tune.probes, 7);
    EXPECT_EQ(hit.tune.rollbacks, 1);
    EXPECT_EQ(hit.tune.freezes, 1);
    EXPECT_EQ(hit.tune.trajectoryDigest, 10934570321068367967ull);
}

} // namespace
} // namespace dbsens
