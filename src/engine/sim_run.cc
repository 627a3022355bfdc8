#include "engine/sim_run.h"

#include <algorithm>

#include "core/trace.h"

namespace dbsens {

// SimRun's members `obs` and `sketch` shadow the namespaces inside
// member bodies.
namespace obsv = ::dbsens::obs;
namespace skch = ::dbsens::sketch;

namespace {

/** Background lazy writer: flush dirty pages through the SSD. It
 * stops ticking at the end of the run window so event loops drain. */
Task<void>
checkpointer(SimRun &run)
{
    uint64_t tick = 0;
    while (run.running()) {
        co_await SimDelay(run.loop, SimRun::kCheckpointInterval);
        const uint64_t bytes =
            run.pool.flushDirty(SimRun::kCheckpointBatchBytes);
        if (bytes > 0)
            co_await run.ssd.write(bytes);
        // Crash–recovery runs take a fuzzy checkpoint every 10 lazy-
        // writer ticks, bounding redo work after an injected crash.
        if (run.wal.capturing() && ++tick % 10 == 0)
            run.wal.fuzzyCheckpoint(run.activeTxnList());
    }
}

/** Periodic waits-for-graph search (RunConfig::deadlockPolicy). */
Task<void>
deadlockMonitor(SimRun &run, SimDuration interval)
{
    while (run.running()) {
        co_await SimDelay(run.loop, interval);
        run.locks.detectDeadlocks();
    }
}

/** Observability sampling tick: series, SLOs, trace counters. Pure
 * reads over the stats registry — cannot perturb the simulation. */
Task<void>
obsTicker(SimRun &run, SimDuration every)
{
    while (run.running()) {
        co_await SimDelay(run.loop, every);
        run.obs->tick(run.loop.now());
    }
}

/** Blame class an engine wait class maps to. */
obsv::BlameClass
blameClassOf(WaitClass c)
{
    switch (c) {
    case WaitClass::Lock:
    case WaitClass::Deadlock:
        return obsv::BlameClass::LockWait;
    case WaitClass::Latch:
    case WaitClass::PageLatch:
        return obsv::BlameClass::LatchWait;
    case WaitClass::PageIoLatch:
        return obsv::BlameClass::SsdRead;
    case WaitClass::WriteLog:
        return obsv::BlameClass::WalFlush;
    case WaitClass::Recovery:
        return obsv::BlameClass::Recovery;
    case WaitClass::kCount:
        break;
    }
    return obsv::BlameClass::Idle;
}

} // namespace

SimRun::SimRun(Database &db, const RunConfig &cfg)
    : SimRun(db, cfg, nullptr)
{
}

SimRun::SimRun(Database &db, const RunConfig &cfg, EventLoop &ext)
    : SimRun(db, cfg, &ext)
{
}

SimRun::SimRun(Database &db, const RunConfig &cfg, EventLoop *ext)
    : ownedLoop_(ext ? nullptr : std::make_unique<EventLoop>()),
      loop(ext ? *ext : *ownedLoop_), cpu(loop, &dram), ssd(loop),
      feed(llc), pool(loop, ssd, calib::bufferPoolRealBytes()),
      locks(loop), wal(loop, ssd), sampler(loop, cfg.sampleInterval),
      db_(db), cfg_(cfg), start_(loop.now()), txnSeq_(cfg.txnIdBase)
{
    if (cfg.walLsnBase > 0)
        wal.setLsnBase(cfg.walLsnBase);
    cpu.setAllowedCores(cfg.cores);
    llc.setTotalAllocationMb(cfg.llcMb);
    locks.setTimeout(cfg.lockTimeout);
    if (cfg.ssdReadLimitBps > 0)
        ssd.setReadLimit(cfg.ssdReadLimitBps);
    if (cfg.ssdWriteLimitBps > 0)
        ssd.setWriteLimit(cfg.ssdWriteLimitBps);
    db.bindPool(pool);
    if (cfg.prewarmBufferPool)
        pool.prewarm();
    if (cfg.history)
        wal.attachHistory(cfg.history);

    if (cfg.fault.enabled) {
        faults = std::make_unique<FaultInjector>(cfg.fault);
        timeline_ = std::make_unique<LoopTimeline>(loop);
        llcMbNow_ = cfg.llcMb;
        ssd.setFaultInjector(faults.get());
        pool.setFaultInjector(faults.get());
        wal.setFaultInjector(faults.get());
        grants.setFaultInjector(faults.get());
        grants.setQueueTimeout(cfg.fault.grantTimeout);
        FaultInjector::Hooks hooks;
        hooks.setSsdBrownout = [this](double f) {
            ssd.setBrownoutFactor(f);
        };
        hooks.offlineCores = [this](int n) { cpu.offlineCores(n); };
        hooks.revokeLlcMb = [this](int mb) {
            llcMbNow_ = std::max(2, llcMbNow_ - mb);
            llc.setTotalAllocationMb(llcMbNow_);
        };
        hooks.crash = [this] {
            // Volatile state is lost at this instant; the harness
            // replays the journal and resumes in a fresh SimRun.
            crashed_ = true;
            crashTime_ = loop.now();
            crashDurableLsn_ = wal.flushedLsn();
            loop.stop();
        };
        hooks.corruptRow = [this](uint64_t ord) { corruptOneRow(ord); };
        faults->start(*timeline_, hooks);
        faults->registerStats(stats, "fault");
    }

    // Every component reports into the run's unified registry.
    pool.registerStats(stats, "bufferpool");
    ssd.registerStats(stats, "ssd");
    dram.registerStats(stats, "dram");
    cpu.registerStats(stats, "sched");
    locks.registerStats(stats, "locks");
    latches.registerStats(stats, "latches");
    wal.registerStats(stats, "wal");
    grants.registerStats(stats, "grants");
    waits.registerStats(stats, "waits");
    stats.gauge("llc.misses", [this] { return double(feed.misses()); },
                "sampled LLC misses");
    stats.gauge("run.txns_committed",
                [this] { return double(txnsCommitted); },
                "committed transactions");
    stats.gauge("run.txns_aborted",
                [this] { return double(txnsAborted); },
                "aborted transactions");
    stats.gauge("run.txns_retried",
                [this] { return double(txnsRetried); },
                "lock-timeout victims retried");
    stats.gauge("run.txns_given_up",
                [this] { return double(txnsGivenUp); },
                "victims dropped after the retry budget");
    stats.gauge("run.queries_shed",
                [this] { return double(queriesShed); },
                "queries shed at the grant gate");
    stats.gauge("run.queries_shed_timeout",
                [this] { return double(queriesShedTimeout); },
                "queries shed by the grant-queue timeout");
    stats.gauge("run.queries_shed_admission",
                [this] { return double(queriesShedAdmission); },
                "queries shed by resilience admission control");
    stats.gauge("run.queries_completed",
                [this] { return double(queriesCompleted); },
                "completed analytical queries");
    stats.gauge("run.instructions_retired",
                [this] { return instructionsRetired; },
                "estimated retired instructions");
    stats.gauge("run.olap_useful_ns", [this] { return olapUsefulNs; },
                "nominal OLAP instruction-ns completed");

    if (cfg.sketch.enabled) {
        sketch = std::make_unique<skch::SketchHub>(cfg.sketch);
        sketch->registerStats(stats, "sketch");
        // The grant pool's starting capacity anchors the resize
        // ladder; later actuations (autopilot / resilience) report
        // through the same tap below.
        sketch->noteGrantCapacity(queryGrantBytes());
    }

    if (cfg.obs.enabled) {
        obs = std::make_unique<obsv::RunObserver>(
            cfg.obs, stats, [this] { return loop.now(); });
        // Blame taps. The scheduler reports every finished burst; the
        // wait accumulator reports every finished wait. Waits flow
        // through `waits` only on the OLTP transaction path (analytic
        // replay charges SSD time directly in stageIo), so the hook
        // charges the OLTP tenant.
        cpu.setBlameSink([this](int tenant, SimTime enq, SimTime grant,
                                SimTime end, double compute_ns,
                                double stall_ns) {
            obs->ledger().cpuBurst(tenant, enq, grant, end, compute_ns,
                                   stall_ns);
        });
        waits.setBlameHook([this](WaitClass c, SimDuration ns) {
            obs->ledger().chargeDur(kTenantOltp, blameClassOf(c),
                                    double(ns));
        });
        // Chrome-trace counter tracks (resource timelines).
        obs->addCounter("bufferpool_used_mb", "bufferpool.used_bytes",
                        1.0 / (1 << 20));
        obs->addCounter("ssd_read_backlog_us", "ssd.read_backlog_ns",
                        1e-3);
        obs->addCounter("ssd_write_backlog_us", "ssd.write_backlog_ns",
                        1e-3);
        obs->addCounter("grant_reserved_mb", "grants.reserved_bytes",
                        1.0 / (1 << 20));
        obs->addCounter("grant_waiters", "grants.waiters");
        for (int t = 0; t < CoreScheduler::kMaxTenants; ++t)
            obs->addCounter("tenant" + std::to_string(t) +
                                "_lease_cores",
                            "sched.tenant" + std::to_string(t) +
                                ".lease_cores");
        obs->addCounter("busy_cores", "sched.busy_cores");
        // Tagged per-tenant / per-resource series. Rates are scaled
        // to per-second regardless of the sampling period.
        const double per_s = 1e9 / double(cfg.obs.sampleEvery);
        auto &hub = obs->hub();
        hub.addRate("t0.txn_per_s", "run.txns_committed", per_s);
        hub.addRate("t1.olap_useful_ms_per_s", "run.olap_useful_ns",
                    per_s * 1e-6);
        hub.addRate("t0.cpu_ms_per_s", "sched.tenant0.busy_ns",
                    per_s * 1e-6);
        hub.addRate("t1.cpu_ms_per_s", "sched.tenant1.busy_ns",
                    per_s * 1e-6);
        hub.addRate("ssd.read_mb_per_s", "ssd.read_bytes",
                    per_s / (1 << 20));
        hub.addRate("ssd.write_mb_per_s", "ssd.write_bytes",
                    per_s / (1 << 20));
        hub.addRate("dram.mb_per_s", "dram.total_bytes",
                    per_s / (1 << 20));
        hub.addRate("llc.miss_per_s", "llc.misses", per_s);
        hub.addLevel("bufferpool.used_mb", "bufferpool.used_bytes",
                     1.0 / (1 << 20));
        hub.addLevel("grants.reserved_mb", "grants.reserved_bytes",
                     1.0 / (1 << 20));
        hub.addLevel("t0.lease_cores", "sched.tenant0.lease_cores");
        hub.addLevel("t1.lease_cores", "sched.tenant1.lease_cores");
    }

    if (auto *tr = TraceRecorder::active())
        tr->beginRun("run cores=" + std::to_string(cfg.cores) +
                     " llcMb=" + std::to_string(cfg.llcMb) +
                     " maxdop=" + std::to_string(cfg.maxdop));

    if (cfg.tune.enabled) {
        TuneConfig tc = cfg.tune;
        if (tc.startDelay <= 0)
            tc.startDelay = cfg.warmup;
        ResourceTotals totals;
        totals.cores = cfg.cores;
        totals.llcMb = cfg.llcMb;
        totals.maxdop = cfg.maxdop;
        totals.grantBytes = queryGrantBytes();
        autopilot = std::make_unique<Autopilot>(loop, tc, totals);
        Autopilot::Actuators act;
        act.setCoreLease = [this](int t, uint64_t mask) {
            cpu.setTenantMask(t, mask);
        };
        act.setLlcMask = [this](int cos, uint32_t mask) {
            llc.setCosWayMask(cos, mask);
        };
        act.setGrantCapacity = [this](uint64_t b) { setGrantCapacity(b); };
        act.stats = &stats;
        act.progressStat[kTenantOltp] = "run.txns_committed";
        act.progressStat[kTenantOlap] = "run.olap_useful_ns";
        // Probe baseline latency guardrail: trials that worsen the
        // OLTP p99 beyond the policy's tolerance are rolled back.
        if (sketch)
            act.latencyStat = "sketch.t0.lat_p99_ms";
        act.running = [this] { return running(); };
        autopilot->registerStats(stats, "tune");
        if (cfg.resil.enabled)
            autopilot->installFreezeGuard();
        autopilot->start(std::move(act));
    }

    if (cfg.resil.enabled) {
        resil::ResilConfig rc = cfg.resil;
        if (rc.tick <= 0)
            rc.tick = cfg.obs.enabled ? cfg.obs.sampleEvery
                                      : milliseconds(2);
        resil = std::make_unique<resil::ResilController>(loop, rc);
        resil::ResilController::Hooks hooks;
        hooks.stats = &stats;
        if (obs)
            hooks.sloViolations = [this] {
                return obs->slo().violations().size();
            };
        hooks.setGrantCapacity = [this](uint64_t b) { setGrantCapacity(b); };
        hooks.grantCapacity = [this] {
            return grants.capacityBytes();
        };
        hooks.setCoreLease = [this](int t, uint64_t mask) {
            cpu.setTenantMask(t, mask);
        };
        hooks.restoreShares = [this] {
            if (autopilot)
                autopilot->reapply();
            else
                cpu.clearTenantMasks();
        };
        hooks.setTuningFrozen = [this](bool frozen) {
            if (autopilot)
                autopilot->setFrozen(frozen);
        };
        hooks.running = [this] { return running(); };
        resil->registerStats(stats, "resil");
        resil->start(std::move(hooks));
    }
    loop.spawn(checkpointer(*this));
    if (cfg.deadlockPolicy == DeadlockPolicy::Detector)
        loop.spawn(deadlockMonitor(*this, cfg.deadlockCheckInterval));
}

void
SimRun::setGrantCapacity(uint64_t bytes)
{
    grants.setCapacity(bytes);
    if (sketch)
        sketch->noteGrantCapacity(bytes);
}

void
SimRun::corruptOneRow(uint64_t ordinal)
{
    const auto &names = db_.tableNames();
    // Deterministically pick a table with rows, then a row, then the
    // first int64 column — and bump it without logging or dirtying,
    // exactly the silent corruption the auditors exist to catch.
    for (size_t i = 0; i < names.size(); ++i) {
        Database::Table &t =
            db_.table(names[(ordinal + i) % names.size()]);
        if (t.data->rowCount() == 0)
            continue;
        const RowId r = RowId(ordinal % t.data->rowCount());
        const Schema &s = t.data->schema();
        for (ColumnId c = 0; c < ColumnId(s.columnCount()); ++c) {
            if (s.column(c).type != TypeId::Int64)
                continue;
            ColumnData &cd = t.data->column(c);
            cd.setInt(r, cd.getInt(r) + 1);
            return;
        }
    }
}

SimRun::~SimRun()
{
    db_.unbindPool();
}

void
SimRun::startSampling(double byte_scale)
{
    sampler.addStat(stats, "ssd.read_bytes", byte_scale, "ssd_read_Bps");
    sampler.addStat(stats, "ssd.write_bytes", byte_scale,
                    "ssd_write_Bps");
    sampler.addStat(stats, "dram.total_bytes", byte_scale, "dram_Bps");
    sampler.addStat(stats, "run.txns_committed", 1.0, "txns_per_s");
    sampler.addStat(stats, "run.queries_completed", 1.0,
                    "queries_per_s");
    sampler.start();
    if (obs) {
        // Measurement window opens here (the harness calls this right
        // after completeWarmup()).
        obs->beginWindow(loop.now());
        loop.spawn(obsTicker(*this, cfg_.obs.sampleEvery));
    }
    // Spawned after the obs ticker: at equal timestamps the SLO
    // verdicts the controller reads are already recorded.
    if (resil)
        resil->startTicker();
}

void
SimRun::completeWarmup()
{
    if (cfg_.warmup <= 0)
        return;
    loop.runUntil(start_ + cfg_.warmup);
    txnsCommitted = 0;
    txnsAborted = 0;
    queriesCompleted = 0;
    instructionsRetired = 0;
    olapUsefulNs = 0;
    waits.reset();
    llc.resetCounters();
    pool.resetCounters();
}

void
SimRun::runToCompletion()
{
    const SimTime end = start_ + cfg_.warmup + cfg_.duration;
    loop.runUntil(end);
    sampler.stop();
    // Freeze before the drain: post-window work (and, after a crash,
    // nothing at all) must not shift the blame shares.
    if (obs)
        obs->freeze(loop.now());
    if (crashed_) {
        // The crash stopped the loop mid-window: volatile state is
        // gone, so there is nothing to drain — recovery takes over.
        return;
    }
    // Drain in-flight work briefly so counters settle (sessions stop
    // issuing new transactions once running() is false).
    loop.runUntil(end + milliseconds(50));
}

} // namespace dbsens
