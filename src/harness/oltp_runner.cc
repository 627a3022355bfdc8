#include "harness/oltp_runner.h"

#include "engine/recovery.h"

namespace dbsens {

OltpRunResult
runOltp(OltpWorkload &workload, RunConfig cfg)
{
    std::unique_ptr<Database> db = workload.generate(cfg.seed);
    return runOltpOn(workload, *db, cfg);
}

namespace {

void
appendSeries(Distribution &dst, const Distribution &src)
{
    for (double v : src.samples())
        dst.add(v);
}

} // namespace

OltpRunResult
runOltpOn(OltpWorkload &workload, Database &db, RunConfig cfg)
{
    if (cfg.sampleInterval == calib::kSampleIntervalNs)
        cfg.sampleInterval = kDefaultOltpInterval;
    if (cfg.warmup == 0)
        cfg.warmup = kDefaultOltpWarmup;
    if (cfg.obs.enabled) {
        // Session counts drive the blame ledger's makespan; fill them
        // from the workload unless the bench already pinned them.
        for (int t = 0; t < kNumTenants; ++t)
            if (cfg.obs.sessions[t] == 0)
                cfg.obs.sessions[t] = workload.tenantSessions(t);
    }

    // Crash–recovery runs capture logical WAL records into a journal
    // owned here — outside any SimRun — so it survives the crash.
    WalJournal journal;
    const bool crash_run = cfg.fault.enabled && cfg.fault.hasCrash();

    OltpRunResult res;
    uint64_t committed = 0, queries = 0;
    double sampled_misses = 0, instr = 0, olap_useful = 0;
    RunConfig phase_cfg = cfg;

    // Phase loop: normally one pass. With an injected crash, the
    // first pass ends at the crash point, recovery replays the
    // journal, and a second SimRun (fresh volatile state, cold
    // buffer pool) finishes the remaining measured window.
    for (int phase = 0;; ++phase) {
        bool crashed = false;
        SimTime crash_time = 0;
        uint64_t durable_lsn = 0;
        {
            SimRun run(db, phase_cfg);
            if (crash_run)
                run.wal.attachJournal(&journal);
            workload.startSessions(run, db,
                                   phase_cfg.seed * 7919 + 17 +
                                       uint64_t(phase));
            // Reach steady state (caches filled, queues formed), then
            // reset counters and start sampling the measured window.
            run.completeWarmup();
            const uint64_t miss_base = run.feed.misses();
            // Normalize each interval delta to a per-second rate.
            const double rate_scale =
                1.0 / toSeconds(phase_cfg.sampleInterval);
            run.startSampling(rate_scale);
            run.runToCompletion();

            committed += run.txnsCommitted;
            queries += run.queriesCompleted;
            res.aborts += double(run.txnsAborted);
            res.txnsRetried += run.txnsRetried;
            res.txnsGivenUp += run.txnsGivenUp;
            res.lockTimeouts += run.locks.timeouts();
            res.deadlockAborts += run.locks.deadlocks();
            res.waits.merge(run.waits);
            sampled_misses += double(run.feed.misses() - miss_base);
            instr += run.instructionsRetired;
            olap_useful += run.olapUsefulNs;
            res.queriesShed += run.grants.shedCount();
            res.queriesShedTimeout += run.grants.shedTimeoutCount();
            res.queriesShedAdmission += run.grants.shedAdmissionCount();
            if (run.autopilot)
                res.tune.merge(run.autopilot->result());
            if (run.obs)
                res.attribution.merge(run.obs->finish());
            if (run.resil)
                res.resil.merge(run.resil->result());
            if (run.sketch)
                res.sketch.merge(run.sketch->result());
            if (run.sampler.hasSeries("ssd_read_Bps"))
                appendSeries(res.ssdRead,
                             run.sampler.series("ssd_read_Bps"));
            if (run.sampler.hasSeries("ssd_write_Bps"))
                appendSeries(res.ssdWrite,
                             run.sampler.series("ssd_write_Bps"));
            if (run.sampler.hasSeries("dram_Bps"))
                appendSeries(res.dram,
                             run.sampler.series("dram_Bps"));
            if (run.faults)
                res.fault.merge(run.faults->counters());

            crashed = run.crashed();
            crash_time = run.crashTime();
            durable_lsn = run.crashDurableLsn();
            // The resumed phase must not reuse this phase's txn ids:
            // the history and the recovery reconciliation key
            // transactions by id across the whole run.
            phase_cfg.txnIdBase = run.lastTxnId();
            // Online audits run while the server object is alive, so
            // auditors can see the lock table and buffer pool.
            if (phase_cfg.phaseAudit)
                phase_cfg.phaseAudit(run, phase);
            run.wal.attachJournal(nullptr);
        }
        if (!crashed)
            break;

        // Restart recovery: replay the journal against the database,
        // charging the restart time to WaitClass::Recovery.
        ++res.crashes;
        // Unacked-but-durable winners must gain their history commit
        // markers before the journal is replayed (and cleared).
        if (phase_cfg.history)
            reconcileCommittedHistory(*phase_cfg.history, journal,
                                      durable_lsn);
        const RecoveryStats rec = replayWal(db, journal, durable_lsn);
        res.recoveryMs += toSeconds(rec.simNs) * 1e3;
        res.waits.add(WaitClass::Recovery, rec.simNs);
        if (cfg.obs.enabled) {
            // Restart replay stalls every session of every tenant.
            for (int t = 0; t < kNumTenants; ++t)
                res.attribution.addRecovery(t, double(rec.simNs));
        }
        res.fault.redoRecords += rec.redoApplied;
        res.fault.undoRecords += rec.undoApplied;

        // Resume for whatever is left of the measured window after
        // the crash point and the recovery pause.
        const SimDuration remaining = phase_cfg.warmup +
                                      phase_cfg.duration - crash_time -
                                      rec.simNs;
        if (remaining <= 0)
            break;
        phase_cfg.warmup = 0;
        phase_cfg.duration = remaining;
        phase_cfg.fault.crashAt = 0; // the crashAt point already fired
        phase_cfg.prewarmBufferPool = false; // restart = cold cache
        phase_cfg.seed = phase_cfg.seed * 1664525 + 1013904223;
        // Shift still-pending scripted events into the resumed run's
        // clock (crash_time elapsed, recovery consumed rec.simNs of
        // the window). A later scripted crash can fire again, giving
        // repeated crash–recover–crash cycles.
        std::vector<FaultEvent> shifted;
        for (const FaultEvent &ev : phase_cfg.fault.script) {
            if (ev.at <= crash_time)
                continue;
            FaultEvent e2 = ev;
            e2.at = ev.at - crash_time - rec.simNs;
            if (e2.at > 0)
                shifted.push_back(e2);
        }
        phase_cfg.fault.script = std::move(shifted);
    }

    // Rates are over the configured window: crash + recovery time is
    // lost throughput, which is exactly the degradation to measure.
    const double secs = toSeconds(cfg.duration);
    res.tps = double(committed) / secs;
    res.qps = double(queries) / secs;
    res.aborts /= secs;
    res.retries = double(res.txnsRetried) / secs;
    res.giveups = double(res.txnsGivenUp) / secs;
    res.mpki = instr > 0 ? sampled_misses * calib::kOltpAccessWeight /
                               (instr / 1000.0)
                         : 0.0;
    res.avgSsdReadBps = res.ssdRead.mean();
    res.avgSsdWriteBps = res.ssdWrite.mean();
    res.avgDramBps = res.dram.mean();
    // Nominal instruction-ns per wall second, expressed in seconds so
    // the number stays O(parallelism) rather than O(1e9).
    res.olapUsefulPerSec = olap_useful / 1e9 / secs;
    return res;
}

} // namespace dbsens
