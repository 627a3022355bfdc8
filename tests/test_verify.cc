/**
 * @file
 * Verification-subsystem tests: online auditors (B-tree, index<->data,
 * lock-table leaks), the serializability oracle, waits-for-graph
 * deadlock detection (a constructed 3-txn cycle resolved well before
 * the lock timeout, counted separately from timeouts), recovery edge
 * cases (undo across a fuzzy checkpoint, insert+delete of the same
 * row in one losing transaction, repeated crash-recover-crash), and
 * the chaos harness (episode JSON round-trip, clean episodes audit
 * clean, injected corruption is caught, minimized, and replayed
 * bit-identically).
 */

#include <gtest/gtest.h>

#include "chaos/chaos.h"
#include "engine/recovery.h"
#include "harness/oltp_runner.h"
#include "txn/lock_manager.h"
#include "verify/verify.h"
#include "workloads/tpce/tpce.h"

namespace dbsens {
namespace {

std::unique_ptr<Database>
makeToyDb(int64_t rows = 16)
{
    auto db = std::make_unique<Database>("toy");
    TableDef def;
    def.name = "acct";
    def.schema = Schema({{"a_id", TypeId::Int64, 8},
                         {"a_val", TypeId::Int64, 8}});
    def.expectedRows = 64;
    def.indexColumns = {"a_id"};
    auto &t = db->createTable(def);
    for (int64_t i = 0; i < rows; ++i)
        t.data->append({i, int64_t(100 + i)});
    db->finishLoad();
    return db;
}

TEST(Auditors, CleanDatabasePasses)
{
    auto db = makeToyDb();
    verify::AuditReport rep;
    verify::auditBTrees(*db, rep);
    verify::auditIndexes(*db, rep);
    EXPECT_TRUE(rep.ok()) << rep.summary();
    EXPECT_EQ(rep.btreesChecked, 1u);
    EXPECT_EQ(rep.indexEntriesChecked, 16u);
}

TEST(Auditors, IndexAuditCatchesSilentCorruption)
{
    auto db = makeToyDb();
    // Flip a stored value of the indexed column behind the WAL's
    // back, the way the CorruptRow fault hook does.
    Database::Table &t = db->table("acct");
    ColumnData &cd = t.data->column("a_id");
    cd.setInt(3, cd.getInt(3) + 1);
    verify::AuditReport rep;
    verify::auditIndexes(*db, rep);
    ASSERT_FALSE(rep.ok());
    EXPECT_EQ(rep.violations[0].auditor, "index");
}

TEST(Auditors, OracleCatchesSilentCorruption)
{
    auto actual = makeToyDb();
    auto oracle = makeToyDb();
    Database::Table &t = actual->table("acct");
    t.data->column("a_val").setInt(5, 9999);
    WalHistory empty;
    verify::AuditReport rep;
    verify::replayOracle(*actual, *oracle, empty, rep);
    ASSERT_FALSE(rep.ok());
    EXPECT_EQ(rep.violations[0].auditor, "oracle");
}

TEST(Auditors, LockTableLeakAndOrphanDetected)
{
    EventLoop loop;
    LockManager lm(loop);
    WaitStats w;
    auto holder = [&]() -> Task<void> {
        co_await lm.acquire(1, 1, 5, LockMode::X, &w);
    };
    loop.spawn(holder());
    loop.run();
    // Txn 1 holds a lock. Active set contains it: clean.
    {
        verify::AuditReport rep;
        verify::auditLockTable(lm, {1}, rep);
        EXPECT_TRUE(rep.ok()) << rep.summary();
    }
    // Active set says txn 1 already finished: that's a leak.
    {
        verify::AuditReport rep;
        verify::auditLockTable(lm, {}, rep);
        ASSERT_FALSE(rep.ok());
        EXPECT_EQ(rep.violations[0].auditor, "locktable");
        EXPECT_NE(rep.violations[0].detail.find("leak"),
                  std::string::npos);
    }
    lm.releaseAll(1);
    {
        verify::AuditReport rep;
        verify::auditLockTable(lm, {}, rep);
        EXPECT_TRUE(rep.ok()) << rep.summary();
    }
}

TEST(Deadlock, DetectorResolvesThreeTxnCycleBeforeTimeout)
{
    EventLoop loop;
    LockManager lm(loop);
    lm.setTimeout(milliseconds(50)); // generous fallback
    WaitStats waits;
    int failures = 0;
    SimTime victim_resumed_at = -1;

    // Three transactions, each holding row i and requesting row
    // (i % 3) + 1 — a 3-cycle no timeout would break for 50 ms.
    auto session = [&](TxnId id, RowId mine, RowId next) -> Task<void> {
        co_await lm.acquire(id, 1, mine, LockMode::X, &waits);
        co_await SimDelay(loop, microseconds(10));
        const bool ok =
            co_await lm.acquire(id, 1, next, LockMode::X, &waits);
        if (!ok) {
            ++failures;
            victim_resumed_at = loop.now();
        }
        lm.releaseAll(id);
    };
    auto s1 = session(1, 1, 2);
    auto s2 = session(2, 2, 3);
    auto s3 = session(3, 3, 1);
    loop.spawn(std::move(s1));
    loop.spawn(std::move(s2));
    loop.spawn(std::move(s3));
    // Periodic detector pass, the way SimRun's monitor drives it.
    loop.at(microseconds(500), [&] { lm.detectDeadlocks(); });
    loop.run();

    EXPECT_EQ(failures, 1) << "exactly one victim per cycle";
    EXPECT_EQ(lm.deadlocks(), 1u);
    EXPECT_EQ(lm.timeouts(), 0u) << "detector, not timeout, resolved it";
    // Victim resumed at the detector pass — two orders of magnitude
    // before the 50 ms timeout would have fired.
    EXPECT_EQ(victim_resumed_at, microseconds(500));
    // The victim's blocked time is charged to DEADLOCK, not LOCK.
    EXPECT_EQ(waits.count(WaitClass::Deadlock), 1u);
    EXPECT_GT(waits.totalNs(WaitClass::Deadlock), 0);
    // Survivors drained: nothing left held or queued.
    EXPECT_EQ(lm.holdingTxns().size(), 0u);
    EXPECT_EQ(lm.waitingTxns().size(), 0u);
    std::string err;
    EXPECT_TRUE(lm.auditConsistent(&err)) << err;
}

TEST(Recovery, UndoCrossesFuzzyCheckpointHorizon)
{
    // A loser with data records on both sides of a fuzzy checkpoint:
    // the checkpoint must keep the active transaction's records, and
    // a crash right after the checkpoint must undo all of them.
    auto db = makeToyDb();
    Database::Table &t = db->table("acct");
    WalJournal j;
    auto update = [&](TxnId txn, uint64_t lsn, RowId row, int64_t to) {
        WalRecord r;
        r.kind = WalRecord::Kind::Update;
        r.txn = txn;
        r.lsn = lsn;
        r.table = "acct";
        r.row = row;
        r.column = "a_val";
        r.before = t.data->column("a_val").get(row);
        r.after = Value(to);
        t.data->column("a_val").set(row, r.after);
        j.append(std::move(r));
    };
    update(1, 10, 2, 777); // winner below the horizon
    {
        WalRecord c;
        c.kind = WalRecord::Kind::Commit;
        c.txn = 1;
        c.lsn = 20;
        j.append(std::move(c));
    }
    update(2, 30, 3, 888); // loser, below the horizon
    j.checkpoint(/*lsn=*/100, /*active=*/{2});
    update(2, 110, 4, 999); // loser, above the horizon
    EXPECT_EQ(j.recordCount(), 2u) << "checkpoint kept the active txn";

    const RecoveryStats st = replayWal(*db, j, /*durable_lsn=*/120);
    EXPECT_EQ(st.losersRolledBack, 1u);
    EXPECT_EQ(st.undoApplied, 2u);
    EXPECT_EQ(t.data->column("a_val").getInt(2), 777) << "winner kept";
    EXPECT_EQ(t.data->column("a_val").getInt(3), 103) << "pre-ckpt undone";
    EXPECT_EQ(t.data->column("a_val").getInt(4), 104) << "post-ckpt undone";
}

TEST(Recovery, InsertThenDeleteSameRowInOneLosingTxn)
{
    auto db = makeToyDb();
    Database::Table &t = db->table("acct");
    const uint64_t live0 = t.data->liveRows();
    WalJournal j;

    // One transaction inserts a row and then deletes it again, and
    // loses at the crash. Undo runs in reverse: first it re-inserts
    // the row (undoing the delete), then deletes it (undoing the
    // insert) — indexes must survive both steps.
    const std::vector<Value> image = {int64_t(42), int64_t(4242)};
    WalRecord ins;
    ins.kind = WalRecord::Kind::Insert;
    ins.txn = 9;
    ins.lsn = 10;
    ins.table = "acct";
    ins.rowImage = image;
    ins.row = t.insertRow(image);
    const RowId r = ins.row;
    j.append(std::move(ins));

    WalRecord del;
    del.kind = WalRecord::Kind::Delete;
    del.txn = 9;
    del.lsn = 20;
    del.table = "acct";
    del.row = r;
    del.rowImage = t.data->getRow(r);
    t.deleteRow(r);
    j.append(std::move(del));

    const RecoveryStats st = replayWal(*db, j, /*durable_lsn=*/30);
    EXPECT_EQ(st.losersRolledBack, 1u);
    EXPECT_EQ(st.undoApplied, 2u);
    EXPECT_TRUE(t.data->isDeleted(r));
    EXPECT_EQ(t.data->liveRows(), live0);
    verify::AuditReport rep;
    verify::auditBTrees(*db, rep);
    verify::auditIndexes(*db, rep);
    EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(Recovery, RepeatedCrashRecoverCrashStaysSerializable)
{
    // Two scripted crashes in one run — the second lands in the
    // resumed phase (and on the fuzzy-checkpoint cadence, so a
    // checkpoint and a crash coincide). The full history must still
    // replay to the exact final state.
    tpce::TpceWorkload wl(150, 24);
    auto db = wl.generate(3);
    WalHistory history;
    RunConfig cfg;
    cfg.cores = 8;
    cfg.warmup = milliseconds(8);
    cfg.duration = milliseconds(30);
    cfg.sampleInterval = milliseconds(1);
    cfg.seed = 3;
    cfg.history = &history;
    cfg.fault.enabled = true;
    cfg.fault.script = {
        {milliseconds(12), FaultEvent::Kind::Crash, 0},
        {milliseconds(24), FaultEvent::Kind::Crash, 0},
    };
    const OltpRunResult res = runOltpOn(wl, *db, cfg);
    EXPECT_EQ(res.crashes, 2u);
    EXPECT_GT(res.recoveryMs, 0.0);

    verify::AuditReport rep;
    verify::auditBTrees(*db, rep);
    verify::auditIndexes(*db, rep);
    auto oracle = wl.generate(3);
    verify::replayOracle(*db, *oracle, history, rep);
    EXPECT_TRUE(rep.ok()) << rep.summary();
    EXPECT_GT(rep.historyRecordsReplayed, 0u);
}

TEST(Chaos, EpisodeJsonRoundTripsExactly)
{
    const verify::ChaosEpisode ep = verify::randomEpisode(7, true);
    const Json j = ep.toJson();
    verify::ChaosEpisode back;
    std::string err;
    ASSERT_TRUE(verify::ChaosEpisode::fromJson(j, &back, &err)) << err;
    EXPECT_EQ(back.toJson().dump(), j.dump());
    // Malformed input is rejected, not crashed on.
    EXPECT_FALSE(
        verify::ChaosEpisode::fromJson(Json::parse("{}"), &back, &err));
}

TEST(Chaos, ClusterKeysAreOptionalAndDeterministic)
{
    // Legacy repro files predate the cluster keys: absent means off,
    // so they still describe pure single-node episodes.
    verify::ChaosEpisode back;
    std::string err;
    const Json legacy = Json::parse(
        "{\"workload\":\"TPC-E\",\"scale_factor\":100,\"seed\":5,"
        "\"fault_seed\":9,\"duration_ns\":10000000,"
        "\"warmup_ns\":4000000,\"lock_timeout_ns\":2000000,"
        "\"detector\":true,\"deadlock_check_ns\":500000,"
        "\"grant_timeout_ns\":0,\"script\":[]}");
    ASSERT_TRUE(verify::ChaosEpisode::fromJson(legacy, &back, &err))
        << err;
    EXPECT_FALSE(back.cluster);
    EXPECT_EQ(back.clusterCrashes, 0);

    // A cluster episode runs the fleet phase, audits clean, surfaces
    // per-node digests, and replays bit-identically.
    verify::ChaosEpisode ep = verify::randomEpisode(7, true);
    ep.cluster = true;
    ep.clusterCrashes = 1;
    ep.duration = milliseconds(10);
    ep.warmup = milliseconds(4);
    ep.script.clear();

    const verify::EpisodeOutcome a = verify::runEpisode(ep);
    EXPECT_TRUE(a.ok()) << a.report.summary();
    ASSERT_FALSE(a.nodeDigests.empty());
    const verify::EpisodeOutcome b = verify::runEpisode(ep);
    EXPECT_EQ(a.stateDigest, b.stateDigest);
    EXPECT_EQ(a.nodeDigests, b.nodeDigests);

    // The cluster keys round-trip through JSON...
    ASSERT_TRUE(
        verify::ChaosEpisode::fromJson(ep.toJson(), &back, &err))
        << err;
    EXPECT_TRUE(back.cluster);
    EXPECT_EQ(back.clusterCrashes, 1);

    // ...and the fleet state is load-bearing in the digest: the same
    // episode without the fleet lands elsewhere.
    ep.cluster = false;
    ep.clusterCrashes = 0;
    const verify::EpisodeOutcome solo = verify::runEpisode(ep);
    EXPECT_TRUE(solo.nodeDigests.empty());
    EXPECT_NE(solo.stateDigest, a.stateDigest);
}

TEST(Chaos, CleanEpisodeAuditsClean)
{
    // Seed 1 draws a crash plus degradations — a run that exercises
    // the journal, recovery, and reconciliation paths end to end.
    const verify::ChaosEpisode ep = verify::randomEpisode(1, true);
    const verify::EpisodeOutcome out = verify::runEpisode(ep);
    EXPECT_TRUE(out.ok()) << out.report.summary();
    EXPECT_GT(out.report.btreesChecked, 0u);
    EXPECT_GT(out.report.pagesChecked, 0u);
    EXPECT_GT(out.report.indexEntriesChecked, 0u);
    EXPECT_FALSE(out.stateDigest.empty());
    // Bit-identical on a second run: the digest is the replay proof.
    EXPECT_EQ(verify::runEpisode(ep).stateDigest, out.stateDigest);
}

TEST(Chaos, InjectedCorruptionCaughtMinimizedAndReplayed)
{
    verify::ChaosEpisode ep = verify::randomEpisode(1, true);
    FaultEvent ev;
    ev.at = ep.warmup + ep.duration - milliseconds(2);
    ev.kind = FaultEvent::Kind::CorruptRow;
    ev.value = 1;
    ep.script.push_back(ev);

    const verify::EpisodeOutcome out = verify::runEpisode(ep);
    ASSERT_FALSE(out.ok()) << "corruption must be caught";
    bool oracle_fired = false;
    for (const verify::Violation &v : out.report.violations)
        oracle_fired |= v.auditor == "oracle" || v.auditor == "index";
    EXPECT_TRUE(oracle_fired) << out.report.summary();

    int attempts = 0;
    const verify::ChaosEpisode min = verify::minimizeEpisode(ep, &attempts);
    EXPECT_GT(attempts, 0);
    EXPECT_LT(min.script.size(), ep.script.size())
        << "the random fault events are removable; the corruption is not";
    const verify::EpisodeOutcome minOut = verify::runEpisode(min);
    ASSERT_FALSE(minOut.ok());

    const Json repro = verify::reproJson(min, minOut);
    std::string detail;
    EXPECT_TRUE(verify::replayRepro(repro, &detail)) << detail;

    // A tampered digest must make the bit-identical check fail.
    Json bad = repro;
    bad["state_digest"] = Json(std::string("0000000000000000"));
    EXPECT_FALSE(verify::replayRepro(bad, &detail));
}

TEST(Chaos, OffByDefaultKnobsDoNotPerturbRuns)
{
    // With TimeoutOnly policy the detector knobs must be inert: the
    // monitor is never spawned, so changing its cadence cannot move a
    // single event on the timeline.
    auto run = [](SimDuration interval) {
        tpce::TpceWorkload wl(150, 16);
        RunConfig cfg;
        cfg.cores = 8;
        cfg.duration = milliseconds(20);
        cfg.sampleInterval = milliseconds(1);
        cfg.seed = 9;
        cfg.deadlockCheckInterval = interval;
        return runOltp(wl, cfg);
    };
    const OltpRunResult a = run(microseconds(500));
    const OltpRunResult b = run(microseconds(1));
    EXPECT_DOUBLE_EQ(a.tps, b.tps);
    EXPECT_EQ(a.waits.totalNs(WaitClass::Lock),
              b.waits.totalNs(WaitClass::Lock));
    EXPECT_EQ(a.lockTimeouts, b.lockTimeouts);
    EXPECT_EQ(a.deadlockAborts, 0u);
    EXPECT_EQ(b.deadlockAborts, 0u);
}

} // namespace
} // namespace dbsens
