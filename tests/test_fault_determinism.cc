/**
 * @file
 * Fault-injection and crash-recovery tests: seeded determinism (same
 * seed + same script => identical fault counters and bit-identical
 * post-run state), checksum/torn-page detection and healing, WAL
 * fuzzy-checkpoint truncation, redo/undo replay to committed-only
 * state, SSD retry accounting, grant-queue shedding, configurable
 * lock timeouts, and mid-run core offlining.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "core/digest.h"
#include "core/fault.h"
#include "engine/grant_gate.h"
#include "engine/recovery.h"
#include "harness/oltp_runner.h"
#include "sim/core_scheduler.h"
#include "sim/ssd_model.h"
#include "storage/buffer_pool.h"
#include "txn/lock_manager.h"
#include "txn/wal.h"
#include "workloads/asdb/asdb.h"
#include "workloads/tpce/tpce.h"

namespace dbsens {
namespace {

/** FNV-style digest over a table's functional contents. */
uint64_t
tableDigest(const Database::Table &t)
{
    uint64_t h = kFnvBasis;
    auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= kFnvPrime;
    };
    const TableData &d = *t.data;
    for (ColumnId c = 0; c < ColumnId(d.schema().columnCount()); ++c) {
        const ColumnData &col = d.column(c);
        if (col.type() == TypeId::Double) {
            for (double v : col.doubleData()) {
                uint64_t bits;
                std::memcpy(&bits, &v, sizeof(bits));
                mix(bits);
            }
        } else {
            for (int64_t v : col.intData())
                mix(uint64_t(v));
        }
    }
    for (RowId r = 0; r < d.rowCount(); ++r)
        mix(d.isDeleted(r) ? 1 : 0);
    return h;
}

void
expectEqualCounters(const FaultCounters &a, const FaultCounters &b)
{
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.ssdErrors, b.ssdErrors);
    EXPECT_EQ(a.ssdStalls, b.ssdStalls);
    EXPECT_EQ(a.ssdRetries, b.ssdRetries);
    EXPECT_EQ(a.ssdRecovered, b.ssdRecovered);
    EXPECT_EQ(a.ssdExhausted, b.ssdExhausted);
    EXPECT_EQ(a.tornPages, b.tornPages);
    EXPECT_EQ(a.pageRereads, b.pageRereads);
    EXPECT_EQ(a.pageRecovered, b.pageRecovered);
    EXPECT_EQ(a.brownouts, b.brownouts);
    EXPECT_EQ(a.coresOfflined, b.coresOfflined);
    EXPECT_EQ(a.llcRevokedMb, b.llcRevokedMb);
    EXPECT_EQ(a.grantSheds, b.grantSheds);
    EXPECT_EQ(a.crashes, b.crashes);
    EXPECT_EQ(a.checkpoints, b.checkpoints);
    EXPECT_EQ(a.redoRecords, b.redoRecords);
    EXPECT_EQ(a.undoRecords, b.undoRecords);
}

TEST(FaultDeterminism, SameSeedSameCountersAndState)
{
    auto once = [] {
        asdb::AsdbWorkload wl(150, 32);
        auto db = wl.generate(7);
        RunConfig cfg;
        cfg.cores = 16;
        cfg.duration = milliseconds(30);
        cfg.sampleInterval = milliseconds(1);
        cfg.seed = 42;
        cfg.txnRetryLimit = 2;
        cfg.fault.enabled = true;
        cfg.fault.ssdErrorRate = 0.02;
        cfg.fault.ssdStallRate = 0.02;
        cfg.fault.tornPageRate = 0.01;
        OltpRunResult res = runOltpOn(wl, *db, cfg);
        struct Out
        {
            OltpRunResult res;
            uint64_t digest;
        };
        return Out{std::move(res), tableDigest(db->table("scaling"))};
    };
    const auto a = once();
    const auto b = once();
    EXPECT_DOUBLE_EQ(a.res.tps, b.res.tps);
    EXPECT_EQ(a.res.txnsRetried, b.res.txnsRetried);
    EXPECT_EQ(a.res.txnsGivenUp, b.res.txnsGivenUp);
    EXPECT_EQ(a.res.lockTimeouts, b.res.lockTimeouts);
    expectEqualCounters(a.res.fault, b.res.fault);
    EXPECT_EQ(a.digest, b.digest);
    // The regime must actually inject something to be a regression net.
    EXPECT_GT(a.res.fault.ssdErrors + a.res.fault.ssdStalls +
                  a.res.fault.tornPages,
              0u);
    // Every errored I/O either recovered after retries or gave up.
    EXPECT_GE(a.res.fault.ssdErrors,
              a.res.fault.ssdRecovered + a.res.fault.ssdExhausted);
}

TEST(FaultDeterminism, DisabledInjectorIgnoresFaultRates)
{
    // fault.enabled=false means no injector exists at all: rates left
    // in the config must not perturb the run (byte-identical off).
    auto run = [](bool set_rates) {
        tpce::TpceWorkload wl(150, 16);
        RunConfig cfg;
        cfg.cores = 16;
        cfg.duration = milliseconds(20);
        cfg.sampleInterval = milliseconds(1);
        cfg.seed = 9;
        if (set_rates) {
            cfg.fault.ssdErrorRate = 0.5;
            cfg.fault.tornPageRate = 0.5;
        }
        return runOltp(wl, cfg);
    };
    const auto a = run(false);
    const auto b = run(true);
    EXPECT_DOUBLE_EQ(a.tps, b.tps);
    EXPECT_EQ(a.waits.totalNs(WaitClass::Lock),
              b.waits.totalNs(WaitClass::Lock));
    EXPECT_EQ(b.fault.injected, 0u);
}

TEST(FaultDeterminism, CrashRecoveryDeterministic)
{
    auto once = [] {
        tpce::TpceWorkload wl(200, 24);
        auto db = wl.generate(3);
        RunConfig cfg;
        cfg.cores = 8;
        cfg.warmup = milliseconds(10);
        cfg.duration = milliseconds(40);
        cfg.sampleInterval = milliseconds(1);
        cfg.seed = 11;
        cfg.fault.enabled = true;
        cfg.fault.crashAt = cfg.warmup + cfg.duration / 2;
        OltpRunResult res = runOltpOn(wl, *db, cfg);
        struct Out
        {
            OltpRunResult res;
            uint64_t digest;
        };
        return Out{std::move(res), tableDigest(db->table("trade")) ^
                                       tableDigest(db->table("account"))};
    };
    const auto a = once();
    const auto b = once();
    EXPECT_EQ(a.res.crashes, 1u);
    EXPECT_EQ(a.res.fault.crashes, 1u);
    EXPECT_GT(a.res.recoveryMs, 0.0);
    EXPECT_GT(a.res.waits.totalNs(WaitClass::Recovery), 0);
    EXPECT_GT(a.res.tps, 0.0) << "run must resume after recovery";
    // Same seed + same crash point => bit-identical recovery state.
    EXPECT_DOUBLE_EQ(a.res.tps, b.res.tps);
    EXPECT_DOUBLE_EQ(a.res.recoveryMs, b.res.recoveryMs);
    expectEqualCounters(a.res.fault, b.res.fault);
    EXPECT_EQ(a.digest, b.digest);
}

TEST(Recovery, ReplayRestoresCommittedOnlyState)
{
    Database db("t");
    TableDef def;
    def.name = "acct";
    def.schema = Schema({{"a_id", TypeId::Int64, 8},
                         {"a_val", TypeId::Int64, 8}});
    def.expectedRows = 64;
    auto &t = db.createTable(def);
    for (int64_t i = 0; i < 8; ++i)
        t.data->append({i, int64_t(100)});
    db.finishLoad();

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
    auto marker = [&](WalRecord::Kind k, TxnId txn, uint64_t lsn) {
        WalRecord r;
        r.kind = k;
        r.txn = txn;
        r.lsn = lsn;
        j.append(std::move(r));
    };

    update(1, 100, 2, 200); // winner: commit durable at crash
    marker(WalRecord::Kind::Commit, 1, 150);
    update(2, 200, 3, 300); // loser: still in flight at crash
    update(3, 250, 4, 400); // loser: commit record not yet durable
    WalRecord ins;          // loser: uncommitted insert
    ins.kind = WalRecord::Kind::Insert;
    ins.txn = 4;
    ins.lsn = 260;
    ins.table = "acct";
    ins.rowImage = {int64_t(100), int64_t(999)};
    ins.row = t.insertRow(ins.rowImage);
    const RowId inserted = ins.row;
    j.append(std::move(ins));
    marker(WalRecord::Kind::Commit, 3, 400);

    const RecoveryStats st = replayWal(db, j, /*durable_lsn=*/300);
    EXPECT_EQ(st.recordsScanned, 6u);
    EXPECT_EQ(st.winnersCommitted, 1u);
    EXPECT_EQ(st.losersRolledBack, 3u);
    EXPECT_EQ(st.redoApplied, 1u);
    EXPECT_EQ(st.undoApplied, 3u);
    EXPECT_GT(st.simNs, 0);
    // Winner's effect survives; losers are functionally undone.
    EXPECT_EQ(t.data->column("a_val").getInt(2), 200);
    EXPECT_EQ(t.data->column("a_val").getInt(3), 100);
    EXPECT_EQ(t.data->column("a_val").getInt(4), 100);
    EXPECT_TRUE(t.data->isDeleted(inserted));
    // Successful recovery truncates the log.
    EXPECT_EQ(j.recordCount(), 0u);
}

TEST(WalJournalTest, FuzzyCheckpointTruncatesResolvedTxns)
{
    WalJournal j;
    auto rec = [&](WalRecord::Kind k, TxnId txn, uint64_t lsn) {
        WalRecord r;
        r.kind = k;
        r.txn = txn;
        r.lsn = lsn;
        j.append(std::move(r));
    };
    rec(WalRecord::Kind::Update, 1, 10);
    rec(WalRecord::Kind::Commit, 1, 20); // resolved below horizon
    rec(WalRecord::Kind::Update, 2, 30); // active at checkpoint
    rec(WalRecord::Kind::Update, 3, 50);
    rec(WalRecord::Kind::Commit, 3, 120); // commit above horizon

    j.checkpoint(100, /*active=*/{2});
    EXPECT_EQ(j.checkpointLsn(), 100u);
    EXPECT_EQ(j.checkpointCount(), 1u);
    // txn 1's records can never be needed again; 2 and 3 must stay.
    EXPECT_EQ(j.recordCount(), 3u);
    for (const WalRecord &r : j.records())
        EXPECT_NE(r.txn, 1u);
}

TEST(FaultInjection, TornPageDetectedAndHealed)
{
    EventLoop loop;
    SsdModel ssd(loop);
    BufferPool pool(loop, ssd, 1 << 20);
    FaultConfig fc;
    fc.enabled = true;
    fc.tornPageRate = 1.0; // every miss loads a torn image
    FaultInjector inj(fc);
    pool.setFaultInjector(&inj);
    pool.registerObject(1, 8192);
    WaitStats waits;
    // Named lambdas outlive loop.run(): a lambda coroutine's frame
    // only points at the closure, so a temporary would dangle.
    auto reader = [&]() -> Task<void> { co_await pool.fix(1, &waits); };
    loop.spawn(reader());
    loop.run();
    EXPECT_TRUE(pool.isResident(1));
    EXPECT_EQ(pool.tornPagesDetected(), 1u);
    EXPECT_EQ(inj.counters().tornPages, 1u);
    EXPECT_EQ(inj.counters().pageRereads, 1u);
    EXPECT_EQ(inj.counters().pageRecovered, 1u);
    EXPECT_TRUE(pool.verifyObject(1));
    // The healing re-read consumed real read bandwidth.
    EXPECT_EQ(pool.diskReadBytes(), 2u * 8192u);
}

TEST(FaultInjection, ChecksumTracksVersion)
{
    EventLoop loop;
    SsdModel ssd(loop);
    BufferPool pool(loop, ssd, 1 << 20);
    pool.registerObject(7, 8192);
    EXPECT_TRUE(pool.verifyObject(7));
    const uint64_t c0 = pool.objectChecksum(7);
    const uint64_t v0 = pool.objectVersion(7);
    pool.touch(7); // make resident
    pool.markDirty(7);
    EXPECT_EQ(pool.objectVersion(7), v0 + 1);
    EXPECT_NE(pool.objectChecksum(7), c0);
    EXPECT_TRUE(pool.verifyObject(7));
    // The checksum separates versions and identities: a stale image
    // (old version) of the same page never matches the current one.
    EXPECT_NE(BufferPool::pageChecksum(7, 8192, 0),
              BufferPool::pageChecksum(7, 8192, 1));
    EXPECT_NE(BufferPool::pageChecksum(7, 8192, 0),
              BufferPool::pageChecksum(8, 8192, 0));
}

TEST(FaultInjection, SsdRetryBudgetExhaustsDeterministically)
{
    EventLoop loop;
    SsdModel ssd(loop);
    FaultConfig fc;
    fc.enabled = true;
    fc.ssdErrorRate = 1.0; // every attempt fails
    fc.maxIoRetries = 2;
    FaultInjector inj(fc);
    ssd.setFaultInjector(&inj);
    auto reader = [&]() -> Task<void> { co_await ssd.read(4096); };
    loop.spawn(reader());
    loop.run();
    // Initial attempt + 2 retries each draw an error; then give up.
    EXPECT_EQ(inj.counters().ssdErrors, 3u);
    EXPECT_EQ(inj.counters().ssdRetries, 2u);
    EXPECT_EQ(inj.counters().ssdExhausted, 1u);
    EXPECT_EQ(inj.counters().ssdRecovered, 0u);
}

TEST(FaultInjection, GrantQueueTimeoutSheds)
{
    EventLoop loop;
    GrantGate gate(loop, 100);
    gate.setQueueTimeout(microseconds(10));
    bool first = false, second = true;
    SimTime shed_at = -1;
    auto holder = [&]() -> Task<void> {
        first = co_await gate.acquire(100);
        co_await SimDelay(loop, microseconds(100));
        gate.release(100);
    };
    auto victim = [&]() -> Task<void> {
        co_await SimDelay(loop, 1);
        second = co_await gate.acquire(50);
        shed_at = loop.now();
    };
    loop.spawn(holder());
    loop.spawn(victim());
    loop.run();
    EXPECT_TRUE(first);
    EXPECT_FALSE(second) << "queued waiter must be shed, not granted";
    EXPECT_EQ(gate.shedCount(), 1u);
    EXPECT_EQ(shed_at, SimTime(1) + microseconds(10));
    // A shed waiter reserved nothing; the pool drains back to full.
    EXPECT_EQ(gate.freeBytes(), 100u);
}

TEST(FaultInjection, LockTimeoutIsConfigurable)
{
    // Short budget: the waiter times out well before the holder lets
    // go, at exactly the configured deadline.
    {
        EventLoop loop;
        LockManager lm(loop);
        lm.setTimeout(microseconds(500));
        WaitStats w;
        bool got = true;
        SimTime failed_at = 0;
        auto holder = [&]() -> Task<void> {
            co_await lm.acquire(1, 1, 5, LockMode::X, &w);
            co_await SimDelay(loop, milliseconds(2));
            lm.releaseAll(1);
        };
        auto waiter = [&]() -> Task<void> {
            co_await SimDelay(loop, 1);
            got = co_await lm.acquire(2, 1, 5, LockMode::X, &w);
            failed_at = loop.now();
        };
        loop.spawn(holder());
        loop.spawn(waiter());
        loop.run();
        EXPECT_FALSE(got);
        EXPECT_EQ(lm.timeouts(), 1u);
        EXPECT_EQ(failed_at, SimTime(1) + microseconds(500));
    }
    // Generous budget: the same schedule succeeds once the holder
    // releases.
    {
        EventLoop loop;
        LockManager lm(loop);
        lm.setTimeout(milliseconds(20));
        WaitStats w;
        bool got = false;
        auto holder = [&]() -> Task<void> {
            co_await lm.acquire(1, 1, 5, LockMode::X, &w);
            co_await SimDelay(loop, milliseconds(2));
            lm.releaseAll(1);
        };
        auto waiter = [&]() -> Task<void> {
            co_await SimDelay(loop, 1);
            got = co_await lm.acquire(2, 1, 5, LockMode::X, &w);
        };
        loop.spawn(holder());
        loop.spawn(waiter());
        loop.run();
        EXPECT_TRUE(got);
        EXPECT_EQ(lm.timeouts(), 0u);
    }
}

TEST(FaultInjection, OfflineCoresShrinksAllowedPrefix)
{
    EventLoop loop;
    CoreScheduler cpu(loop);
    cpu.setAllowedCores(8);
    cpu.offlineCores(6);
    EXPECT_EQ(cpu.allowedCores(), 2);
    cpu.offlineCores(10); // clamps: at least one core survives
    EXPECT_EQ(cpu.allowedCores(), 1);
}

// Per-node fault seed streams (cluster fleets): a node's derived seed
// is a pure function of (base seed, node id), so growing the fleet
// never perturbs an existing node's fault draws, and sibling streams
// are decorrelated rather than offset copies of each other.
TEST(FaultInjection, PerNodeSeedStreamsAreIndependent)
{
    const uint64_t base = 0xFEEDFACEULL;

    // Purity: the same (base, node) always yields the same seed —
    // there is no hidden fleet-size input to perturb it.
    for (int node = 0; node < 8; ++node)
        EXPECT_EQ(deriveNodeFaultSeed(base, node),
                  deriveNodeFaultSeed(base, node));

    // Distinctness across nodes and across base seeds.
    std::set<uint64_t> seen;
    for (int node = 0; node < 64; ++node)
        EXPECT_TRUE(
            seen.insert(deriveNodeFaultSeed(base, node)).second);
    EXPECT_TRUE(
        seen.insert(deriveNodeFaultSeed(base + 1, 0)).second);

    // Decorrelation: sibling streams must not share a prefix. Compare
    // the first draws of adjacent nodes' Rng streams.
    Rng a(deriveNodeFaultSeed(base, 0));
    Rng b(deriveNodeFaultSeed(base, 1));
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        if (a() == b())
            ++equal;
    EXPECT_EQ(equal, 0);
}

} // namespace
} // namespace dbsens
