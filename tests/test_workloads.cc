/**
 * @file
 * Integration tests: TPC-E / ASDB / HTAP workloads running end-to-end
 * in the simulator, plus the harness runners. These use reduced scale
 * factors and short durations; the benches run the paper's settings.
 */

#include <gtest/gtest.h>

#include <map>

#include "harness/oltp_runner.h"
#include "harness/tpch_driver.h"
#include "opt/plan_printer.h"
#include "workloads/asdb/asdb.h"
#include "workloads/htap/htap.h"
#include "workloads/tpce/tpce.h"

namespace dbsens {
namespace {

RunConfig
shortRun(int cores = 16)
{
    RunConfig cfg;
    cfg.cores = cores;
    cfg.duration = milliseconds(30);
    cfg.sampleInterval = milliseconds(1);
    cfg.seed = 42;
    return cfg;
}

TEST(TpceWorkloadTest, GeneratorShape)
{
    auto db = tpce::generateDb(200, 1);
    const tpce::TpceScale sc(200);
    EXPECT_EQ(db->find("customer").data->rowCount(), sc.customers);
    EXPECT_EQ(db->find("account").data->rowCount(), sc.accounts);
    EXPECT_EQ(db->find("trade").data->rowCount(), sc.trades);
    EXPECT_EQ(db->find("last_trade").data->rowCount(), sc.securities);
    EXPECT_NE(db->find("trade").indexOn("t_id"), nullptr);
    EXPECT_NE(db->find("trade").indexOn("t_ca_id"), nullptr);
    EXPECT_GT(db->dataBytes(), 0u);
}

TEST(TpceWorkloadTest, RunsAndCommitsTransactions)
{
    tpce::TpceWorkload wl(200, 20);
    const auto res = runOltp(wl, shortRun());
    EXPECT_GT(res.tps, 0.0);
    EXPECT_GT(res.mpki, 0.0);
    // The mix writes: log flushes consumed write bandwidth.
    EXPECT_GT(res.avgSsdWriteBps, 0.0);
}

TEST(TpceWorkloadTest, WaitsIncludeLockAndLatchClasses)
{
    tpce::TpceWorkload wl(100, 64);
    auto cfg = shortRun(8);
    cfg.duration = milliseconds(200);
    const auto res = runOltp(wl, cfg);
    // With 64 sessions on 8 cores, hot last_trade/broker rows and the
    // shared trade tail page, both lock and page-latch waits appear.
    EXPECT_GT(res.waits.count(WaitClass::Lock), 0u);
    EXPECT_GT(res.waits.count(WaitClass::PageLatch), 0u);
}

TEST(TpceWorkloadTest, LargerScaleReducesLockWaits)
{
    // Table 3's headline: SF=15000 halves LOCK waits vs SF=5000
    // because contention spreads over 3x the rows. Use scaled-down
    // SFs with the same 3x ratio.
    auto run_sf = [](int sf) {
        tpce::TpceWorkload wl(sf, 40);
        auto cfg = shortRun(16);
        cfg.duration = milliseconds(60);
        return runOltp(wl, cfg);
    };
    const auto small = run_sf(300);
    const auto large = run_sf(900);
    const double small_lock =
        double(small.waits.totalNs(WaitClass::Lock)) /
        std::max(1.0, small.tps);
    const double large_lock =
        double(large.waits.totalNs(WaitClass::Lock)) /
        std::max(1.0, large.tps);
    EXPECT_LT(large_lock, small_lock);
}

TEST(AsdbWorkloadTest, GeneratorShapeAndRun)
{
    auto db = asdb::generateDb(100, 1);
    const asdb::AsdbScale sc(100);
    EXPECT_EQ(db->find("scaling").data->rowCount(), sc.scalingRows);
    EXPECT_EQ(db->find("fixed").data->rowCount(), sc.fixedRows);

    asdb::AsdbWorkload wl(100, 32);
    const auto res = runOltp(wl, shortRun());
    EXPECT_GT(res.tps, 0.0);
    EXPECT_GT(res.avgSsdWriteBps, 0.0); // log + dirty pages
}

TEST(AsdbWorkloadTest, GrowingTableGrowsAndShrinks)
{
    asdb::AsdbWorkload wl(100, 32);
    auto db = wl.generate(1);
    const uint64_t before = db->find("growing").data->rowCount();
    RunConfig cfg = shortRun();
    SimRun run(*db, cfg);
    run.startSampling(1.0);
    wl.startSessions(run, *db, 99);
    run.runToCompletion();
    const auto &g = *db->find("growing").data;
    EXPECT_GT(g.rowCount(), before);      // inserts appended
    EXPECT_GT(g.rowCount(), g.liveRows()); // deletes happened
}

TEST(HtapWorkloadTest, AnalyticsAndTransactionsBothProgress)
{
    htap::HtapWorkload wl(200);
    auto cfg = shortRun(16);
    cfg.duration = milliseconds(60);
    const auto res = runOltp(wl, cfg);
    EXPECT_GT(res.tps, 0.0);
    EXPECT_GT(res.qps, 0.0) << "analytical session must complete work";
}

TEST(HtapWorkloadTest, AnalyticalQueriesSeeFreshInserts)
{
    // Functional check: an insert through the NCCI delta is visible
    // to the analytical scan path.
    auto db = tpce::generateDb(100, 1, /*with_ncci=*/true);
    auto &trade = db->table("trade");
    ASSERT_NE(trade.ncci, nullptr);
    const uint64_t before = trade.data->rowCount();

    auto count_rows = [&] {
        auto plan = htap::analyticalQuery(3);
        ExecContext ctx;
        ctx.resolver = db.get();
        Executor ex(ctx);
        Chunk out = ex.run(*plan);
        double n = 0;
        for (size_t i = 0; i < out.rows(); ++i)
            n += out.byName("n").doubleAt(i);
        return uint64_t(n);
    };
    const uint64_t n0 = count_rows();
    EXPECT_EQ(n0, before);
    std::vector<Value> row{int64_t(before), int64_t(0), int64_t(0),
                           int64_t(0), int64_t(100), 25.0, 1.0,
                           "SBMT", "B"};
    trade.insertRow(row);
    EXPECT_EQ(count_rows(), before + 1);
    EXPECT_EQ(trade.ncci->deltaRows(), 1u);
}

TEST(OltpRunnerTest, WriteBandwidthLimitReducesTps)
{
    // Paper Section 6: ASDB TPS drops under write limits even though
    // the database fits in memory.
    auto run_with = [](double limit) {
        asdb::AsdbWorkload wl(100, 48);
        auto cfg = shortRun(16);
        cfg.ssdWriteLimitBps = limit;
        return runOltp(wl, cfg).tps;
    };
    const double unlimited = run_with(0);
    const double limited = run_with(2e6); // 2 MB/s
    EXPECT_LT(limited, unlimited * 0.9);
}

TEST(OltpRunnerTest, DeterministicForSeed)
{
    auto once = [] {
        tpce::TpceWorkload wl(200, 16);
        return runOltp(wl, shortRun());
    };
    const auto a = once();
    const auto b = once();
    EXPECT_DOUBLE_EQ(a.tps, b.tps);
    EXPECT_EQ(a.waits.totalNs(WaitClass::Lock),
              b.waits.totalNs(WaitClass::Lock));
}

// Session-loop pins: committed, aborted, retried, given-up and
// lock-timeout counts of short contended runs, with and without the
// victim retry budget. The values were captured before the ASDB and
// TPC-E session loops shared one admission/retry helper; any change
// to the RNG draw order or the retry path moves them.
struct SessionCounts
{
    uint64_t committed, aborted, retried, givenUp, lockTimeouts;

    bool
    operator==(const SessionCounts &o) const
    {
        return committed == o.committed && aborted == o.aborted &&
               retried == o.retried && givenUp == o.givenUp &&
               lockTimeouts == o.lockTimeouts;
    }
};

std::ostream &
operator<<(std::ostream &os, const SessionCounts &c)
{
    return os << "{" << c.committed << ", " << c.aborted << ", "
              << c.retried << ", " << c.givenUp << ", "
              << c.lockTimeouts << "}";
}

SessionCounts
sessionCounts(OltpWorkload &wl, int retry_limit)
{
    auto db = wl.generate(3);
    RunConfig cfg = shortRun(4);
    cfg.duration = milliseconds(40);
    cfg.lockTimeout = microseconds(200);
    cfg.txnRetryLimit = retry_limit;
    SimRun run(*db, cfg);
    run.startSampling(1.0);
    wl.startSessions(run, *db, 11);
    run.runToCompletion();
    return {run.txnsCommitted, run.txnsAborted, run.txnsRetried,
            run.txnsGivenUp, run.locks.timeouts()};
}

TEST(OltpSessionPin, AsdbCountsAtRetryLimits)
{
    asdb::AsdbWorkload wl0(5, 64);
    EXPECT_EQ(sessionCounts(wl0, 0), (SessionCounts{347, 56, 0, 0, 56}));
    asdb::AsdbWorkload wl3(5, 64);
    EXPECT_EQ(sessionCounts(wl3, 3), (SessionCounts{350, 76, 74, 2, 76}));
}

TEST(OltpSessionPin, TpceCountsAtRetryLimits)
{
    tpce::TpceWorkload wl0(100, 64);
    EXPECT_EQ(sessionCounts(wl0, 0), (SessionCounts{100, 31, 0, 0, 31}));
    tpce::TpceWorkload wl3(100, 64);
    EXPECT_EQ(sessionCounts(wl3, 3), (SessionCounts{93, 79, 66, 13, 79}));
}

TEST(TpchDriverTest, StreamsRunAndScaleWithCores)
{
    TpchDriver driver(2);
    RunConfig cfg;
    cfg.duration = fromSeconds(0.02);
    cfg.seed = 5;

    cfg.cores = 2;
    cfg.maxdop = 2;
    const auto r2 = driver.runStreams(cfg, 3);
    cfg.cores = 16;
    cfg.maxdop = 16;
    const auto r16 = driver.runStreams(cfg, 3);
    EXPECT_GT(r2.qps, 0.0);
    EXPECT_GT(r16.qps, r2.qps);
}

TEST(TpchDriverTest, MissRateFallsWithAllocation)
{
    TpchDriver driver(2);
    const double m2 = driver.missRate(2);
    const double m40 = driver.missRate(40);
    EXPECT_GT(m2, m40);
    EXPECT_GE(m40, 0.0);
    EXPECT_LE(m2, 1.0);
}

TEST(TpchDriverTest, SingleQueryDurationDropsWithMaxdop)
{
    TpchDriver driver(4);
    RunConfig cfg;
    cfg.cores = 1;
    cfg.maxdop = 1;
    const double t1 = driver.runSingleQuery(1, cfg);
    cfg.cores = 16;
    cfg.maxdop = 16;
    const double t16 = driver.runSingleQuery(1, cfg);
    EXPECT_GT(t1, 0.0);
    // Q1 at SF4 may still be serial; allow equal-or-faster.
    EXPECT_LE(t16, t1);
}

void
expectSameProfile(const ProfiledQuery &a, const ProfiledQuery &b, int q)
{
    SCOPED_TRACE("Q" + std::to_string(q));
    EXPECT_EQ(a.signature, b.signature);
    EXPECT_EQ(a.parallelPlan, b.parallelPlan);
    EXPECT_EQ(a.resultRows, b.resultRows);
    ASSERT_EQ(a.profile.ops.size(), b.profile.ops.size());
    for (size_t i = 0; i < a.profile.ops.size(); ++i) {
        SCOPED_TRACE("op " + std::to_string(i));
        const OpProfile &x = a.profile.ops[i];
        const OpProfile &y = b.profile.ops[i];
        EXPECT_EQ(x.label, y.label);
        EXPECT_EQ(x.instructions, y.instructions);
        EXPECT_EQ(x.cacheTouches, y.cacheTouches);
        EXPECT_EQ(x.ioReadBytes, y.ioReadBytes);
        EXPECT_EQ(x.ioWriteBytes, y.ioWriteBytes);
        EXPECT_EQ(x.rowsIn, y.rowsIn);
        EXPECT_EQ(x.rowsOut, y.rowsOut);
        EXPECT_EQ(x.exchangeRows, y.exchangeRows);
        EXPECT_EQ(x.memRequired, y.memRequired);
        EXPECT_EQ(x.parallelizable, y.parallelizable);
    }
}

TEST(TpchDriverSteadyState, MatchesTwoPassOracle)
{
    // The oracle: run the suite twice against one profiling pool; the
    // first pass only warms the pool, the second records the profiles
    // and the workload trace.
    auto db = tpch::generate(2);
    ProfilingEnv env(*db);
    AccessTrace trace;
    RecordingFeed feed(trace);
    std::map<std::string, ProfiledQuery> by_sig;
    std::vector<std::string> sig32(tpch::kQueryCount + 1);
    double instr = 0;
    for (int pass = 1; pass <= 2; ++pass) {
        for (int q = 1; q <= tpch::kQueryCount; ++q) {
            ProfiledQuery pq = profileQuery(
                *db, *tpch::query(q), tpchOptimizerConfig(32),
                &env.pool(), pass == 2 ? &feed : nullptr);
            if (pass == 1)
                continue;
            instr += pq.profile.totalInstructions();
            sig32[size_t(q)] = pq.signature;
            by_sig.emplace(pq.signature, std::move(pq));
        }
    }

    TpchDriver driver(2);
    for (int q = 1; q <= tpch::kQueryCount; ++q)
        expectSameProfile(driver.profile(q, 32),
                          by_sig.at(sig32[size_t(q)]), q);
    EXPECT_EQ(driver.trace().addrs(), trace.addrs());
    EXPECT_EQ(driver.trace().total(), trace.total());
    EXPECT_EQ(driver.touchesPerKiloInstr(),
              double(trace.total()) / (instr / 1000.0));
    EXPECT_EQ(driver.db().space().bytesAllocated(),
              db->space().bytesAllocated());

    // A MAXDOP whose plans differ re-profiles against the pool the
    // steady state left behind, so equal I/O means an equal pool.
    int reprofiled = 0;
    for (int q = 1; q <= tpch::kQueryCount; ++q) {
        auto plan = tpch::query(q);
        Optimizer opt(*db, tpchOptimizerConfig(4));
        opt.optimize(*plan);
        const std::string sig = planSignature(*plan);
        auto it = by_sig.find(sig);
        if (it == by_sig.end()) {
            ++reprofiled;
            it = by_sig
                     .emplace(sig, profileQuery(*db, *tpch::query(q),
                                                tpchOptimizerConfig(4),
                                                &env.pool()))
                     .first;
        }
        expectSameProfile(driver.profile(q, 4), it->second, q);
    }
    EXPECT_GT(reprofiled, 0);
}

} // namespace
} // namespace dbsens
