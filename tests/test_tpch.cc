/**
 * @file
 * TPC-H workload tests: generator invariants, all 22 queries execute
 * and produce plausible results, independent recomputation of Q1/Q6,
 * the paper's Q20 plan-change behaviour (Figure 7), and the buffer-pool
 * I/O a profile charges each operator.
 */

#include <gtest/gtest.h>

#include <memory>

#include "engine/query_runner.h"
#include "harness/tpch_driver.h"
#include "opt/plan_printer.h"
#include "workloads/tpch/tpch_gen.h"
#include "workloads/tpch/tpch_queries.h"

namespace dbsens {
namespace {

class TpchTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        db = tpch::generate(2).release(); // tiny: lineitem = 12k rows
    }

    static void
    TearDownTestSuite()
    {
        delete db;
        db = nullptr;
    }

    Chunk
    runQuery(int q, int maxdop = 8)
    {
        auto plan = tpch::query(q);
        Chunk result;
        profileQuery(*db, *plan, {.maxdop = maxdop}, nullptr, nullptr,
                     &result);
        return result;
    }

    static Database *db;
};

Database *TpchTest::db = nullptr;

TEST_F(TpchTest, GeneratorRowCountsMatchScale)
{
    const tpch::TpchScale sc(2);
    EXPECT_EQ(db->find("lineitem").data->rowCount(), sc.lineitem);
    EXPECT_EQ(db->find("orders").data->rowCount(), sc.orders);
    EXPECT_EQ(db->find("customer").data->rowCount(), sc.customer);
    EXPECT_EQ(db->find("part").data->rowCount(), sc.part);
    EXPECT_EQ(db->find("supplier").data->rowCount(), sc.supplier);
    EXPECT_EQ(db->find("partsupp").data->rowCount(), sc.partsupp);
    EXPECT_EQ(db->find("nation").data->rowCount(), 25u);
    EXPECT_EQ(db->find("region").data->rowCount(), 5u);
}

TEST_F(TpchTest, GeneratorReferentialIntegrity)
{
    // Every lineitem references a valid order and part.
    const auto &li = *db->find("lineitem").data;
    const auto &ord = *db->find("orders").data;
    const tpch::TpchScale sc(2);
    for (RowId r = 0; r < li.rowCount(); r += 97) {
        EXPECT_LT(uint64_t(li.column("l_orderkey").getInt(r)),
                  ord.rowCount());
        EXPECT_LT(uint64_t(li.column("l_partkey").getInt(r)), sc.part);
        EXPECT_LT(uint64_t(li.column("l_suppkey").getInt(r)),
                  sc.supplier);
    }
}

TEST_F(TpchTest, GeneratorDeterministicForSeed)
{
    auto db2 = tpch::generate(1, 777);
    auto db3 = tpch::generate(1, 777);
    const auto &a = *db2->find("lineitem").data;
    const auto &b = *db3->find("lineitem").data;
    ASSERT_EQ(a.rowCount(), b.rowCount());
    for (RowId r = 0; r < a.rowCount(); r += 131)
        EXPECT_EQ(a.column("l_extendedprice").getDouble(r),
                  b.column("l_extendedprice").getDouble(r));
}

TEST_F(TpchTest, DatabaseHasIndexesForNlJoins)
{
    EXPECT_NE(db->find("part").indexOn("p_partkey"), nullptr);
    EXPECT_NE(db->find("customer").indexOn("c_custkey"), nullptr);
    EXPECT_NE(db->find("supplier").indexOn("s_suppkey"), nullptr);
    // Fact tables carry no B-trees (paper Table 1: columnar only).
    EXPECT_EQ(db->find("lineitem").indexOn("l_orderkey"), nullptr);
}

TEST_F(TpchTest, Q1MatchesIndependentRecomputation)
{
    Chunk out = runQuery(1);
    ASSERT_GT(out.rows(), 0u);
    ASSERT_LE(out.rows(), 6u); // 3 returnflags x 2 linestatus

    // Recompute sum_qty for the first group naively.
    const std::string rf = out.byName("l_returnflag").stringAt(0);
    const std::string ls = out.byName("l_linestatus").stringAt(0);
    const auto &li = *db->find("lineitem").data;
    const int64_t cutoff = dateToDays(1998, 9, 2);
    double sum_qty = 0, sum_price = 0;
    uint64_t count = 0;
    for (RowId r = 0; r < li.rowCount(); ++r) {
        if (li.column("l_shipdate").getInt(r) > cutoff)
            continue;
        if (li.column("l_returnflag").getString(r) != rf ||
            li.column("l_linestatus").getString(r) != ls)
            continue;
        sum_qty += li.column("l_quantity").getDouble(r);
        sum_price += li.column("l_extendedprice").getDouble(r);
        ++count;
    }
    EXPECT_NEAR(out.byName("sum_qty").doubleAt(0), sum_qty, 1e-6);
    EXPECT_NEAR(out.byName("sum_base_price").doubleAt(0), sum_price,
                1e-3);
    EXPECT_NEAR(out.byName("count_order").doubleAt(0), double(count),
                1e-9);
    EXPECT_NEAR(out.byName("avg_qty").doubleAt(0),
                sum_qty / double(count), 1e-9);
}

TEST_F(TpchTest, Q6MatchesIndependentRecomputation)
{
    Chunk out = runQuery(6);
    ASSERT_EQ(out.rows(), 1u);
    const auto &li = *db->find("lineitem").data;
    const int64_t lo = dateToDays(1994, 1, 1);
    const int64_t hi = dateToDays(1995, 1, 1);
    double rev = 0;
    for (RowId r = 0; r < li.rowCount(); ++r) {
        const int64_t d = li.column("l_shipdate").getInt(r);
        const double disc = li.column("l_discount").getDouble(r);
        const double qty = li.column("l_quantity").getDouble(r);
        if (d >= lo && d < hi && disc >= 0.05 && disc <= 0.07 &&
            qty < 24)
            rev += li.column("l_extendedprice").getDouble(r) * disc;
    }
    EXPECT_NEAR(out.byName("revenue").doubleAt(0), rev, 1e-3);
}

class TpchAllQueries : public TpchTest,
                       public ::testing::WithParamInterface<int>
{
};

TEST_P(TpchAllQueries, ExecutesAndReturnsPlausibleResult)
{
    const int q = GetParam();
    Chunk out = runQuery(q);
    // Every query must produce a schema; most produce rows on SF2.
    EXPECT_GT(out.columnCount(), 0u) << "Q" << q;
    // Aggregation-only queries always return exactly one row.
    if (q == 6 || q == 14 || q == 17 || q == 19) {
        EXPECT_EQ(out.rows(), 1u) << "Q" << q;
    }
    // Grouped reports have known group-count caps.
    if (q == 1) {
        EXPECT_LE(out.rows(), 6u);
    }
    if (q == 4) {
        EXPECT_LE(out.rows(), 5u); // priorities
    }
    if (q == 12) {
        EXPECT_LE(out.rows(), 2u); // MAIL, SHIP
    }
    if (q == 3) {
        EXPECT_LE(out.rows(), 10u);
    }
    if (q == 10) {
        EXPECT_LE(out.rows(), 20u);
    }
    if (q == 18) {
        EXPECT_LE(out.rows(), 100u);
    }
    if (q == 5) {
        EXPECT_LE(out.rows(), 5u); // ASIA nations
    }
    if (q == 22) {
        EXPECT_LE(out.rows(), 7u); // country codes
    }
    if (q == 14 && out.rows() == 1) {
        const double v = out.byName("promo_revenue").doubleAt(0);
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 100.0);
    }
}

INSTANTIATE_TEST_SUITE_P(Queries, TpchAllQueries,
                         ::testing::Range(1, 23));

TEST_F(TpchTest, QueriesDeterministicAcrossRuns)
{
    for (int q : {3, 5, 13}) {
        Chunk a = runQuery(q);
        Chunk b = runQuery(q);
        ASSERT_EQ(a.rows(), b.rows()) << "Q" << q;
        for (size_t c = 0; c < a.columnCount(); ++c)
            for (size_t r = 0; r < a.rows(); ++r)
                EXPECT_EQ(a.col(c).valueAt(r), b.col(c).valueAt(r));
    }
}

TEST_F(TpchTest, Q20PlanChangesWithMaxdop)
{
    // The paper's Figure 7: at MAXDOP=1 Q20 uses a hash join against
    // part; at MAXDOP=32 a (parallel) nested loops join with part's
    // index. Reproduce the signature change.
    auto plan1 = tpch::query(20);
    Optimizer o1(*db, {.maxdop = 1});
    o1.optimize(*plan1);
    EXPECT_EQ(planSignature(*plan1).find("NL(part)"),
              std::string::npos);

    auto plan32 = tpch::query(20);
    Optimizer o32(*db, {.maxdop = 32, .serialThreshold = 1.0});
    o32.optimize(*plan32);
    EXPECT_NE(planSignature(*plan32).find("NL(part)"),
              std::string::npos)
        << planToString(*plan32);

    // And the two plans produce identical results.
    ExecContext c1, c32;
    c1.resolver = db;
    c32.resolver = db;
    Executor e1(c1), e32(c32);
    Chunk r1 = e1.run(*plan1);
    Chunk r32 = e32.run(*plan32);
    ASSERT_EQ(r1.rows(), r32.rows());
    for (size_t r = 0; r < r1.rows(); ++r)
        EXPECT_EQ(r1.byName("s_name").stringAt(r),
                  r32.byName("s_name").stringAt(r));
}

TEST_F(TpchTest, SerialPlanChoiceDependsOnThreshold)
{
    // Paper Section 7: at small SF some (not all) queries run
    // serially. With the default threshold everything at tiny SF2 is
    // serial; with a threshold between the cheap and expensive
    // queries' costs, the suite splits.
    int serial_default = 0, serial_low = 0;
    for (int q = 1; q <= 22; ++q) {
        auto plan = tpch::query(q);
        Optimizer opt(*db, {.maxdop = 32});
        opt.optimize(*plan);
        serial_default += opt.lastPlanParallel() ? 0 : 1;

        auto plan2 = tpch::query(q);
        Optimizer opt2(*db,
                       {.maxdop = 32, .serialThreshold = 2.0e5});
        opt2.optimize(*plan2);
        serial_low += opt2.lastPlanParallel() ? 0 : 1;
    }
    EXPECT_EQ(serial_default, 22); // tiny data: all serial
    EXPECT_GT(serial_low, 0);
    EXPECT_LT(serial_low, 22);
}

TEST_F(TpchTest, ProfileIoThroughSmallPoolIsPinned)
{
    // Two passes of the suite through a pool that holds half the
    // database, so it evicts; every resident object is dirtied before
    // each query so evictions also charge write-back. Q10/Q19/Q20 run
    // index nested loops, whose sampled probes weigh kScanTouchStride.
    struct Pinned
    {
        int query;
        uint64_t read1, write1, read2, write2;
    };
    const Pinned kPinned[] = {
        {1, 429125u, 416406u, 333109u, 305915u},
        {2, 29832u, 27016u, 28415u, 0u},
        {3, 62581u, 39032u, 46799u, 45809u},
        {4, 74364u, 105061u, 74364u, 107477u},
        {5, 15407u, 0u, 15407u, 0u},
        {6, 96016u, 96016u, 96016u, 96016u},
        {7, 0u, 0u, 0u, 0u},
        {8, 32826u, 25284u, 32826u, 25284u},
        {9, 27445u, 43167u, 27445u, 43167u},
        {10, 2103179u, 0u, 2103179u, 0u},
        {11, 5616u, 36016u, 5616u, 36016u},
        {12, 83450u, 144229u, 83450u, 144229u},
        {13, 75133u, 0u, 75133u, 0u},
        {14, 32826u, 15940u, 32826u, 15940u},
        {15, 17197u, 17208u, 17197u, 17208u},
        {16, 2822u, 0u, 2822u, 0u},
        {17, 97239u, 108278u, 97239u, 108278u},
        {18, 78214u, 113481u, 78214u, 113481u},
        {19, 4209470u, 1922048u, 4209470u, 1922048u},
        {20, 57184u, 44475u, 57184u, 44475u},
        {21, 82575u, 156119u, 82575u, 156119u},
        {22, 17448u, 0u, 17448u, 0u},
    };
    EventLoop loop;
    SsdModel ssd(loop);
    BufferPool pool(loop, ssd, 512u << 10);
    db->bindPool(pool);
    pool.prewarm();
    int nl_queries = 0;
    for (int pass = 1; pass <= 2; ++pass) {
        for (const Pinned &p : kPinned) {
            for (PageId id : pool.registeredObjects())
                if (pool.isResident(id))
                    pool.markDirty(id);
            const ProfiledQuery pq =
                profileQuery(*db, *tpch::query(p.query),
                             tpchOptimizerConfig(32), &pool);
            uint64_t write = 0;
            for (const OpProfile &op : pq.profile.ops)
                write += op.ioWriteBytes;
            EXPECT_EQ(pq.profile.totalReadBytes(),
                      pass == 1 ? p.read1 : p.read2)
                << "Q" << p.query << " pass " << pass;
            EXPECT_EQ(write, pass == 1 ? p.write1 : p.write2)
                << "Q" << p.query << " pass " << pass;
            if (pass == 1 && pq.signature.find("NL(") != std::string::npos)
                ++nl_queries;
        }
    }
    db->unbindPool();
    EXPECT_EQ(nl_queries, 3);
    EXPECT_EQ(pool.hits(), 438u);
    EXPECT_EQ(pool.missCount(), 178u);
    EXPECT_EQ(pool.writebackBytes(), 2677174u);
}

} // namespace
} // namespace dbsens
