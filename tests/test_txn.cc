/**
 * @file
 * Tests for the lock manager, SimMutex, wait stats, and WAL writer.
 */

#include <gtest/gtest.h>

#include "sim/event_loop.h"
#include "sim/ssd_model.h"
#include "sim/wait_stats.h"
#include "txn/lock_manager.h"
#include "txn/sim_mutex.h"
#include "txn/wal.h"

namespace dbsens {
namespace {

TEST(LockCompat, MatrixBasics)
{
    EXPECT_TRUE(lockCompatible(LockMode::S, LockMode::S));
    EXPECT_TRUE(lockCompatible(LockMode::S, LockMode::U));
    EXPECT_TRUE(lockCompatible(LockMode::U, LockMode::S));
    EXPECT_FALSE(lockCompatible(LockMode::U, LockMode::U));
    EXPECT_FALSE(lockCompatible(LockMode::X, LockMode::S));
    EXPECT_FALSE(lockCompatible(LockMode::S, LockMode::X));
    EXPECT_TRUE(lockCompatible(LockMode::IS, LockMode::IX));
    EXPECT_TRUE(lockCompatible(LockMode::IX, LockMode::IX));
    EXPECT_FALSE(lockCompatible(LockMode::IX, LockMode::S));
    EXPECT_FALSE(lockCompatible(LockMode::X, LockMode::IS));
}

class LockManagerTest : public ::testing::Test
{
  protected:
    LockManagerTest() : lm(loop) {}

    EventLoop loop;
    LockManager lm;
    WaitStats stats;
};

TEST_F(LockManagerTest, SharedLocksCoexist)
{
    int granted = 0;
    auto session = [&](TxnId t) -> Task<void> {
        const bool ok = co_await lm.acquire(t, 1, 10, LockMode::S, &stats);
        EXPECT_TRUE(ok);
        ++granted;
    };
    loop.spawn(session(1));
    loop.spawn(session(2));
    loop.run();
    EXPECT_EQ(granted, 2);
    EXPECT_EQ(loop.now(), 0); // no waiting
    EXPECT_EQ(stats.count(WaitClass::Lock), 0u);
}

TEST_F(LockManagerTest, ExclusiveBlocksUntilRelease)
{
    std::vector<int> order;
    auto holder = [&]() -> Task<void> {
        co_await lm.acquire(1, 1, 10, LockMode::X, &stats);
        order.push_back(1);
        co_await SimDelay(loop, 1000);
        lm.releaseAll(1);
    };
    auto waiter = [&]() -> Task<void> {
        co_await SimDelay(loop, 1); // start after the holder
        const bool ok = co_await lm.acquire(2, 1, 10, LockMode::X, &stats);
        EXPECT_TRUE(ok);
        order.push_back(2);
        lm.releaseAll(2);
    };
    loop.spawn(holder());
    loop.spawn(waiter());
    loop.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_GE(loop.now(), 1000);
    EXPECT_GT(stats.totalNs(WaitClass::Lock), 0);
}

TEST_F(LockManagerTest, UpdateLockUpgradesToExclusive)
{
    bool done = false;
    auto session = [&]() -> Task<void> {
        EXPECT_TRUE(co_await lm.acquire(1, 1, 5, LockMode::U, &stats));
        EXPECT_TRUE(co_await lm.acquire(1, 1, 5, LockMode::X, &stats));
        EXPECT_EQ(lm.heldCount(1), 1u);
        lm.releaseAll(1);
        done = true;
    };
    loop.spawn(session());
    loop.run();
    EXPECT_TRUE(done);
}

TEST_F(LockManagerTest, UpgradeWaitsForSharedHoldersToDrain)
{
    std::vector<int> order;
    auto reader = [&]() -> Task<void> {
        co_await lm.acquire(2, 1, 5, LockMode::S, &stats);
        co_await SimDelay(loop, 500);
        order.push_back(2);
        lm.releaseAll(2);
    };
    auto upgrader = [&]() -> Task<void> {
        co_await lm.acquire(1, 1, 5, LockMode::U, &stats);
        co_await SimDelay(loop, 10);
        EXPECT_TRUE(co_await lm.acquire(1, 1, 5, LockMode::X, &stats));
        order.push_back(1);
        lm.releaseAll(1);
    };
    loop.spawn(reader());
    loop.spawn(upgrader());
    loop.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST_F(LockManagerTest, TimeoutResolvesDeadlock)
{
    int timeouts = 0;
    auto a = [&]() -> Task<void> {
        co_await lm.acquire(1, 1, 1, LockMode::X, &stats);
        co_await SimDelay(loop, 10);
        const bool ok = co_await lm.acquire(1, 1, 2, LockMode::X, &stats);
        if (!ok)
            ++timeouts;
        lm.releaseAll(1);
    };
    auto b = [&]() -> Task<void> {
        co_await lm.acquire(2, 1, 2, LockMode::X, &stats);
        co_await SimDelay(loop, 10);
        const bool ok = co_await lm.acquire(2, 1, 1, LockMode::X, &stats);
        if (!ok)
            ++timeouts;
        lm.releaseAll(2);
    };
    loop.spawn(a());
    loop.spawn(b());
    loop.run();
    EXPECT_GE(timeouts, 1);
    EXPECT_GE(lm.timeouts(), 1u);
    // Both queues drained.
    EXPECT_EQ(lm.heldCount(1), 0u);
    EXPECT_EQ(lm.heldCount(2), 0u);
}

TEST_F(LockManagerTest, FifoNoBargingOfWriters)
{
    std::vector<int> order;
    auto reader1 = [&]() -> Task<void> {
        co_await lm.acquire(1, 1, 7, LockMode::S, &stats);
        co_await SimDelay(loop, 100);
        lm.releaseAll(1);
    };
    auto writer = [&]() -> Task<void> {
        co_await SimDelay(loop, 10);
        co_await lm.acquire(2, 1, 7, LockMode::X, &stats);
        order.push_back(2);
        lm.releaseAll(2);
    };
    auto reader2 = [&]() -> Task<void> {
        co_await SimDelay(loop, 20); // arrives after writer queued
        co_await lm.acquire(3, 1, 7, LockMode::S, &stats);
        order.push_back(3);
        lm.releaseAll(3);
    };
    loop.spawn(reader1());
    loop.spawn(writer());
    loop.spawn(reader2());
    loop.run();
    // Writer queued first must win despite reader compatibility.
    EXPECT_EQ(order, (std::vector<int>{2, 3}));
}

TEST_F(LockManagerTest, TableIntentAndRowLocksAreSeparateResources)
{
    bool done = false;
    auto session = [&]() -> Task<void> {
        EXPECT_TRUE(co_await lm.acquire(1, 5, kInvalidRow, LockMode::IX,
                                        &stats));
        EXPECT_TRUE(co_await lm.acquire(1, 5, 3, LockMode::X, &stats));
        EXPECT_TRUE(co_await lm.acquire(2, 5, kInvalidRow, LockMode::IX,
                                        &stats));
        EXPECT_TRUE(co_await lm.acquire(2, 5, 4, LockMode::X, &stats));
        lm.releaseAll(1);
        lm.releaseAll(2);
        done = true;
    };
    loop.spawn(session());
    loop.run();
    EXPECT_TRUE(done);
}

TEST(SimMutexTest, FifoAndWaitAttribution)
{
    EventLoop loop;
    SimMutex mtx;
    WaitStats stats;
    std::vector<int> order;
    auto session = [&](int id) -> Task<void> {
        co_await mtx.acquire(loop, &stats, WaitClass::PageLatch);
        order.push_back(id);
        co_await SimDelay(loop, 100);
        mtx.release(loop);
    };
    for (int i = 0; i < 4; ++i)
        loop.spawn(session(i));
    loop.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(stats.count(WaitClass::PageLatch), 3u);
    EXPECT_EQ(stats.totalNs(WaitClass::PageLatch), 100 + 200 + 300);
    EXPECT_FALSE(mtx.held());
}

TEST(WaitStatsTest, AccumulatesByClass)
{
    WaitStats s;
    s.add(WaitClass::Lock, 100);
    s.add(WaitClass::Lock, 50);
    s.add(WaitClass::PageIoLatch, 1000);
    EXPECT_EQ(s.totalNs(WaitClass::Lock), 150);
    EXPECT_EQ(s.count(WaitClass::Lock), 2u);
    EXPECT_EQ(s.contentionNs(), 150);
    s.reset();
    EXPECT_EQ(s.totalNs(WaitClass::Lock), 0);
}

class WalTest : public ::testing::Test
{
  protected:
    WalTest() : ssd(loop), wal(loop, ssd) {}

    EventLoop loop;
    SsdModel ssd;
    WalWriter wal;
};

TEST_F(WalTest, CommitWaitsForFlush)
{
    WaitStats stats;
    bool committed = false;
    auto txn = [&]() -> Task<void> {
        const auto lsn = wal.append(200);
        co_await wal.commit(lsn, &stats);
        committed = true;
    };
    loop.spawn(txn());
    loop.run();
    EXPECT_TRUE(committed);
    EXPECT_GE(wal.flushedLsn(), wal.appendedLsn());
    EXPECT_GT(stats.totalNs(WaitClass::WriteLog), 0);
    EXPECT_GT(ssd.bytesWritten(), 0u);
}

TEST_F(WalTest, GroupCommitBatchesFlushes)
{
    int committed = 0;
    auto txn = [&]() -> Task<void> {
        const auto lsn = wal.append(100);
        co_await wal.commit(lsn, nullptr);
        ++committed;
    };
    for (int i = 0; i < 50; ++i)
        loop.spawn(txn());
    loop.run();
    EXPECT_EQ(committed, 50);
    // Far fewer physical flushes than commits.
    EXPECT_LT(wal.flushCount(), 25u);
    EXPECT_GE(wal.flushCount(), 1u);
}

TEST_F(WalTest, SlowWriteBandwidthLengthensCommit)
{
    auto run_with_limit = [&](double limit) {
        EventLoop l;
        SsdModel s(l);
        if (limit > 0)
            s.setWriteLimit(limit);
        WalWriter w(l, s);
        SimTime end = 0;
        auto txn = [&]() -> Task<void> {
            const auto lsn = w.append(1 << 20);
            co_await w.commit(lsn, nullptr);
            end = l.now();
        };
        l.spawn(txn());
        l.run();
        return end;
    };
    const SimTime fast = run_with_limit(0);
    const SimTime slow = run_with_limit(10e6); // 10 MB/s
    EXPECT_GT(slow, fast * 10);
}

} // namespace
} // namespace dbsens
