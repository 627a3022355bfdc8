/**
 * @file
 * Tests for column data, table data, buffer pool, and the storage
 * layouts (row store, column store, columnstore index).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <unordered_map>

#include "core/logging.h"
#include "core/random.h"
#include "sim/event_loop.h"
#include "sim/ssd_model.h"
#include "storage/buffer_pool.h"
#include "storage/column_store.h"
#include "storage/columnstore_index.h"
#include "storage/row_store.h"
#include "storage/table_data.h"

namespace dbsens {
namespace {

Schema
testSchema()
{
    return Schema({
        {"id", TypeId::Int64},
        {"price", TypeId::Double},
        {"flag", TypeId::String, 4},
    });
}

TEST(ColumnData, IntRoundTrip)
{
    ColumnData c(TypeId::Int64);
    for (int64_t i = 0; i < 100; ++i)
        c.appendInt(i * 7);
    EXPECT_EQ(c.size(), 100u);
    EXPECT_EQ(c.getInt(13), 91);
    c.setInt(13, -5);
    EXPECT_EQ(c.getInt(13), -5);
}

TEST(ColumnData, StringDictionaryDeduplicates)
{
    ColumnData c(TypeId::String);
    c.appendString("AAA");
    c.appendString("BBB");
    c.appendString("AAA");
    EXPECT_EQ(c.dict().size(), 2u);
    EXPECT_EQ(c.getString(0), "AAA");
    EXPECT_EQ(c.getString(2), "AAA");
    EXPECT_EQ(c.stringCode(0), c.stringCode(2));
    EXPECT_NE(c.stringCode(0), c.stringCode(1));
}

TEST(ColumnData, DistinctEstimates)
{
    ColumnData c(TypeId::Int64);
    for (int i = 0; i < 1000; ++i)
        c.appendInt(i % 10);
    const auto d = c.distinctEstimate();
    EXPECT_GE(d, 5u);
    EXPECT_LE(d, 40u);
}

TEST(ColumnData, CompressedBytesBelowRaw)
{
    ColumnData c(TypeId::Int64);
    for (int i = 0; i < 10000; ++i)
        c.appendInt(i % 100); // 7 bits of range
    EXPECT_LT(c.compressedBytes(), 10000u * 8);
    EXPECT_GT(c.compressedBytes(), 10000u / 2);
}

TEST(TableData, AppendAndFetch)
{
    TableData t(testSchema());
    const RowId r = t.append({int64_t(1), 9.5, "OK"});
    EXPECT_EQ(t.rowCount(), 1u);
    const auto row = t.getRow(r);
    EXPECT_EQ(row[0].asInt(), 1);
    EXPECT_DOUBLE_EQ(row[1].asDouble(), 9.5);
    EXPECT_EQ(row[2].asString(), "OK");
}

TEST(TableData, DeletionTracksLiveRows)
{
    TableData t(testSchema());
    for (int i = 0; i < 10; ++i)
        t.append({int64_t(i), 1.0, "X"});
    t.markDeleted(3);
    t.markDeleted(3); // idempotent
    EXPECT_TRUE(t.isDeleted(3));
    EXPECT_EQ(t.liveRows(), 9u);
}

class BufferPoolTest : public ::testing::Test
{
  protected:
    BufferPoolTest() : ssd(loop), pool(loop, ssd, 10 * kPageSize) {}

    EventLoop loop;
    SsdModel ssd;
    BufferPool pool;
};

TEST_F(BufferPoolTest, TouchMissesThenHits)
{
    pool.registerObject(1, kPageSize);
    auto r1 = pool.touch(1);
    EXPECT_FALSE(r1.hit);
    EXPECT_EQ(r1.readBytes, kPageSize);
    auto r2 = pool.touch(1);
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(r2.readBytes, 0u);
    EXPECT_EQ(pool.hits(), 1u);
    EXPECT_EQ(pool.missCount(), 1u);
}

TEST_F(BufferPoolTest, LruEvictionUnderPressure)
{
    for (PageId p = 0; p < 20; ++p)
        pool.registerObject(p, kPageSize);
    for (PageId p = 0; p < 12; ++p)
        pool.touch(p);
    // Pool holds 10 pages; pages 0 and 1 were evicted.
    EXPECT_FALSE(pool.isResident(0));
    EXPECT_FALSE(pool.isResident(1));
    EXPECT_TRUE(pool.isResident(11));
    EXPECT_LE(pool.usedBytes(), pool.capacityBytes());
}

TEST_F(BufferPoolTest, DirtyEvictionReportsWriteback)
{
    for (PageId p = 0; p < 11; ++p)
        pool.registerObject(p, kPageSize);
    pool.touch(0);
    pool.markDirty(0);
    for (PageId p = 1; p < 11; ++p)
        pool.touch(p); // evicts page 0
    EXPECT_FALSE(pool.isResident(0));
    EXPECT_EQ(pool.writebackBytes(), kPageSize);
}

TEST_F(BufferPoolTest, PrewarmFillsInRegistrationOrder)
{
    for (PageId p = 0; p < 20; ++p)
        pool.registerObject(p, kPageSize);
    pool.prewarm();
    for (PageId p = 0; p < 10; ++p)
        EXPECT_TRUE(pool.isResident(p)) << p;
    EXPECT_FALSE(pool.isResident(10));
}

TEST_F(BufferPoolTest, FixChargesPageIoLatchOnMiss)
{
    pool.registerObject(1, kPageSize);
    WaitStats stats;
    auto session = [&]() -> Task<void> {
        co_await pool.fix(1, &stats);
    };
    loop.spawn(session());
    loop.run();
    EXPECT_GT(stats.totalNs(WaitClass::PageIoLatch), 0);
    EXPECT_EQ(stats.count(WaitClass::PageIoLatch), 1u);
    EXPECT_TRUE(pool.isResident(1));
    EXPECT_GT(ssd.bytesRead(), 0u);
}

TEST_F(BufferPoolTest, ConcurrentFixesShareOneRead)
{
    pool.registerObject(1, kPageSize);
    WaitStats s1, s2;
    int done = 0;
    auto session = [&](WaitStats *s) -> Task<void> {
        co_await pool.fix(1, s);
        ++done;
    };
    loop.spawn(session(&s1));
    loop.spawn(session(&s2));
    loop.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(ssd.readOps(), 1u); // second session joined the load
    EXPECT_GT(s2.totalNs(WaitClass::PageIoLatch), 0);
}

TEST_F(BufferPoolTest, ResidentFixIsFree)
{
    pool.registerObject(1, kPageSize);
    pool.touch(1);
    WaitStats stats;
    auto session = [&]() -> Task<void> {
        co_await pool.fix(1, &stats);
    };
    loop.spawn(session());
    loop.run();
    EXPECT_EQ(stats.count(WaitClass::PageIoLatch), 0u);
    EXPECT_EQ(loop.now(), 0);
}

TEST_F(BufferPoolTest, FlushDirtyCleansWithoutEvicting)
{
    pool.registerObject(1, kPageSize);
    pool.touch(1);
    pool.markDirty(1);
    EXPECT_EQ(pool.dirtyBytes(), kPageSize);
    const auto flushed = pool.flushDirty(1 << 20);
    EXPECT_EQ(flushed, kPageSize);
    EXPECT_EQ(pool.dirtyBytes(), 0u);
    EXPECT_TRUE(pool.isResident(1));
}

TEST_F(BufferPoolTest, MakeRoomDoesNotSpinOnInFlightLoads)
{
    // A 16 KB pool: while a 12 KB load is in flight, an 8 KB miss
    // finds only that load in the LRU. It is admitted over capacity
    // instead of rotating past the load forever.
    BufferPool small(loop, ssd, 16 << 10);
    small.registerObject(1, 12 << 10);
    small.registerObject(2, 8 << 10);
    int done = 0;
    auto session = [&](PageId id) -> Task<void> {
        co_await small.fix(id, nullptr);
        ++done;
    };
    loop.spawn(session(1));
    loop.spawn(session(2));
    loop.run();
    EXPECT_EQ(done, 2);
    EXPECT_TRUE(small.isResident(1));
    EXPECT_TRUE(small.isResident(2));
    EXPECT_EQ(small.usedBytes(), 20u << 10);
    EXPECT_EQ(small.missCount(), 2u);
    // The next miss evicts back under capacity.
    small.registerObject(3, 4 << 10);
    small.touch(3);
    EXPECT_TRUE(small.isResident(3));
    EXPECT_LE(small.usedBytes(), small.capacityBytes());
}

// ------------------------------------------------ buffer-pool oracle

/**
 * The buffer pool as it was before the dense table: a hash map of
 * objects, a std::list LRU and a flushDirty that walks the whole LRU.
 * Kept only here, as the oracle; the fault, trace and stats hooks the
 * oracle never drives are left out.
 */
class ReferenceBufferPool
{
  public:
    ReferenceBufferPool(EventLoop &loop, SsdModel &ssd,
                        uint64_t capacity_bytes)
        : loop_(loop), ssd_(ssd), capacity_(capacity_bytes)
    {
    }

    void
    registerObject(PageId id, uint64_t bytes)
    {
        auto [it, inserted] = objects_.try_emplace(id);
        if (!inserted)
            panic("buffer object registered twice");
        it->second.bytes = bytes;
        it->second.checksum = BufferPool::pageChecksum(id, bytes, 0);
        registrationOrder_.push_back(id);
    }

    uint64_t
    objectVersion(PageId id) const
    {
        auto it = objects_.find(id);
        return it == objects_.end() ? 0 : it->second.version;
    }

    bool
    isResident(PageId id) const
    {
        auto it = objects_.find(id);
        return it != objects_.end() && it->second.resident;
    }

    Task<void>
    fix(PageId id, WaitStats *stats)
    {
        Object &o = obj(id);
        if (o.resident && !o.loading) {
            ++hits_;
            touchLru(id, o);
            co_return;
        }
        if (o.loading) {
            const SimTime start = loop_.now();
            co_await LoadWait(o.loadWaiters);
            if (stats)
                stats->add(WaitClass::PageIoLatch, loop_.now() - start);
            co_return;
        }

        ++misses_;
        const uint64_t writeback = makeRoom(o.bytes);
        if (writeback > 0)
            loop_.spawn(ssd_.write(writeback));
        o.loading = true;
        admit(id, o); // reserve space while loading
        diskReadBytes_ += o.bytes;
        const SimTime start = loop_.now();
        co_await ssd_.read(o.bytes);
        o.loading = false;
        if (stats)
            stats->add(WaitClass::PageIoLatch, loop_.now() - start);
        touchLru(id, o);
        for (auto h : o.loadWaiters)
            loop_.post(h);
        o.loadWaiters.clear();
    }

    BufferPool::TouchResult
    touch(PageId id)
    {
        Object &o = obj(id);
        BufferPool::TouchResult res;
        if (o.resident) {
            ++hits_;
            res.hit = true;
            touchLru(id, o);
            return res;
        }
        ++misses_;
        res.writeBytes = makeRoom(o.bytes);
        admit(id, o);
        diskReadBytes_ += o.bytes;
        res.readBytes = o.bytes;
        return res;
    }

    void
    markDirty(PageId id)
    {
        Object &o = obj(id);
        if (!o.resident)
            panic("markDirty on non-resident object");
        if (!o.dirty) {
            o.dirty = true;
            dirtyBytes_ += o.bytes;
        }
        ++o.version;
        o.checksum = BufferPool::pageChecksum(id, o.bytes, o.version);
    }

    void
    prewarm()
    {
        for (PageId id : registrationOrder_) {
            Object &o = objects_.at(id);
            if (o.resident)
                continue;
            if (used_ + o.bytes > capacity_)
                break;
            admit(id, o);
        }
    }

    uint64_t
    flushDirty(uint64_t max_bytes)
    {
        uint64_t flushed = 0;
        for (PageId id : lru_) {
            if (flushed >= max_bytes)
                break;
            Object &o = objects_.at(id);
            if (o.dirty && !o.loading) {
                o.dirty = false;
                dirtyBytes_ -= o.bytes;
                flushed += o.bytes;
            }
        }
        writebackBytes_ += flushed;
        return flushed;
    }

    uint64_t usedBytes() const { return used_; }
    uint64_t hits() const { return hits_; }
    uint64_t missCount() const { return misses_; }
    uint64_t diskReadBytes() const { return diskReadBytes_; }
    uint64_t writebackBytes() const { return writebackBytes_; }
    uint64_t dirtyBytes() const { return dirtyBytes_; }

  private:
    class LoadWait
    {
      public:
        explicit LoadWait(std::vector<std::coroutine_handle<>> &waiters)
            : waiters(waiters)
        {
        }

        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<> h) { waiters.push_back(h); }
        void await_resume() const noexcept {}

      private:
        std::vector<std::coroutine_handle<>> &waiters;
    };

    struct Object
    {
        uint64_t bytes = 0;
        bool resident = false;
        bool dirty = false;
        bool loading = false;
        uint64_t version = 0;
        uint64_t checksum = 0;
        std::list<PageId>::iterator lruPos;
        std::vector<std::coroutine_handle<>> loadWaiters;
    };

    Object &
    obj(PageId id)
    {
        auto it = objects_.find(id);
        if (it == objects_.end())
            panic("access to unregistered buffer object " +
                  std::to_string(id));
        return it->second;
    }

    void
    touchLru(PageId id, Object &o)
    {
        lru_.erase(o.lruPos);
        o.lruPos = lru_.insert(lru_.end(), id);
    }

    uint64_t
    makeRoom(uint64_t needed)
    {
        uint64_t writeback = 0;
        while (used_ + needed > capacity_ && !lru_.empty()) {
            const PageId victim = lru_.front();
            Object &vo = objects_.at(victim);
            if (vo.loading) {
                lru_.pop_front();
                vo.lruPos = lru_.insert(lru_.end(), victim);
                continue;
            }
            lru_.pop_front();
            vo.resident = false;
            used_ -= vo.bytes;
            if (vo.dirty) {
                vo.dirty = false;
                dirtyBytes_ -= vo.bytes;
                writeback += vo.bytes;
            }
        }
        writebackBytes_ += writeback;
        return writeback;
    }

    void
    admit(PageId id, Object &o)
    {
        o.resident = true;
        used_ += o.bytes;
        o.lruPos = lru_.insert(lru_.end(), id);
    }

    EventLoop &loop_;
    SsdModel &ssd_;
    uint64_t capacity_;
    uint64_t used_ = 0;
    uint64_t dirtyBytes_ = 0;
    std::unordered_map<PageId, Object> objects_;
    std::vector<PageId> registrationOrder_;
    std::list<PageId> lru_; // front = LRU, back = MRU
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t diskReadBytes_ = 0;
    uint64_t writebackBytes_ = 0;
};

/** One pool with its own clock and SSD, and its sessions' waits. */
template <typename Pool>
struct PoolRig
{
    static constexpr uint64_t kCapacity = 64 << 10;

    EventLoop loop;
    SsdModel ssd{loop};
    Pool pool{loop, ssd, kCapacity};
    WaitStats waits;
    int sessionsDone = 0;
};

template <typename Pool>
Task<void>
fixSession(PoolRig<Pool> &rig, PageId id)
{
    co_await rig.pool.fix(id, &rig.waits);
    ++rig.sessionsDone;
}

/** Everything observable about both pools must agree. */
void
expectSameState(PoolRig<BufferPool> &got,
                PoolRig<ReferenceBufferPool> &want, PageId id_end,
                const std::string &where)
{
    ASSERT_EQ(got.pool.hits(), want.pool.hits()) << where;
    ASSERT_EQ(got.pool.missCount(), want.pool.missCount()) << where;
    ASSERT_EQ(got.pool.diskReadBytes(), want.pool.diskReadBytes()) << where;
    ASSERT_EQ(got.pool.writebackBytes(), want.pool.writebackBytes())
        << where;
    ASSERT_EQ(got.pool.dirtyBytes(), want.pool.dirtyBytes()) << where;
    ASSERT_EQ(got.pool.usedBytes(), want.pool.usedBytes()) << where;
    ASSERT_EQ(got.loop.now(), want.loop.now()) << where;
    ASSERT_EQ(got.sessionsDone, want.sessionsDone) << where;
    ASSERT_EQ(got.waits.totalNs(WaitClass::PageIoLatch),
              want.waits.totalNs(WaitClass::PageIoLatch))
        << where;
    ASSERT_EQ(got.ssd.bytesWritten(), want.ssd.bytesWritten()) << where;
    for (PageId id = 0; id < id_end; ++id) {
        ASSERT_EQ(got.pool.isResident(id), want.pool.isResident(id))
            << where << ", page " << id;
        ASSERT_EQ(got.pool.objectVersion(id), want.pool.objectVersion(id))
            << where << ", page " << id;
    }
}

/**
 * Drive the dense pool and the reference with one seeded op sequence:
 * registrations in random id order, synchronous touches, overlapping
 * DES fix() loads, markDirty (in-flight loads included), flushDirty
 * budgets from 0 to above the dirty bytes, prewarm, and evictions
 * under a 64 KB capacity. Residency is compared page by page after
 * every op, so each op evicts the same pages from both.
 */
void
runPoolOracle(uint64_t seed, bool reserve)
{
    constexpr PageId kIds = 48;
    // At most 3 sessions in flight, of at most 16 KB each: never is
    // every LRU entry an in-flight load while a miss needs room, the
    // case where the reference rotates forever.
    constexpr int kMaxSessions = 3;
    PoolRig<BufferPool> got;
    PoolRig<ReferenceBufferPool> want;
    if (reserve)
        got.pool.reserveObjects(kIds, kIds);
    Rng rng(seed);
    std::vector<PageId> registered;
    int spawned = 0;
    for (int step = 0; step < 3000; ++step) {
        const std::string where = "seed " + std::to_string(seed) +
                                  ", step " + std::to_string(step);
        const uint64_t op = rng.uniform(100);
        if (registered.size() < 4 || op < 6) {
            if (registered.size() == kIds)
                continue;
            PageId id;
            do
                id = rng.uniform(kIds);
            while (std::find(registered.begin(), registered.end(), id) !=
                   registered.end());
            const uint64_t bytes = (1 + rng.uniform(4)) << 12;
            got.pool.registerObject(id, bytes);
            want.pool.registerObject(id, bytes);
            registered.push_back(id);
        } else if (op < 40) {
            const PageId id = registered[rng.uniform(registered.size())];
            const auto a = got.pool.touch(id);
            const auto b = want.pool.touch(id);
            ASSERT_EQ(a.hit, b.hit) << where;
            ASSERT_EQ(a.readBytes, b.readBytes) << where;
            ASSERT_EQ(a.writeBytes, b.writeBytes) << where;
        } else if (op < 65) {
            if (spawned - want.sessionsDone >= kMaxSessions)
                continue;
            const PageId id = registered[rng.uniform(registered.size())];
            got.loop.spawn(fixSession(got, id));
            want.loop.spawn(fixSession(want, id));
            ++spawned;
        } else if (op < 80) {
            const PageId id = registered[rng.uniform(registered.size())];
            if (!want.pool.isResident(id))
                continue;
            got.pool.markDirty(id);
            want.pool.markDirty(id);
        } else if (op < 90) {
            const uint64_t budget =
                rng.uniform(4) == 0 ? 0
                                    : rng.uniform(want.pool.dirtyBytes() +
                                                  (24 << 10));
            ASSERT_EQ(got.pool.flushDirty(budget),
                      want.pool.flushDirty(budget))
                << where << ", budget " << budget;
        } else if (op < 92) {
            got.pool.prewarm();
            want.pool.prewarm();
        } else {
            // Let time pass: often not at all, so loads overlap.
            const SimTime until =
                want.loop.now() +
                (rng.uniform(2) ? 0 : SimTime(rng.uniform(120'000)));
            got.loop.runUntil(until);
            want.loop.runUntil(until);
        }
        expectSameState(got, want, kIds, where);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    got.loop.run();
    want.loop.run();
    expectSameState(got, want, kIds, "drained, seed " + std::to_string(seed));
}

TEST(BufferPoolOracle, MatchesReferenceOnSeededOps)
{
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        runPoolOracle(seed, seed % 2 == 0);
        if (HasFatalFailure())
            return;
    }
}

TEST(RowStoreTest, PagesMapRowsAtFixedDensity)
{
    TableData data(testSchema()); // width 8+8+4 = 20 (+slot)
    VirtualSpace vs;
    PageId next = 100;
    RowStore rs(data, [&](uint64_t) { return next++; }, vs, 10000);
    EXPECT_GT(rs.rowsPerPage(), 100u);
    bool new_page = false;
    for (int i = 0; i < 1000; ++i)
        rs.appendRow({int64_t(i), 0.5, "AB"}, &new_page);
    EXPECT_EQ(rs.pageCount(),
              (1000 + rs.rowsPerPage() - 1) / rs.rowsPerPage());
    EXPECT_EQ(rs.pageOfRow(0), 100u);
    EXPECT_EQ(rs.pageOfRow(rs.rowsPerPage()), 101u);
    EXPECT_EQ(rs.dataBytes(), rs.pageCount() * kPageSize);
}

TEST(RowStoreTest, CacheAddressesWithinRegionAndOrdered)
{
    TableData data(testSchema());
    VirtualSpace vs;
    PageId next = 0;
    RowStore rs(data, [&](uint64_t) { return next++; }, vs, 1000);
    for (int i = 0; i < 500; ++i)
        rs.appendRow({int64_t(i), 0.0, "A"});
    const auto a0 = rs.cacheAddrOfRow(0);
    const auto a499 = rs.cacheAddrOfRow(499);
    EXPECT_GE(a0, rs.region().base);
    EXPECT_LT(a499, rs.region().base + rs.region().size);
    EXPECT_GT(a499, a0);
}

TEST(ColumnStoreTest, BuildRegistersSegmentsWithCompressedSizes)
{
    TableData data(testSchema());
    for (int i = 0; i < 100000; ++i)
        data.append({int64_t(i % 50), double(i % 7), "F"});
    VirtualSpace vs;
    std::vector<uint64_t> sizes;
    PageId next = 0;
    ColumnStore cs(data,
                   [&](uint64_t b) {
                       sizes.push_back(b);
                       return next++;
                   },
                   vs);
    cs.build();
    EXPECT_EQ(cs.rowGroups(), 2u); // 100k rows / 65536
    EXPECT_EQ(sizes.size(), 3u * 2u);
    // Compressed total far below raw width (20 B/row).
    EXPECT_LT(cs.totalBytes(), 100000u * 20);
    EXPECT_GT(cs.totalBytes(), 0u);
    EXPECT_NE(cs.segmentPage(0, 0), cs.segmentPage(0, 1));
}

TEST(ColumnstoreIndexTest, DeltaAccumulatesAndTupleMoverCompresses)
{
    TableData data(testSchema());
    for (int i = 0; i < 1000; ++i)
        data.append({int64_t(i), 1.0, "X"});
    VirtualSpace vs;
    PageId next = 0;
    ColumnstoreIndex idx(data, [&](uint64_t) { return next++; }, vs);
    idx.build();
    EXPECT_EQ(idx.compressedUpTo(), 1000u);
    EXPECT_EQ(idx.deltaRows(), 0u);

    // Inserts land in the delta store.
    for (int i = 0; i < 100; ++i) {
        const RowId r = data.append({int64_t(1000 + i), 1.0, "X"});
        idx.onInsert(r);
    }
    EXPECT_EQ(idx.deltaRows(), 100u);
    EXPECT_EQ(idx.tupleMove(), 0u); // below threshold

    for (uint64_t i = idx.deltaRows();
         i < ColumnstoreIndex::kDeltaCompressThreshold; ++i) {
        const RowId r = data.append({int64_t(i), 1.0, "X"});
        idx.onInsert(r);
    }
    const auto moved = idx.tupleMove();
    EXPECT_GT(moved, 0u);
    EXPECT_EQ(idx.deltaRows(), 0u);
    EXPECT_EQ(idx.compressedUpTo(), data.rowCount());
}

} // namespace
} // namespace dbsens
