#include "engine/txn_ctx.h"

#include <algorithm>

#include "core/logging.h"
#include "engine/recovery.h"

namespace dbsens {

namespace {

/** Simulated time a page latch is held for one row modification. */
constexpr double kLatchHoldNs = 650.0;

} // namespace

TxnCtx::TxnCtx(SimRun &run, TxnId id)
    : run_(run), id_(id), begin_(run.loop.now())
{
    missMark_ = run_.feed.misses();
    charge(oltpcost::kTxnOverheadInstr * 0.5); // begin path
    run_.noteTxnBegin(id_);
}

void
TxnCtx::charge(double instructions)
{
    pendingInstr_ += instructions;
}

Task<void>
TxnCtx::flushCpu()
{
    if (pendingInstr_ <= 0)
        co_return;
    const uint64_t misses_now = run_.feed.misses();
    const double sampled_misses = double(misses_now - missMark_);
    missMark_ = misses_now;
    const double real_misses =
        sampled_misses * calib::kOltpAccessWeight;

    CpuWork work;
    work.computeNs = pendingInstr_ /
                     (calib::kBaseIpc * calib::kCoreFreqHz) * 1e9;
    work.stallNs = real_misses * calib::kMissLatencyNs *
                   (1.0 - calib::kMissOverlap);
    work.dramBytes = real_misses * double(kCacheLineSize);
    work.tenant = kTenantOltp;
    run_.instructionsRetired += pendingInstr_;
    pendingInstr_ = 0;
    co_await run_.cpu.consume(work);
}

Task<bool>
TxnCtx::lockRow(const Database::Table &t, RowId r, LockMode mode)
{
    co_await flushCpu();
    co_return co_await run_.locks.acquire(id_, t.id, r, mode,
                                          &run_.waits);
}

void
TxnCtx::touchRow(const Database::Table &t, RowId r)
{
    if (t.rowStore)
        run_.feed.touch(t.rowStore->cacheAddrOfRow(r));
}

Task<bool>
TxnCtx::seekRow(Database::Table &t, const std::string &index_col,
                int64_t key, LockMode mode, RowId *out)
{
    BTree *tree = t.indexOn(index_col);
    if (!tree)
        panic("seekRow: no index on " + t.name + "." + index_col);

    charge(oltpcost::kIndexSeekInstr);
    std::vector<PageId> path;
    const RowId r = tree->seek(key, &path);
    *out = r;
    if (r == kInvalidRow)
        co_return false;

    // Cache touches for the index walk (full-scale levels).
    const uint64_t span = std::max<uint64_t>(tree->entryCount(), 1);
    std::vector<uint64_t> addrs;
    tree->cacheTouches(double(uint64_t(key) % span) / double(span),
                       addrs);
    for (uint64_t a : addrs)
        run_.feed.touch(a);

    // Fix index pages (I/O if cold), then lock the row, then its page.
    if (run_.sketch)
        run_.sketch->noteRowAccess(uint64_t(t.id), uint64_t(r));
    co_await flushCpu();
    for (PageId p : path)
        co_await run_.pool.fix(p, &run_.waits);
    if (!co_await run_.locks.acquire(id_, t.id, r, mode, &run_.waits))
        co_return false;
    co_await readRow(t, r);
    co_return true;
}

Task<void>
TxnCtx::readRow(Database::Table &t, RowId r)
{
    charge(oltpcost::kRowReadInstr);
    touchRow(t, r);
    if (t.rowStore) {
        const PageId p = t.rowStore->pageOfRow(r);
        if (run_.sketch)
            run_.sketch->notePageAccess(uint64_t(p));
        co_await flushCpu();
        co_await run_.pool.fix(p, &run_.waits);
    }
}

Task<uint64_t>
TxnCtx::scanIndexRange(Database::Table &t, const std::string &index_col,
                       int64_t lo, int64_t hi, uint64_t max_rows)
{
    BTree *tree = t.indexOn(index_col);
    if (!tree)
        panic("scanIndexRange: no index on " + t.name + "." + index_col);

    std::vector<PageId> pages;
    std::vector<RowId> rows;
    tree->scanRange(lo, hi,
                    [&](int64_t, RowId r) {
                        rows.push_back(r);
                        return rows.size() < max_rows;
                    },
                    &pages);
    charge(oltpcost::kIndexSeekInstr +
           oltpcost::kRangeRowInstr * double(rows.size()));
    for (size_t i = 0; i < rows.size(); i += 4)
        touchRow(t, rows[i]);
    co_await flushCpu();
    for (PageId p : pages)
        co_await run_.pool.fix(p, &run_.waits);
    // Fix the row pages (distinct pages only).
    if (t.rowStore) {
        PageId last = kInvalidPage;
        for (RowId r : rows) {
            const PageId p = t.rowStore->pageOfRow(r);
            if (p != last)
                co_await run_.pool.fix(p, &run_.waits);
            last = p;
        }
    }
    co_return rows.size();
}

Task<void>
TxnCtx::updateRow(Database::Table &t, RowId r, const std::string &column,
                  const Value &v)
{
    charge(oltpcost::kRowUpdateInstr);
    touchRow(t, r);
    if (run_.wal.capturing()) {
        WalRecord rec;
        rec.kind = WalRecord::Kind::Update;
        rec.txn = id_;
        rec.table = t.name;
        rec.row = r;
        rec.column = column;
        rec.before = t.data->column(column).get(r);
        rec.after = v;
        captured_.push_back(rec);
        run_.wal.log(std::move(rec));
    }
    // The logical content change is atomic with its log record: a
    // logged record of a still-active transaction must always be
    // applied, or a run that ends with this coroutine suspended below
    // leaves a record the replay oracle cannot classify. The awaits
    // that follow model only the timing of the page fix and latch.
    t.data->column(column).set(r, v);
    if (run_.sketch)
        run_.sketch->noteRowAccess(uint64_t(t.id), uint64_t(r));
    if (t.rowStore) {
        const PageId p = t.rowStore->pageOfRow(r);
        if (run_.sketch)
            run_.sketch->notePageAccess(uint64_t(p));
        co_await flushCpu();
        co_await run_.pool.fix(p, &run_.waits);
        SimMutex &latch = run_.latches.latchFor(p);
        co_await latch.acquire(run_.loop, &run_.waits,
                               WaitClass::PageLatch);
        run_.pool.markDirty(p);
        // The page modification occupies the latch for a short burst;
        // without simulated hold time latches could never contend.
        co_await run_.cpu.consume(CpuWork{kLatchHoldNs, 0, 0, kTenantOltp});
        latch.release(run_.loop);
    }
    logLsn_ = run_.wal.append(oltpcost::kLogBytesRowUpdate);
}

Task<RowId>
TxnCtx::insertRow(Database::Table &t, const std::vector<Value> &row)
{
    charge(oltpcost::kRowInsertInstr +
           3000.0 * double(t.indexes().size()));
    std::vector<PageId> dirtied;
    // The insert lands on the tail page: latch it (hot-page
    // contention) around the actual append.
    PageId tail = kInvalidPage;
    if (t.rowStore && t.data->rowCount() > 0)
        tail = t.rowStore->pageOfRow(t.data->rowCount() - 1);
    co_await flushCpu();
    if (tail != kInvalidPage)
        co_await run_.pool.fix(tail, &run_.waits);
    SimMutex &latch = run_.latches.latchFor(
        tail == kInvalidPage ? PageId(t.id) : tail);
    co_await latch.acquire(run_.loop, &run_.waits,
                           WaitClass::PageLatch);
    const RowId r = t.insertRow(row, &dirtied);
    if (run_.wal.capturing()) {
        WalRecord rec;
        rec.kind = WalRecord::Kind::Insert;
        rec.txn = id_;
        rec.table = t.name;
        rec.row = r;
        rec.rowImage = row;
        captured_.push_back(rec);
        run_.wal.log(std::move(rec));
        // X-lock the fresh row so no other transaction can read or
        // update the uncommitted insert (a dirty write would break
        // the serializability the verify oracle checks). The RowId is
        // brand new, so the grant is immediate: Task's symmetric
        // transfer resumes us inline with zero simulated delay.
        co_await run_.locks.acquire(id_, t.id, r, LockMode::X, nullptr);
    }
    // Slot allocation + row copy occupy the latch (see updateRow).
    co_await run_.cpu.consume(CpuWork{kLatchHoldNs, 0, 0, kTenantOltp});
    latch.release(run_.loop);

    touchRow(t, r);
    for (PageId p : dirtied) {
        co_await run_.pool.fix(p, &run_.waits);
        run_.pool.markDirty(p);
    }
    logLsn_ = run_.wal.append(
        oltpcost::kLogBytesRowInsert +
        uint64_t(t.data->schema().rowWidth()));
    co_return r;
}

Task<void>
TxnCtx::deleteRow(Database::Table &t, RowId r)
{
    charge(oltpcost::kRowDeleteInstr);
    touchRow(t, r);
    std::vector<PageId> dirtied;
    if (t.rowStore) {
        const PageId p = t.rowStore->pageOfRow(r);
        co_await flushCpu();
        co_await run_.pool.fix(p, &run_.waits);
    }
    if (run_.wal.capturing()) {
        WalRecord rec;
        rec.kind = WalRecord::Kind::Delete;
        rec.txn = id_;
        rec.table = t.name;
        rec.row = r;
        rec.rowImage = t.data->getRow(r);
        captured_.push_back(rec);
        run_.wal.log(std::move(rec));
    }
    t.deleteRow(r, &dirtied);
    for (PageId p : dirtied) {
        co_await run_.pool.fix(p, &run_.waits);
        run_.pool.markDirty(p);
    }
    logLsn_ = run_.wal.append(oltpcost::kLogBytesRowUpdate);
}

Task<bool>
TxnCtx::commit()
{
    if (finished_)
        panic("commit on finished transaction");
    finished_ = true;
    charge(oltpcost::kTxnOverheadInstr * 0.5);
    co_await flushCpu();
    if (run_.wal.capturing() && !captured_.empty()) {
        // Commit record: its durability at the crash LSN decides
        // winner vs loser during recovery.
        logLsn_ = run_.wal.append(0);
        WalRecord rec;
        rec.kind = WalRecord::Kind::Commit;
        rec.txn = id_;
        run_.wal.log(std::move(rec));
    }
    if (logLsn_ > 0)
        co_await run_.wal.commit(logLsn_, &run_.waits);
    // History commit marker at durable-ack time, while locks are
    // still held: marker order is a valid serialization order.
    if (!captured_.empty())
        run_.wal.noteDurableCommit(id_);
    run_.locks.releaseAll(id_);
    run_.noteTxnEnd(id_);
    ++run_.txnsCommitted;
    if (run_.obs)
        run_.obs->recordLatency(kTenantOltp,
                                run_.loop.now() - begin_);
    if (run_.sketch)
        run_.sketch->noteLatency(kTenantOltp,
                                 double(run_.loop.now() - begin_) *
                                     1e-6);
    co_return true;
}

Task<bool>
TxnCtx::prepare(uint64_t gtid)
{
    if (finished_)
        panic("prepare on finished transaction");
    charge(oltpcost::kTxnOverheadInstr * 0.25);
    co_await flushCpu();
    if (run_.wal.capturing()) {
        logLsn_ = run_.wal.append(oltpcost::kLogBytesPrepare);
        WalRecord rec;
        rec.kind = WalRecord::Kind::Prepare;
        rec.txn = id_;
        rec.gtid = gtid;
        run_.wal.log(std::move(rec));
    }
    // The vote is only safe to send once the Prepare record is
    // durable: an unlogged "yes" could be forgotten by a crash.
    if (logLsn_ > 0)
        co_await run_.wal.commit(logLsn_, &run_.waits);
    co_return true;
}

Task<void>
TxnCtx::rollback()
{
    if (finished_)
        co_return;
    finished_ = true;
    co_await flushCpu();
    if (run_.wal.capturing() && !captured_.empty()) {
        // Fault mode makes aborts functionally real: apply the
        // before-images in reverse, then log the abort so recovery
        // knows the undo already happened.
        for (auto it = captured_.rbegin(); it != captured_.rend(); ++it)
            applyUndo(run_.db(), *it);
        run_.wal.append(0);
        WalRecord rec;
        rec.kind = WalRecord::Kind::Abort;
        rec.txn = id_;
        run_.wal.log(std::move(rec));
    }
    run_.locks.releaseAll(id_);
    run_.noteTxnEnd(id_);
    ++run_.txnsAborted;
}

} // namespace dbsens
