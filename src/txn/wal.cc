#include "txn/wal.h"

#include <algorithm>
#include <unordered_map>

#include "core/trace.h"
#include "sim/fault.h"

namespace dbsens {

void
WalJournal::checkpoint(uint64_t lsn, const std::vector<TxnId> &active)
{
    checkpointLsn_ = lsn;
    ++checkpointCount_;

    std::unordered_set<TxnId> keep(active.begin(), active.end());
    // A transaction resolved above the horizon might still need undo
    // (its commit record may not be durable at a future crash), so
    // only drop transactions fully resolved at or below it.
    std::unordered_set<TxnId> resolved_below;
    for (const WalRecord &r : records_) {
        if ((r.kind == WalRecord::Kind::Commit ||
             r.kind == WalRecord::Kind::Abort) &&
            r.lsn <= lsn && keep.find(r.txn) == keep.end())
            resolved_below.insert(r.txn);
    }
    records_.erase(
        std::remove_if(records_.begin(), records_.end(),
                       [&](const WalRecord &r) {
                           return r.kind != WalRecord::Kind::Checkpoint &&
                                  resolved_below.count(r.txn) > 0;
                       }),
        records_.end());
}

namespace {

/** Parks the flusher until new commits arrive. */
struct FlusherPark
{
    bool *parked;
    std::coroutine_handle<> *slot;

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        *parked = true;
        *slot = h;
    }

    void await_resume() const noexcept {}
};

} // namespace

WalWriter::WalWriter(EventLoop &loop, SsdModel &ssd)
    : loop_(loop), ssd_(ssd)
{
    loop_.spawn(flusherLoop());
}

uint64_t
WalWriter::append(uint64_t payload_bytes)
{
    appendedLsn_ += payload_bytes + kRecordHeader;
    return appendedLsn_;
}

void
WalWriter::log(WalRecord r)
{
    if (!journal_ && !history_)
        return;
    r.lsn = appendedLsn_;
    // The history mirrors data records and aborts; commit markers are
    // appended separately at durable-ack time (noteDurableCommit), and
    // checkpoints never matter for replay since the history is not
    // truncated.
    if (history_ && r.kind != WalRecord::Kind::Commit &&
        r.kind != WalRecord::Kind::Checkpoint)
        history_->append(r);
    if (journal_)
        journal_->append(std::move(r));
}

void
WalWriter::logJournalOnly(WalRecord r)
{
    if (!journal_)
        return;
    r.lsn = appendedLsn_;
    journal_->append(std::move(r));
}

void
WalWriter::noteDurableCommit(TxnId txn)
{
    if (!history_)
        return;
    WalRecord rec;
    rec.kind = WalRecord::Kind::Commit;
    rec.txn = txn;
    rec.lsn = flushedLsn_;
    history_->append(std::move(rec));
}

void
WalWriter::fuzzyCheckpoint(const std::vector<TxnId> &active)
{
    if (!journal_)
        return;
    append(kCheckpointRecordBytes);
    WalRecord rec;
    rec.kind = WalRecord::Kind::Checkpoint;
    log(std::move(rec));
    // The horizon is the durable LSN: redo below it is covered by the
    // background writer having flushed the corresponding pages.
    journal_->checkpoint(flushedLsn_, active);
    if (faults_)
        faults_->noteCheckpoint();
}

Task<void>
WalWriter::commit(uint64_t lsn, WaitStats *stats)
{
    if (lsn <= flushedLsn_)
        co_return;
    const SimTime start = loop_.now();
    // Register as a waiter and kick the flusher if parked.
    struct Park
    {
        WalWriter *wal;
        uint64_t lsn;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            wal->waiters_.push_back({lsn, h});
            if (wal->flusherParked_) {
                wal->flusherParked_ = false;
                wal->loop_.post(wal->flusherHandle_);
            }
        }

        void await_resume() const noexcept {}
    };
    co_await Park{this, lsn};
    if (stats)
        stats->add(WaitClass::WriteLog, loop_.now() - start);
    if (auto *tr = TraceRecorder::active())
        tr->complete(TraceRecorder::kEngineTrack, "wait",
                     waitClassName(WaitClass::WriteLog), start,
                     loop_.now(), "lsn", double(lsn));
}

Task<void>
WalWriter::flusherLoop()
{
    for (;;) {
        if (appendedLsn_ <= flushedLsn_ && waiters_.empty()) {
            co_await FlusherPark{&flusherParked_, &flusherHandle_};
            continue;
        }
        if (appendedLsn_ > flushedLsn_) {
            const uint64_t batch_end = appendedLsn_;
            const uint64_t bytes =
                batch_end - flushedLsn_ + kFlushOverhead;
            const SimTime start = loop_.now();
            co_await ssd_.write(bytes);
            flushedLsn_ = batch_end;
            ++flushCount_;
            if (auto *tr = TraceRecorder::active())
                tr->complete(TraceRecorder::kEngineTrack, "wal",
                             "wal.flush", start, loop_.now(), "bytes",
                             double(bytes));
        }
        // Release everyone whose LSN is now durable.
        auto it = std::partition(waiters_.begin(), waiters_.end(),
                                 [this](const CommitWaiter &w) {
                                     return w.lsn > flushedLsn_;
                                 });
        std::vector<CommitWaiter> ready(it, waiters_.end());
        waiters_.erase(it, waiters_.end());
        for (auto &w : ready)
            loop_.post(w.handle);
    }
}

} // namespace dbsens
