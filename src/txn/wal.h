/**
 * @file
 * Write-ahead log writer with group commit.
 *
 * Transactions append log records during execution; commit() forces
 * the log up to the transaction's LSN and waits for the flush
 * (WRITELOG wait). A background flusher batches pending bytes into
 * single SSD writes, so concurrent commits share flushes (group
 * commit). Throttling the SSD write bandwidth therefore directly
 * lengthens commit latency — the paper's ASDB write-limit result
 * (Section 6: -6% at 100 MB/s, -44% at 50 MB/s).
 */

#ifndef DBSENS_TXN_WAL_H
#define DBSENS_TXN_WAL_H

#include <coroutine>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "catalog/value.h"
#include "core/stats.h"
#include "core/types.h"
#include "sim/event_loop.h"
#include "sim/ssd_model.h"
#include "sim/task.h"
#include "sim/wait_stats.h"

namespace dbsens {

class FaultInjector;

/**
 * One logical WAL record with before/after images, captured only when
 * a journal is attached (crash–recovery runs). The byte-accounting
 * WAL (append/commit below) is unchanged; the journal is the logical
 * content recovery replays.
 */
struct WalRecord
{
    enum class Kind : uint8_t {
        Update,     ///< single-column update (before/after images)
        Insert,     ///< row insert (rowImage = after)
        Delete,     ///< row delete (rowImage = before)
        Commit,     ///< transaction commit marker
        Abort,      ///< transaction abort marker (undo already applied)
        Checkpoint, ///< fuzzy checkpoint marker
        Prepare,    ///< 2PC participant prepared; in-doubt until decided
        Decision,   ///< 2PC coordinator decision (presumed abort: only
                    ///< commit decisions are ever logged)
    };

    Kind kind = Kind::Commit;
    TxnId txn = 0;
    /** End-of-log LSN when the record was appended. */
    uint64_t lsn = 0;
    std::string table;
    RowId row = kInvalidRow;
    std::string column;          ///< Update only
    Value before;                ///< Update before-image
    Value after;                 ///< Update after-image
    std::vector<Value> rowImage; ///< Insert after / Delete before;
                                 ///< Decision: participant node ids
    /** Global transaction id (Prepare/Decision records only). */
    uint64_t gtid = 0;
};

/**
 * In-"stable-storage" logical journal. Owned by the harness (outside
 * SimRun) so it survives an injected crash; recovery replays it.
 */
class WalJournal
{
  public:
    void append(WalRecord r) { records_.push_back(std::move(r)); }

    const std::vector<WalRecord> &records() const { return records_; }
    size_t recordCount() const { return records_.size(); }
    uint64_t checkpointLsn() const { return checkpointLsn_; }
    uint64_t checkpointCount() const { return checkpointCount_; }

    /**
     * Fuzzy checkpoint at durable horizon `lsn`: records of
     * transactions fully resolved (committed/aborted) at or below the
     * horizon can never be needed again — redo is bounded by the
     * checkpoint and undo only needs unresolved transactions — so
     * they are truncated. Records of `active` transactions are kept
     * in full for undo.
     */
    void checkpoint(uint64_t lsn, const std::vector<TxnId> &active);

    /** Reset after a successful recovery (log truncation). */
    void
    clear()
    {
        records_.clear();
        checkpointLsn_ = 0;
    }

  private:
    std::vector<WalRecord> records_;
    uint64_t checkpointLsn_ = 0;
    uint64_t checkpointCount_ = 0;
};

/**
 * Append-only record of every data mutation and commit marker, in the
 * order the engine produced them. Unlike WalJournal it is never
 * truncated by checkpoints, so the serializability oracle
 * (src/verify) can replay the complete committed history of a run.
 * Commit markers are appended only once the commit is durably acked
 * (WalWriter::noteDurableCommit), so marker order is the order
 * transactions released their locks under strict 2PL.
 */
class WalHistory
{
  public:
    void append(WalRecord r) { records_.push_back(std::move(r)); }

    const std::vector<WalRecord> &records() const { return records_; }
    size_t recordCount() const { return records_.size(); }

    void clear() { records_.clear(); }

  private:
    std::vector<WalRecord> records_;
};

/** Group-commit WAL writer. */
class WalWriter
{
  public:
    /** Per-record header bytes added to appended payloads. */
    static constexpr uint64_t kRecordHeader = 64;

    /** Fixed per-flush overhead (sector padding). */
    static constexpr uint64_t kFlushOverhead = 512;

    /** Payload bytes of a checkpoint record. */
    static constexpr uint64_t kCheckpointRecordBytes = 128;

    WalWriter(EventLoop &loop, SsdModel &ssd);

    /** Append a log record of `payload_bytes`; returns its LSN. */
    uint64_t append(uint64_t payload_bytes);

    /**
     * Attach a logical journal: subsequent log() calls capture
     * records into it (crash–recovery runs only; null detaches).
     */
    void attachJournal(WalJournal *j) { journal_ = j; }

    /**
     * Attach a full-history sink: data records and abort markers are
     * mirrored into it, and noteDurableCommit() appends commit
     * markers. Used by the verification oracle (null detaches).
     */
    void attachHistory(WalHistory *h) { history_ = h; }

    /** True when logical records are being captured. */
    bool capturing() const
    {
        return journal_ != nullptr || history_ != nullptr;
    }

    WalJournal *journal() { return journal_; }

    WalHistory *history() { return history_; }

    /** Optional fault-counter sink for checkpoint accounting. */
    void setFaultInjector(FaultInjector *f) { faults_ = f; }

    /**
     * Capture a logical record (no-op without a journal). Stamps the
     * record with the current end-of-log LSN; callers append() the
     * physical bytes separately, as before.
     */
    void log(WalRecord r);

    /**
     * Capture a logical record into the journal only, bypassing the
     * history. Used when a recovered node re-hardens in-doubt records
     * and decision-log entries into its fresh log: the history already
     * holds them from the original execution, and a second copy would
     * double-apply in the oracle replay.
     */
    void logJournalOnly(WalRecord r);

    /**
     * Continue a predecessor incarnation's LSN space: a cluster node's
     * journal spans crash restarts, so LSN comparisons (checkpoint
     * truncation, recovery horizons) must stay monotonic across them.
     */
    void setLsnBase(uint64_t lsn) { appendedLsn_ = flushedLsn_ = lsn; }

    /**
     * Append a commit marker to the attached history (no-op without
     * one). Called after the commit's flush wait completes, while the
     * transaction still holds its locks, so marker order respects
     * conflict order under strict 2PL.
     */
    void noteDurableCommit(TxnId txn);

    /**
     * Fuzzy checkpoint: append a checkpoint record, mark the durable
     * horizon in the journal, and truncate records recovery can never
     * need. `active` lists transactions still in flight.
     */
    void fuzzyCheckpoint(const std::vector<TxnId> &active);

    /**
     * Harden the log through `lsn` (typically the txn's last append).
     * Charges WaitClass::WriteLog for the flush wait.
     */
    Task<void> commit(uint64_t lsn, WaitStats *stats);

    /** Bytes appended so far (the current end-of-log LSN). */
    uint64_t appendedLsn() const { return appendedLsn_; }

    /** Bytes durably flushed. */
    uint64_t flushedLsn() const { return flushedLsn_; }

    /** Number of physical flush I/Os issued (group-commit batches). */
    uint64_t flushCount() const { return flushCount_; }

    /** Register gauges under `prefix` (e.g. "wal"). */
    void
    registerStats(StatsRegistry &reg, const std::string &prefix) const
    {
        reg.gauge(prefix + ".appended_bytes",
                  [this] { return double(appendedLsn_); },
                  "end-of-log LSN");
        reg.gauge(prefix + ".flushed_bytes",
                  [this] { return double(flushedLsn_); },
                  "durably flushed LSN");
        reg.gauge(prefix + ".flushes",
                  [this] { return double(flushCount_); },
                  "group-commit flush I/Os");
        reg.gauge(prefix + ".commit_waiters",
                  [this] { return double(waiters_.size()); },
                  "commits waiting on a flush");
    }

  private:
    struct CommitWaiter
    {
        uint64_t lsn;
        std::coroutine_handle<> handle;
    };

    Task<void> flusherLoop();

    EventLoop &loop_;
    SsdModel &ssd_;
    WalJournal *journal_ = nullptr;
    WalHistory *history_ = nullptr;
    FaultInjector *faults_ = nullptr;
    uint64_t appendedLsn_ = 0;
    uint64_t flushedLsn_ = 0;
    uint64_t flushCount_ = 0;
    bool flusherParked_ = false;
    std::coroutine_handle<> flusherHandle_;
    std::vector<CommitWaiter> waiters_;
};

} // namespace dbsens

#endif // DBSENS_TXN_WAL_H
