/**
 * @file
 * TxnCtx: the OLTP transaction API that workload sessions compose.
 * Each primitive does the functional work (B-tree seeks, real row
 * reads/writes), charges CPU (instructions + sampled cache misses),
 * acquires locks and latches, and fixes buffer pages (issuing SSD
 * reads on misses) — all in simulated time via co_await.
 *
 * Usage pattern inside a session coroutine:
 *
 *   TxnCtx txn(run, nextTxnId());
 *   RowId r;
 *   if (!co_await txn.seekRow(tbl, "t_id", key, LockMode::U, &r))
 *       { co_await txn.rollback(); ... retry ... }
 *   co_await txn.updateRow(tbl, r, "t_price", Value(9.99));
 *   const bool ok = co_await txn.commit();
 */

#ifndef DBSENS_ENGINE_TXN_CTX_H
#define DBSENS_ENGINE_TXN_CTX_H

#include <functional>

#include "engine/sim_run.h"

namespace dbsens {

/** Per-operation instruction estimates for the OLTP path. */
namespace oltpcost {

inline constexpr double kTxnOverheadInstr = 1.2e6; ///< begin+commit
inline constexpr double kIndexSeekInstr = 80000;
inline constexpr double kRowReadInstr = 30000;
inline constexpr double kRowUpdateInstr = 100000;
inline constexpr double kRowInsertInstr = 200000; ///< + index upkeep
inline constexpr double kRowDeleteInstr = 120000;
inline constexpr double kRangeRowInstr = 6000;
inline constexpr uint64_t kLogBytesRowUpdate = 220;
inline constexpr uint64_t kLogBytesRowInsert = 320;
inline constexpr uint64_t kLogBytesPrepare = 96;

} // namespace oltpcost

/** One transaction's execution context. */
class TxnCtx
{
  public:
    TxnCtx(SimRun &run, TxnId id);

    TxnId id() const { return id_; }

    /** Accumulate CPU work (flushed at the next blocking point). */
    void charge(double instructions);

    /** Spend accumulated CPU on a core (blocks for the burst). */
    Task<void> flushCpu();

    /** Acquire a row lock; false means timeout (caller aborts). */
    Task<bool> lockRow(const Database::Table &t, RowId r, LockMode mode);

    /**
     * Seek a unique key in a B-tree index, lock the row, and fix its
     * page. Returns false (with *out = kInvalidRow) on key absence;
     * returns false with *out set on lock timeout.
     */
    Task<bool> seekRow(Database::Table &t, const std::string &index_col,
                       int64_t key, LockMode mode, RowId *out);

    /** Read a row's page + cache footprint (row already locked). */
    Task<void> readRow(Database::Table &t, RowId r);

    /**
     * Range scan an index, visiting up to `max_rows` entries; rows
     * are read (S-locked at the range level via the table lock).
     */
    Task<uint64_t> scanIndexRange(Database::Table &t,
                                  const std::string &index_col,
                                  int64_t lo, int64_t hi,
                                  uint64_t max_rows);

    /** Update one column of a row (X lock must be held). */
    Task<void> updateRow(Database::Table &t, RowId r,
                         const std::string &column, const Value &v);

    /** Insert a row (takes the tail-page latch; appends to WAL). */
    Task<RowId> insertRow(Database::Table &t,
                          const std::vector<Value> &row);

    /** Delete a row (X lock must be held). */
    Task<void> deleteRow(Database::Table &t, RowId r);

    /** Commit: flush CPU, harden the log, release locks. */
    Task<bool> commit();

    /** Abort: release locks, count the abort. */
    Task<void> rollback();

    /**
     * 2PC phase one (participant side): harden a Prepare record
     * carrying the global transaction id, keeping every lock. After
     * this returns the branch is in-doubt until commit() or
     * rollback() applies the coordinator's decision — crash recovery
     * holds it rather than undoing it (see engine/recovery.h).
     */
    Task<bool> prepare(uint64_t gtid);

  private:
    /** Cache touches for one row access (row + index levels). */
    void touchRow(const Database::Table &t, RowId r);

    SimRun &run_;
    TxnId id_;
    SimTime begin_ = 0; ///< start time (SLO latency accounting)
    double pendingInstr_ = 0;
    uint64_t missMark_ = 0;
    uint64_t logLsn_ = 0;
    bool finished_ = false;
    /**
     * Local copies of this transaction's logical WAL records, kept
     * only while the WAL is capturing (crash–recovery runs). Rollback
     * applies their before-images in reverse, making aborts
     * functionally real in fault mode.
     */
    std::vector<WalRecord> captured_;
};

} // namespace dbsens

#endif // DBSENS_ENGINE_TXN_CTX_H
