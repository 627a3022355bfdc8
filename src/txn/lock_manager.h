/**
 * @file
 * Multi-mode lock manager (strict two-phase locking).
 *
 * Supports intent (IS/IX) table locks and shared/update/exclusive
 * (S/U/X) row locks with the standard compatibility matrix and FIFO
 * waiting without barging (except lock upgrades). Wait times are
 * charged to WaitClass::Lock, which is what the paper's Table 3
 * reports as LOCK waits.
 *
 * Deadlock resolution is policy-selectable (RunConfig):
 *
 *  - TimeoutOnly: every waiter arms a timer; a waiter still queued
 *    when it fires is aborted as a timeout victim (the seed
 *    behaviour).
 *  - Detector: a periodic waits-for-graph cycle search (SQL Server's
 *    lock-monitor shape) victimizes one member per cycle — the
 *    cheapest to roll back (fewest held locks, then youngest). The
 *    timeout stays armed as a fallback for waits the detector cannot
 *    resolve (e.g. a victim whose blocker never releases).
 *
 * The two resolution paths are counted separately (`locks.timeouts`
 * vs `locks.deadlocks`), and a detected victim's blocked time is
 * charged to WaitClass::Deadlock instead of WaitClass::Lock.
 */

#ifndef DBSENS_TXN_LOCK_MANAGER_H
#define DBSENS_TXN_LOCK_MANAGER_H

#include <coroutine>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "core/stats.h"
#include "core/types.h"
#include "sim/event_loop.h"
#include "sim/task.h"
#include "txn/wait_stats.h"

namespace dbsens {

/** Lock modes, weakest to strongest. */
enum class LockMode : uint8_t { IS, IX, S, U, X };

const char *lockModeName(LockMode m);

/** True if a held lock of mode `held` admits a request of `req`. */
bool lockCompatible(LockMode held, LockMode req);

/** How lock-wait cycles are broken (RunConfig::deadlockPolicy). */
enum class DeadlockPolicy : uint8_t {
    TimeoutOnly, ///< timers only (seed behaviour)
    Detector,    ///< periodic waits-for cycle search + timer fallback
};

/** Lock manager with per-resource FIFO queues. */
class LockManager
{
  public:
    explicit LockManager(EventLoop &loop) : loop_(loop) {}

    /** Default wait budget before declaring deadlock-ish timeout. */
    static constexpr SimDuration kDefaultLockTimeout = milliseconds(50);

    /** Configure the wait budget (RunConfig::lockTimeout). */
    void setTimeout(SimDuration t) { timeout_ = t; }
    SimDuration timeout() const { return timeout_; }

    /**
     * Acquire a lock on (table, row); row == kInvalidRow addresses
     * the table itself. Returns false on timeout or deadlock
     * victimization (caller aborts and retries the transaction). A
     * transaction already holding the resource in a weaker mode
     * upgrades in place when compatible.
     */
    Task<bool> acquire(TxnId txn, TableId table, RowId row, LockMode mode,
                       WaitStats *stats);

    /** Release every lock held by `txn` (commit/abort). */
    void releaseAll(TxnId txn);

    /** Locks currently held by `txn` (testing / victim cost). */
    size_t heldCount(TxnId txn) const;

    /**
     * One waits-for-graph pass: build blocked-by edges (waiter ->
     * incompatible holders and waiter -> earlier waiters in the same
     * FIFO queue — both genuinely block it), find cycles, and abort
     * one victim per cycle until the graph is acyclic. Victims resume
     * immediately with failure, without waiting for their timers.
     * Returns the number of victims aborted.
     */
    size_t detectDeadlocks();

    /** Total timeouts observed (fallback deadlock resolution). */
    uint64_t timeouts() const { return timeouts_; }

    /** Waiters aborted by the waits-for-graph detector. */
    uint64_t deadlocks() const { return deadlocks_; }

    /** Total lock acquisitions granted. */
    uint64_t grants() const { return grants_; }

    /** Register gauges under `prefix` (e.g. "locks"). */
    void
    registerStats(StatsRegistry &reg, const std::string &prefix) const
    {
        reg.gauge(prefix + ".grants", [this] { return double(grants_); },
                  "lock acquisitions granted");
        reg.gauge(prefix + ".timeouts",
                  [this] { return double(timeouts_); },
                  "deadlock-resolution timeouts");
        reg.gauge(prefix + ".deadlocks",
                  [this] { return double(deadlocks_); },
                  "waits-for-graph deadlock victims");
        reg.gauge(prefix + ".queues",
                  [this] { return double(queues_.size()); },
                  "resources with holders or waiters");
    }

    // ----- consistency-audit views (src/verify): read-only summaries
    // ----- of the internal tables, so auditors can cross-check them.

    /** Transactions currently holding at least one lock. */
    std::vector<TxnId> holdingTxns() const;

    /** Transactions currently parked in some wait queue. */
    std::vector<TxnId> waitingTxns() const;

    /** Resources with a non-empty holder or waiter list. */
    size_t queueCount() const { return queues_.size(); }

    /**
     * Internal cross-consistency check: every holder entry appears in
     * the per-txn held index and vice versa, no queue is empty yet
     * retained, and no waiter is marked granted. Returns true when
     * consistent; appends a description to `err` otherwise.
     */
    bool auditConsistent(std::string *err) const;

    /** Wait-queue entry (public for the internal park awaitable). */
    struct Waiter
    {
        TxnId txn;
        LockMode mode;
        /** Unique id: timeout events must not identify waiters by
         * pointer, since a freed entry's address can be reused. */
        uint64_t id;
        std::coroutine_handle<> handle;
        bool granted = false;
        bool timedOut = false;
        /** Aborted by the waits-for-graph detector. */
        bool deadlockVictim = false;
    };

  private:
    struct Holder
    {
        TxnId txn;
        LockMode mode;
    };

    struct Queue
    {
        std::vector<Holder> holders;
        std::deque<Waiter *> waiters;
    };

    static uint64_t
    keyOf(TableId table, RowId row)
    {
        return (uint64_t(table) << 48) ^ (row + 1);
    }

    /** Grant check against holders (ignoring `txn`'s own holds). */
    bool compatibleWithHolders(const Queue &q, TxnId txn,
                               LockMode mode) const;

    /** Wake any now-grantable waiters at the queue head. */
    void pump(uint64_t key, Queue &q);

    EventLoop &loop_;
    std::unordered_map<uint64_t, Queue> queues_;
    std::unordered_map<TxnId, std::vector<uint64_t>> held_;
    SimDuration timeout_ = kDefaultLockTimeout;
    uint64_t timeouts_ = 0;
    uint64_t deadlocks_ = 0;
    uint64_t grants_ = 0;
    uint64_t nextWaiterId_ = 0;
};

} // namespace dbsens

#endif // DBSENS_TXN_LOCK_MANAGER_H
