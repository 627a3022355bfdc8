/**
 * @file
 * Workload driver interface: a workload generates its database and
 * spawns client sessions into a SimRun. The harness owns the sweep
 * loop (regenerate DB -> configure run -> start sessions -> sample).
 */

#ifndef DBSENS_WORKLOADS_WORKLOAD_H
#define DBSENS_WORKLOADS_WORKLOAD_H

#include <memory>
#include <string>

#include "core/backoff.h"
#include "core/random.h"
#include "engine/sim_run.h"
#include "engine/txn_ctx.h"

namespace dbsens {

/** An OLTP (or hybrid) workload driver. */
class OltpWorkload
{
  public:
    virtual ~OltpWorkload() = default;

    /** Display name, e.g. "TPC-E" / "ASDB" / "HTAP". */
    virtual std::string name() const = 0;

    /** Paper scale factor. */
    virtual int scaleFactor() const = 0;

    /** Generate a fresh database (runs mutate data, so one per run). */
    virtual std::unique_ptr<Database> generate(uint64_t seed) const = 0;

    /** Number of concurrent client sessions (paper Section 3). */
    virtual int sessionCount() const = 0;

    /**
     * Sessions belonging to one tenant class (tune/tune.h numbering:
     * 0 = OLTP, 1 = OLAP). Pure OLTP workloads put every session on
     * tenant 0; hybrid workloads override. Drives the blame ledger's
     * makespan (sessions x window) when observability is enabled.
     */
    virtual int
    tenantSessions(int tenant) const
    {
        return tenant == 0 ? sessionCount() : 0;
    }

    /** Spawn all sessions into the run. */
    virtual void startSessions(SimRun &run, Database &db,
                               uint64_t seed) = 0;
};

/**
 * Make an OLTP workload by name ("TPC-E", "ASDB", "HTAP") at scale
 * factor `sf`; null for an unknown name.
 */
std::unique_ptr<OltpWorkload> makeOltpWorkload(const std::string &name,
                                               int sf);

/** Back-off delay before retrying an aborted transaction. */
inline SimDuration
retryBackoff(Rng &rng)
{
    return microseconds(int64_t(100 + rng.uniform(900)));
}

/** Base and cap of the lock-timeout victim retry backoff. */
constexpr SimDuration kTxnRetryBackoffBase = microseconds(200);
constexpr SimDuration kTxnRetryBackoffCap = milliseconds(8);

/**
 * Back-off before the `attempt`-th retry of a lock-timeout victim:
 * capped exponential from kTxnRetryBackoffBase to kTxnRetryBackoffCap
 * plus seeded jitter (up to half the deterministic delay).
 * attempt >= 1.
 */
inline SimDuration
victimRetryBackoff(Rng &rng, int attempt)
{
    return cappedExpBackoff(kTxnRetryBackoffBase, kTxnRetryBackoffCap,
                            attempt, rng);
}

/**
 * One OLTP client session loop, shared by the transactional
 * workloads. Each pass first clears resilience admission: at the
 * admission rung a transaction is deferred (not dropped) with a
 * deterministic capped-exponential backoff, and OLTP-priority
 * bypasses the bucket. It then draws one op with `pick(rng)` and runs
 * `attempt(tx, op)` (a `Task<bool>`; false on a lock timeout or an
 * absent key) in a fresh transaction. A failed attempt is retried up
 * to `txnRetryLimit` times with capped exponential backoff before the
 * session gives up on it. `attempt` draws from the same `rng`, so the
 * draw order per pass is pick, attempt, backoff.
 */
template <typename Pick, typename Attempt>
Task<void>
oltpSession(SimRun &run, Rng &rng, Pick pick, Attempt attempt)
{
    int admit_streak = 0;
    while (run.running()) {
        if (run.resil && !run.resil->admitWork(kTenantOltp)) {
            co_await SimDelay(
                run.loop, run.resil->admitRetryDelay(++admit_streak));
            continue;
        }
        admit_streak = 0;
        const auto op = pick(rng);
        for (int n = 0;; ++n) {
            TxnCtx tx(run, run.allocTxnId());
            if (co_await attempt(tx, op)) {
                co_await tx.commit();
                break;
            }
            co_await tx.rollback();
            if (n < run.config().txnRetryLimit) {
                ++run.txnsRetried;
                co_await SimDelay(run.loop,
                                  victimRetryBackoff(rng, n + 1));
                continue;
            }
            if (run.config().txnRetryLimit > 0)
                ++run.txnsGivenUp;
            co_await SimDelay(run.loop, retryBackoff(rng));
            break;
        }
    }
}

} // namespace dbsens

#endif // DBSENS_WORKLOADS_WORKLOAD_H
