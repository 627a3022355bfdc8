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

} // namespace dbsens

#endif // DBSENS_WORKLOADS_WORKLOAD_H
