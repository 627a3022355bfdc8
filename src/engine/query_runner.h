/**
 * @file
 * Query profiling (functional execution, once per plan shape) and
 * profile replay inside the discrete-event simulation (per resource
 * configuration). The split keeps multi-point sweeps cheap: Figures
 * 2, 5, 6 and 8 replay cached profiles under different knobs instead
 * of re-joining gigabytes.
 */

#ifndef DBSENS_ENGINE_QUERY_RUNNER_H
#define DBSENS_ENGINE_QUERY_RUNNER_H

#include <memory>
#include <string>

#include "core/calibration.h"
#include "engine/database.h"
#include "exec/executor.h"
#include "opt/optimizer.h"
#include "sim/event_loop.h"
#include "sim/ssd_model.h"
#include "sim/task.h"
#include "storage/buffer_pool.h"

namespace dbsens {

class SimRun;

/** Result of optimizing + functionally executing one query. */
struct ProfiledQuery
{
    QueryProfile profile;
    std::string signature;   ///< physical plan signature
    std::string planText;    ///< printable plan tree
    bool parallelPlan = false;
    uint64_t resultRows = 0;
};

/**
 * Profiling environment: a standalone buffer pool that evolves
 * residency functionally (no simulated waits) so profiles carry the
 * I/O a real run would issue.
 */
class ProfilingEnv
{
  public:
    /** Binds `db`'s storage objects to a fresh pool for the scope. */
    explicit ProfilingEnv(Database &db)
        : ssd_(loop_), pool_(loop_, ssd_, calib::bufferPoolRealBytes()),
          db_(db)
    {
        db_.bindPool(pool_);
    }

    ~ProfilingEnv() { db_.unbindPool(); }

    ProfilingEnv(const ProfilingEnv &) = delete;
    ProfilingEnv &operator=(const ProfilingEnv &) = delete;

    BufferPool &pool() { return pool_; }

  private:
    EventLoop loop_;
    SsdModel ssd_;
    BufferPool pool_;
    Database &db_;
};

/**
 * Optimize a copy of `logical` for `cfg` and execute it functionally,
 * producing the profile. `page_log` (optional) receives the
 * execution's buffer-pool page touches, unapplied, so the profile's
 * I/O is still zero; `trace_feed` (optional) receives sampled cache
 * accesses. `workers` (optional) morselizes the wallclock compute
 * across a WorkerPool; the profile, trace, and result are identical
 * for every worker count (see ExecContext::workers).
 */
ProfiledQuery executeQuery(Database &db, const PlanNode &logical,
                           const OptimizerConfig &cfg, PageLog *page_log,
                           CacheFeed *trace_feed = nullptr,
                           Chunk *result_out = nullptr,
                           WorkerPool *workers = nullptr);

/**
 * Replay an execution's page touches through `pool`, evolving its
 * residency, and add the I/O each touch generated (times its weight)
 * to its operator in `profile` (optional: null only warms the pool).
 */
void applyPageLog(const PageLog &log, BufferPool &pool,
                  QueryProfile *profile);

/**
 * executeQuery, then applyPageLog through `pool` (optional), so the
 * profile carries the I/O the execution generated against the pool.
 */
ProfiledQuery profileQuery(Database &db, const PlanNode &logical,
                           const OptimizerConfig &cfg,
                           BufferPool *pool = nullptr,
                           CacheFeed *trace_feed = nullptr,
                           Chunk *result_out = nullptr,
                           WorkerPool *workers = nullptr);

/** Per-run parameters for replaying a profile. */
struct ReplayParams
{
    int dop = 32;             ///< effective degree of parallelism
    uint64_t grantBytes = 0;  ///< query memory grant
    double missRate = 0.05;   ///< LLC miss rate at this CAT allocation
    /**
     * Tenant id for CPU scheduling (tune/tune.h); -1 = untagged.
     * OLAP-tagged replays also credit SimRun::olapUsefulNs.
     */
    int tenant = -1;
};

/**
 * Replay a profiled query in the DES: stages run in order; each
 * stage's CPU is split over `dop` workers (with skew and startup
 * cost), its I/O streams concurrently, spills beyond the grant add
 * I/O and CPU. Completion increments run.queriesCompleted.
 */
Task<void> replayQuery(SimRun &run, const QueryProfile &profile,
                       ReplayParams params);

/** Pure estimate of a replayed query's duration in ns (testing). */
double estimateReplayNs(const QueryProfile &profile,
                        const ReplayParams &params);

} // namespace dbsens

#endif // DBSENS_ENGINE_QUERY_RUNNER_H
