/**
 * @file
 * TPC-H experiment driver.
 *
 * Owns one generated database per scale factor (TPC-H is read-only,
 * so it is shared across sweep points), caches query profiles by
 * physical plan signature, records the workload-level cache trace
 * during a steady-state profiling pass, and caches the trace's miss
 * rate per CAT allocation. Sweeps over cores / LLC / MAXDOP / grants /
 * bandwidth then only replay profiles in the DES.
 */

#ifndef DBSENS_HARNESS_TPCH_DRIVER_H
#define DBSENS_HARNESS_TPCH_DRIVER_H

#include <map>
#include <memory>
#include <vector>

#include "core/worker_pool.h"
#include "engine/query_runner.h"
#include "engine/sim_run.h"
#include "workloads/tpch/tpch_gen.h"
#include "workloads/tpch/tpch_queries.h"

namespace dbsens {

/** Result of one TPC-H throughput run. */
struct TpchRunResult
{
    double qps = 0;  ///< queries per paper second
    double mpki = 0; ///< misses per kilo-instruction
    double avgSsdReadBps = 0;
    double avgSsdWriteBps = 0;
    double avgDramBps = 0;
    /** Queries shed, split by cause (fault/resilience regimes only):
     * grant-queue timeouts vs admission-control rejections. */
    uint64_t queriesShed = 0;
    uint64_t queriesShedTimeout = 0;
    uint64_t queriesShedAdmission = 0;
    /** Per-paper-second rate samples (Figures 3 and 4). */
    Distribution ssdRead;
    Distribution ssdWrite;
    Distribution dram;
};

/** Driver for all TPC-H experiments at one scale factor. */
class TpchDriver
{
  public:
    explicit TpchDriver(int sf, uint64_t seed = 19920101);

    int scaleFactor() const { return sf_; }
    Database &db() { return *db_; }

    /**
     * Profile of query q under maxdop (cached by plan signature).
     * Profiles are taken against a steady-state (pre-scanned) buffer
     * pool so they carry steady-state I/O.
     */
    const ProfiledQuery &profile(int q, int maxdop);

    /**
     * Workload-level LLC miss rate at a CAT allocation (cached). The
     * trace replay runs on the driver's worker pool; the rate does not
     * depend on the host's core count.
     */
    double missRate(int llc_mb);

    /** The steady-state pass's workload trace, sealed for replay. */
    const ShardedTrace &trace() const { return trace_; }

    /** Sampled cache touches per 1000 instructions (workload-level). */
    double touchesPerKiloInstr();

    /**
     * Run `streams` concurrent query streams for `cfg.duration`
     * (paper: 3 streams, 1 hour). Each stream runs all 22 queries in
     * a seeded random order, repeatedly. maxdop defaults to
     * cfg.maxdop capped at cfg.cores.
     */
    TpchRunResult runStreams(const RunConfig &cfg, int streams = 3);

    /** Replay one query once; returns its elapsed simulated ns. */
    double runSingleQuery(int q, const RunConfig &cfg);

  private:
    /**
     * Steady-state pass: execute all 22 once, recording the workload
     * trace and each query's page log, then replay the logs twice
     * through the profiling pool: once to warm it, once to charge the
     * steady-state I/O to the profiles. Exactly equal to running the
     * suite twice and profiling the second run (see DESIGN.md §12).
     */
    void steadyStatePass();

    Task<void> streamSession(SimRun &run, int maxdop, double miss_rate,
                             uint64_t seed);

    int sf_;
    std::unique_ptr<Database> db_;
    std::unique_ptr<ProfilingEnv> env_;
    ShardedTrace trace_;
    double profiledInstr_ = 0;
    std::map<std::string, ProfiledQuery> profilesBySig_;
    std::map<std::pair<int, int>, const ProfiledQuery *> byQueryDop_;
    std::map<int, double> missRateByMb_;
    /** One worker per hardware thread, for missRate's trace replay. */
    WorkerPool replayPool_;
};

/** Serial-threshold calibrated for the scaled TPC-H sizes. */
OptimizerConfig tpchOptimizerConfig(int maxdop);

} // namespace dbsens

#endif // DBSENS_HARNESS_TPCH_DRIVER_H
