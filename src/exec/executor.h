/**
 * @file
 * Operator-at-a-time query executor.
 *
 * Executes an (optimizer-annotated) plan tree functionally — real
 * joins, real aggregates over the loaded data — while accumulating a
 * QueryProfile: per-operator instruction estimates, sampled cache
 * touches (into a CacheFeed), buffer-pool page touches (into a
 * PageLog), and memory requirements. The discrete-event simulation
 * later replays profiles under any resource configuration
 * (engine/query_replay.h).
 */

#ifndef DBSENS_EXEC_EXECUTOR_H
#define DBSENS_EXEC_EXECUTOR_H

#include <vector>

#include "core/random.h"
#include "core/types.h"
#include "exec/chunk.h"
#include "exec/plan.h"
#include "exec/profile.h"
#include "exec/table_handle.h"
#include "hw/cache_feed.h"
#include "hw/virtual_space.h"

namespace dbsens {

class WorkerPool;

/** One buffer-pool access of an execution, in execution order. */
struct PageTouch
{
    uint32_t op;     ///< index of the operator in QueryProfile::ops
    uint32_t weight; ///< I/O multiplier (sampled probes stand for many)
    PageId page;
};

/**
 * The buffer-pool accesses of one execution. Residency never feeds
 * back into execution, so the executor only logs its page touches;
 * applyPageLog (engine/query_runner.h) replays them through a pool
 * and charges the I/O to the operators.
 */
using PageLog = std::vector<PageTouch>;

/** Everything an execution needs; optional pieces may be null. */
struct ExecContext
{
    const TableResolver *resolver = nullptr;
    /** Page touches of scans and index probes (needs `profile`). */
    PageLog *pageLog = nullptr;
    CacheFeed *feed = nullptr;       ///< sampled cache accesses
    QueryProfile *profile = nullptr; ///< per-operator cost records
    VirtualSpace *tempSpace = nullptr; ///< regions for hash/sort temps
    /**
     * Morsel worker pool for the wallclock compute (filter kernels,
     * projections, join probes, aggregate arguments). Null (the
     * default) keeps execution fully serial. The pool never runs
     * simulated work: all DES touches and rng draws stay on the
     * calling thread, so profiles and traces are identical for every
     * worker count, and query *results* are identical too (morsel
     * outputs merge in deterministic morsel order).
     */
    WorkerPool *workers = nullptr;
    ParamMap params;
    Rng rng{0x0DB5EED};
};

/** Executes plan trees against an ExecContext. */
class Executor
{
  public:
    explicit Executor(ExecContext &ctx) : ctx_(ctx)
    {
        if (ctx_.tempSpace)
            workBuf_ = ctx_.tempSpace->sharedWorkBuf(kWorkBufBytes);
    }

    /**
     * Per-query working-buffer footprint (vector batches, decompression
     * scratch, operator state). Unlike table data this does NOT scale
     * with database size, so it is allocated un-inflated — it is what a
     * 2..40 MB CAT allocation can actually keep resident, and the
     * source of the paper's LLC knees (Figure 2).
     */
    static constexpr uint64_t kWorkBufBytes = 12ull << 20;

    /** Working-buffer touches emitted per data touch. The bulk of an
     * analytical engine's LLC traffic hits operator state, not the
     * streamed base data. */
    static constexpr int kWorkBufTouchesPerData = 6;

    /** Execute a plan; returns the materialized result. */
    Chunk run(const PlanNode &node);

    /** Stride between sampled cache touches in scans (compressed
     * columns pack many values per line, so line touches per row are
     * far below 1). */
    static constexpr size_t kScanTouchStride = 128;
    /** Stride between sampled cache touches in probes/builds. */
    static constexpr size_t kProbeTouchStride = 16;

  private:
    Chunk execScan(const PlanNode &n);
    Chunk execFilter(const PlanNode &n, Chunk in);
    Chunk execProject(const PlanNode &n, Chunk in);
    Chunk execHashJoin(const PlanNode &n, Chunk left, Chunk right);
    Chunk execIndexNLJoin(const PlanNode &n, Chunk left);
    Chunk execAggregate(const PlanNode &n, Chunk in);
    Chunk execSort(const PlanNode &n, Chunk in, size_t limit);
    Chunk execExchange(const PlanNode &n, Chunk in);

    void bindParams(const PlanNode &n);

    /** Record an op profile (no-op without a profile sink). */
    void record(OpProfile op);

    /** Log a page touch of the operator being executed (the next one
     * record() appends). */
    void
    logPage(PageId page, uint32_t weight)
    {
        if (ctx_.pageLog)
            ctx_.pageLog->push_back(
                {uint32_t(ctx_.profile->ops.size()), weight, page});
    }

    void
    touch(uint64_t addr, OpProfile &op)
    {
        if (ctx_.feed) {
            if (workBuf_.valid()) {
                uint64_t addrs[1 + kWorkBufTouchesPerData] = {addr};
                for (int i = 1; i <= kWorkBufTouchesPerData; ++i) {
                    // Cubic skew: a few MB of the buffer are hot.
                    double f = ctx_.rng.uniformReal();
                    addrs[i] = workBuf_.fractionAddr(f * f * f);
                }
                ctx_.feed->touch(addrs);
            } else {
                ctx_.feed->touch(addr);
            }
        }
        op.cacheTouches += 1 + (workBuf_.valid()
                                    ? kWorkBufTouchesPerData
                                    : 0);
    }

    ExecContext &ctx_;
    VirtualRegion workBuf_;
};

} // namespace dbsens

#endif // DBSENS_EXEC_EXECUTOR_H
