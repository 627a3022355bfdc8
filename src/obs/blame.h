/**
 * @file
 * Resource-blame attribution: decompose each tenant's makespan (and
 * each analytical query's span) into disjoint resource-blame shares —
 * CPU compute, core-queue time, SMT contention, LLC/DRAM stall, SSD
 * read/write queueing, lock/latch waits, grant-queue waits, WAL
 * flush, crash recovery — with the residual reported as Idle so the
 * shares *provably sum to the makespan* (DESIGN.md Section 13).
 *
 * Accounting model. The measured window is [begin, freeze). A tenant
 * with S closed-loop sessions has makespan S x (freeze - begin):
 * every session is, at every instant, in exactly one state (running a
 * CPU burst, queued for a core, waiting on a lock/latch/IO/WAL/grant,
 * or idle between charges). Each charge is an interval on one
 * session's private timeline, clipped to the window, so the charges
 * of one session never overlap and the per-class sums plus the Idle
 * residual equal the makespan exactly (the residual absorbs think
 * time, scheduler gaps, and sub-burst boundary clipping).
 *
 * Analytical (OLAP) queries violate the sequential-session argument:
 * a stage fans out onto `dop` parallel workers whose bursts overlap
 * in wall time. Those charges are collected per query scope and
 * *normalized onto the query's wall span* — the span is apportioned
 * across classes by each class's share of raw worker time — before
 * being added to the tenant totals. The raw (unnormalized) worker-ns
 * are kept on the per-query records as model features.
 *
 * The ledger depends only on core/; clocks are injected and charge
 * sites forward through std::function hooks, so observability-off
 * runs never construct one (null-pointer gate, byte-identical runs).
 */

#ifndef DBSENS_OBS_BLAME_H
#define DBSENS_OBS_BLAME_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/sim_time.h"
#include "core/types.h"

namespace dbsens {
namespace obs {

/** Blame classes a makespan decomposes into. */
enum class BlameClass : uint8_t {
    CpuCompute,    ///< instruction execution at base IPC
    CpuQueue,      ///< runnable, queued for a logical core
    SmtContention, ///< burst inflation from SMT sibling interference
    MemStall,      ///< LLC-miss / DRAM stall time inside bursts
    SsdRead,       ///< SSD read queueing + transfer (incl. page-in)
    SsdWrite,      ///< SSD write queueing + transfer
    LockWait,      ///< row/table lock waits (incl. deadlock victims)
    LatchWait,     ///< page/index latch waits (in-memory)
    GrantWait,     ///< queued at the query-memory grant gate
    WalFlush,      ///< commit waiting for the log flush
    Recovery,      ///< crash-recovery replay (harness-charged)
    Idle,          ///< residual: think time, drained sessions, gaps
    kCount,
};

inline constexpr size_t kBlameClasses = size_t(BlameClass::kCount);

/** Report name of a blame class. */
const char *blameClassName(BlameClass c);

/** Knob-movable resources a blame profile predicts sensitivity to. */
enum class Resource : uint8_t {
    Cores,    ///< CpuQueue + SmtContention
    Llc,      ///< MemStall
    SsdRead,  ///< SsdRead
    SsdWrite, ///< SsdWrite + WalFlush
    Grant,    ///< GrantWait
    kCount,
};

inline constexpr size_t kResources = size_t(Resource::kCount);

const char *resourceName(Resource r);

/** Blame-share ns a resource would be blamed for, given class ns. */
double resourceBlameNs(const double (&share_ns)[kBlameClasses],
                       Resource r);

/** One resource and its blamed ns (ranking entry). */
struct ResourceBlame
{
    Resource resource = Resource::Cores;
    double blameNs = 0;
};

/** One tenant's makespan decomposition over the measured window. */
struct TenantAttribution
{
    int sessions = 0;     ///< closed-loop sessions of this tenant
    double makespanNs = 0; ///< sessions x window (+ recovery pauses)
    /** Per-class share ns; [Idle] holds the residual after finish. */
    double shareNs[kBlameClasses] = {};

    double
    chargedNs() const
    {
        double s = 0;
        for (size_t c = 0; c < kBlameClasses; ++c)
            if (c != size_t(BlameClass::Idle))
                s += shareNs[c];
        return s;
    }

    /**
     * Predicted sensitivity ranking: knob-movable resources sorted by
     * blamed ns, best first (stable: ties keep enum order).
     */
    std::vector<ResourceBlame> ranking() const;
};

/** Aggregated per-query decomposition (grouped by query name). */
struct QueryAttribution
{
    std::string name;
    int tenant = 0;
    uint64_t count = 0;   ///< executions aggregated here
    double spanNs = 0;    ///< summed wall spans (window-clipped)
    /** Normalized shares: sum over classes == spanNs. */
    double shareNs[kBlameClasses] = {};
    /** Raw worker-ns per class before span normalization. */
    double rawNs[kBlameClasses] = {};
};

/**
 * Charge accumulator for one run window. All charge methods clip to
 * [begin, freeze) and are no-ops before beginWindow()/after freeze().
 */
class BlameLedger
{
  public:
    /** `now` supplies the simulated clock (ns). */
    explicit BlameLedger(std::function<SimTime()> now);

    /** Declare a tenant's closed-loop session count (before begin). */
    void setSessions(int tenant, int sessions);

    /** Open the measured window (warmup end). */
    void beginWindow(SimTime t);

    /** Close the window and compute Idle residuals. */
    void freeze(SimTime t);

    bool open() const { return open_; }
    double windowNs() const { return windowNs_; }

    /** Duration-only charge ending now: interval [now - ns, now). */
    void chargeDur(int tenant, BlameClass c, double ns);

    /** Explicit-interval charge [start, end). */
    void chargeInterval(int tenant, BlameClass c, SimTime start,
                        SimTime end);

    /**
     * A CPU burst: queued [enqueue, grant), executing [grant, end).
     * The execution segment splits into compute / stall / SMT
     * inflation; both segments clip to the window (composite parts
     * scale by the clipped fraction).
     */
    void cpuBurst(int tenant, SimTime enqueue, SimTime grant,
                  SimTime end, double compute_ns, double stall_ns);

    /** Open a query scope: subsequent charges to `tenant` fold into
     * this query until endQuery. One scope per tenant at a time. */
    void beginQuery(int tenant, const std::string &name, SimTime t);

    /** Close the scope: normalize raw charges onto the wall span and
     * add them to the tenant totals. */
    void endQuery(int tenant, SimTime t);

    const TenantAttribution &tenant(int t) const
    {
        return tenants_[t];
    }

    /** Aggregated per-query records (sorted by first appearance). */
    const std::vector<QueryAttribution> &queries() const
    {
        return queries_;
    }

    /** FNV-1a fold of every tenant share bit pattern (determinism). */
    uint64_t digest() const;

  private:
    struct OpenQuery
    {
        bool active = false;
        std::string name;
        SimTime start = 0;
        double rawNs[kBlameClasses] = {};
    };

    /** Clip [start, end) to the window; returns clipped length. */
    double clip(SimTime start, SimTime end, double *clipped_start) const;

    void addToScope(int tenant, BlameClass c, double ns);

    QueryAttribution &queryRecord(const std::string &name, int tenant);

    std::function<SimTime()> now_;
    bool open_ = false;
    bool frozen_ = false;
    SimTime begin_ = 0;
    SimTime end_ = 0;
    double windowNs_ = 0;
    TenantAttribution tenants_[kNumTenants];
    OpenQuery openQuery_[kNumTenants];
    std::vector<QueryAttribution> queries_;
};

} // namespace obs
} // namespace dbsens

#endif // DBSENS_OBS_BLAME_H
