#include "engine/query_runner.h"

#include "engine/sim_run.h"

#include <algorithm>
#include <cmath>

#include "core/trace.h"
#include "opt/plan_printer.h"
#include "sim/wait_group.h"
#include "tune/tune.h"

namespace dbsens {

namespace {

/** Spill amplification: extra I/O bytes per byte over the grant. */
constexpr double kSpillIoFactor = 0.8;
/** Extra instructions per spilled byte (partitioning + rereads). */
constexpr double kSpillInstrPerByte = 0.55;
/** Parallel memory overhead per additional worker. */
constexpr double kDopMemFactor = 0.008;
/** I/O chunk size when replaying stage reads. */
constexpr uint64_t kIoChunk = 1u << 20;
/** Longest CPU morsel per scheduler burst. */
constexpr double kMorselNs = 1.0e6;

/** Per-stage replay quantities derived from profile + params. */
struct StageCost
{
    double computeNs = 0;
    double stallNs = 0;
    double dramBytes = 0;
    uint64_t ioRead = 0;
    uint64_t ioWrite = 0;
    int workers = 1;
};

StageCost
stageCost(const OpProfile &op, const ReplayParams &p, uint64_t mem_share)
{
    StageCost c;
    c.workers = (op.parallelizable && p.dop > 1) ? p.dop : 1;

    double instr = op.instructions;
    if (op.exchangeRows > 0) {
        instr += double(op.exchangeRows) * calib::kExchangeInstrPerRow *
                 (1.0 + std::log2(double(std::max(p.dop, 2))) / 4.0);
    }

    c.ioRead = op.ioReadBytes;
    c.ioWrite = op.ioWriteBytes;
    if (op.memRequired > 0 && mem_share > 0) {
        const double need =
            double(op.memRequired) *
            (1.0 + kDopMemFactor * double(std::max(p.dop - 1, 0)));
        const double excess = need - double(mem_share);
        if (excess > 0) {
            c.ioRead += uint64_t(excess * kSpillIoFactor);
            c.ioWrite += uint64_t(excess * kSpillIoFactor);
            instr += excess * kSpillInstrPerByte;
        }
    }

    const double real_misses = double(op.cacheTouches) * p.missRate *
                               calib::kAccessSampleWeight;
    c.stallNs = real_misses * calib::kMissLatencyNs *
                (1.0 - calib::kMissOverlap);
    c.computeNs = instr / (calib::kBaseIpc * calib::kCoreFreqHz) * 1e9;
    c.dramBytes = real_misses * double(kCacheLineSize) +
                  double(c.ioRead + c.ioWrite);
    return c;
}

Task<void>
stageWorker(SimRun &run, WaitGroup &wg, double compute_ns,
            double stall_ns, double dram_bytes, int tenant,
            double useful_per_ns)
{
    const double total = compute_ns + stall_ns;
    const double stall_frac = total > 0 ? stall_ns / total : 0;
    double remaining = total;
    const double dram_per_ns = total > 0 ? dram_bytes / total : 0;
    while (remaining > 0) {
        const double slice = std::min(remaining, kMorselNs);
        CpuWork w;
        w.computeNs = slice * (1.0 - stall_frac);
        w.stallNs = slice * stall_frac;
        w.dramBytes = slice * dram_per_ns;
        w.tenant = tenant;
        co_await run.cpu.consume(w);
        // Credit nominal progress per morsel so control epochs see a
        // smooth rate rather than per-query completion spikes.
        if (useful_per_ns > 0)
            run.olapUsefulNs += slice * useful_per_ns;
        remaining -= slice;
    }
    wg.done();
}

Task<void>
stageIo(SimRun &run, WaitGroup &wg, uint64_t read_bytes,
        uint64_t write_bytes, int tenant)
{
    uint64_t r = read_bytes;
    while (r > 0) {
        const uint64_t chunk = std::min(r, kIoChunk);
        const SimTime io_start = run.loop.now();
        co_await run.ssd.read(chunk);
        if (run.obs)
            run.obs->chargeIo(tenant, false, io_start, run.loop.now());
        r -= chunk;
    }
    uint64_t w = write_bytes;
    while (w > 0) {
        const uint64_t chunk = std::min(w, kIoChunk);
        const SimTime io_start = run.loop.now();
        co_await run.ssd.write(chunk);
        if (run.obs)
            run.obs->chargeIo(tenant, true, io_start, run.loop.now());
        w -= chunk;
    }
    wg.done();
}

uint64_t
memShareFor(const QueryProfile &profile, uint64_t grant_bytes)
{
    // Memory-consuming operators run in stages, not all at once, so
    // each sees (approximately) the whole grant — matching Figure 8,
    // where the default 25% grant spills almost nothing at SF=100.
    (void)profile;
    return grant_bytes;
}

} // namespace

ProfiledQuery
executeQuery(Database &db, const PlanNode &logical,
             const OptimizerConfig &cfg, PageLog *page_log,
             CacheFeed *trace_feed, Chunk *result_out, WorkerPool *workers)
{
    ProfiledQuery out;
    PlanPtr plan = clonePlan(logical);
    Optimizer opt(db, cfg);
    opt.optimize(*plan);
    out.parallelPlan = opt.lastPlanParallel();
    out.signature = planSignature(*plan);
    out.planText = planToString(*plan);

    ExecContext ctx;
    ctx.resolver = &db;
    ctx.pageLog = page_log;
    ctx.feed = trace_feed;
    ctx.profile = &out.profile;
    ctx.tempSpace = &db.space();
    ctx.workers = workers;
    Executor ex(ctx);
    Chunk result = ex.run(*plan);
    out.resultRows = result.rows();
    out.profile.resultRows = result.rows();
    if (result_out)
        *result_out = std::move(result);
    return out;
}

void
applyPageLog(const PageLog &log, BufferPool &pool, QueryProfile *profile)
{
    for (const PageTouch &t : log) {
        const BufferPool::TouchResult res = pool.touch(t.page);
        if (profile) {
            OpProfile &op = profile->ops[t.op];
            op.ioReadBytes += res.readBytes * t.weight;
            op.ioWriteBytes += res.writeBytes * t.weight;
        }
    }
}

ProfiledQuery
profileQuery(Database &db, const PlanNode &logical,
             const OptimizerConfig &cfg, BufferPool *pool,
             CacheFeed *trace_feed, Chunk *result_out,
             WorkerPool *workers)
{
    PageLog log;
    ProfiledQuery out = executeQuery(db, logical, cfg,
                                     pool ? &log : nullptr, trace_feed,
                                     result_out, workers);
    if (pool)
        applyPageLog(log, *pool, &out.profile);
    return out;
}

double
estimateReplayNs(const QueryProfile &profile, const ReplayParams &params)
{
    const uint64_t mem_share = memShareFor(profile, params.grantBytes);
    double total = 0;
    for (const auto &op : profile.ops) {
        const StageCost c = stageCost(op, params, mem_share);
        const double cpu_ns =
            (c.computeNs + c.stallNs) / double(c.workers) *
                (1.0 + calib::kSkewFactor *
                           std::log2(double(c.workers) + 1) /
                           double(c.workers)) +
            calib::kWorkerStartupNs;
        const double io_ns =
            double(c.ioRead) / calib::kSsdReadBw * 1e9 +
            double(c.ioWrite) / calib::kSsdWriteBw * 1e9;
        total += std::max(cpu_ns, io_ns);
    }
    return total;
}

Task<void>
replayQuery(SimRun &run, const QueryProfile &profile, ReplayParams params)
{
    const uint64_t mem_share = memShareFor(profile, params.grantBytes);
    // Tracing: the query gets its own track; operator spans nest
    // inside the overall query span emitted at completion.
    TraceRecorder *tr = TraceRecorder::active();
    const int track = tr ? tr->newQueryTrack() : 0;
    const SimTime query_start = run.loop.now();
    if (run.obs)
        run.obs->beginQuery(params.tenant,
                            profile.name.empty() ? "query"
                                                 : profile.name,
                            query_start);
    for (const auto &op : profile.ops) {
        const StageCost c = stageCost(op, params, mem_share);
        if (c.computeNs + c.stallNs <= 0 && c.ioRead + c.ioWrite == 0)
            continue;
        const SimTime op_start = run.loop.now();

        WaitGroup wg(run.loop);
        // Worker startup (parallel stages pay per-worker setup).
        const double startup =
            c.workers > 1 ? calib::kWorkerStartupNs : 0.0;
        const double per_worker =
            (c.computeNs + c.stallNs) / double(c.workers);
        // Skew: the first worker carries the imbalance surplus.
        const double skew_extra =
            c.workers > 1 ? per_worker * calib::kSkewFactor *
                                std::log2(double(c.workers)) /
                                double(c.workers)
                          : 0.0;
        const double stall_frac =
            (c.computeNs + c.stallNs) > 0
                ? c.stallNs / (c.computeNs + c.stallNs)
                : 0.0;
        const double dram_per_ns =
            (c.computeNs + c.stallNs) > 0
                ? c.dramBytes / (c.computeNs + c.stallNs)
                : 0.0;
        // Nominal (spill-free) instruction-ns is the autopilot's
        // config-invariant progress unit for OLAP-tagged replays,
        // spread evenly over the stage's actual worker-ns so knob
        // changes can't manufacture "progress" via their own overhead.
        const double nominal_ns =
            op.instructions / (calib::kBaseIpc * calib::kCoreFreqHz) *
            1e9;
        const double worker_ns_total = (c.computeNs + c.stallNs) +
                                       skew_extra +
                                       startup * double(c.workers);
        const double useful_per_ns =
            (params.tenant == kTenantOlap && worker_ns_total > 0)
                ? nominal_ns / worker_ns_total
                : 0.0;
        for (int w = 0; w < c.workers; ++w) {
            const double mine =
                per_worker + (w == 0 ? skew_extra : 0.0) + startup;
            wg.add();
            run.loop.spawn(stageWorker(run, wg,
                                       mine * (1.0 - stall_frac),
                                       mine * stall_frac,
                                       mine * dram_per_ns,
                                       params.tenant, useful_per_ns));
        }
        if (c.ioRead + c.ioWrite > 0) {
            wg.add();
            run.loop.spawn(
                stageIo(run, wg, c.ioRead, c.ioWrite, params.tenant));
        }
        run.instructionsRetired +=
            c.computeNs * calib::kBaseIpc * calib::kCoreFreqHz / 1e9;
        co_await wg.wait();
        if (tr)
            tr->complete(track, "operator", op.label, op_start,
                         run.loop.now(), "workers", double(c.workers));
    }
    ++run.queriesCompleted;
    if (run.obs) {
        run.obs->endQuery(params.tenant, run.loop.now());
        run.obs->recordLatency(params.tenant,
                               run.loop.now() - query_start);
    }
    if (run.sketch)
        run.sketch->noteLatency(params.tenant,
                                double(run.loop.now() - query_start) *
                                    1e-6);
    if (tr)
        tr->complete(track, "query",
                     profile.name.empty() ? "query" : profile.name,
                     query_start, run.loop.now(), "dop",
                     double(params.dop));
}

} // namespace dbsens
