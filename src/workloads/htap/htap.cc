#include "workloads/htap/htap.h"

#include "engine/query_runner.h"
#include "engine/sim_run.h"

namespace dbsens {
namespace htap {

PlanPtr
analyticalQuery(int q)
{
    switch (q) {
      case 0:
        // Hot securities by traded quantity.
        return PlanBuilder::scan("trade", {"t_s_id", "t_qty"})
            .aggregate({"t_s_id"},
                       {aggSum(col("t_qty"), "total_qty")})
            .topN({{"total_qty", true}}, 20)
            .build();
      case 1:
        // Traded value by exchange (join with security).
        return PlanBuilder::scan("trade",
                                 {"t_s_id", "t_qty", "t_price"})
            .join(PlanBuilder::scan("security", {"s_id", "s_ex"}),
                  JoinType::Inner, {"t_s_id"}, {"s_id"})
            .project({{col("s_ex"), "s_ex"},
                      {mul(col("t_qty"), col("t_price")), "value"}})
            .aggregate({"s_ex"}, {aggSum(col("value"), "volume")})
            .orderBy({{"volume", true}})
            .build();
      case 2:
        // Broker volumes from live trades (join with account).
        return PlanBuilder::scan("trade",
                                 {"t_ca_id", "t_qty", "t_price"})
            .join(PlanBuilder::scan("account", {"ca_id", "ca_b_id"}),
                  JoinType::Inner, {"t_ca_id"}, {"ca_id"})
            .project({{col("ca_b_id"), "b_id"},
                      {mul(col("t_qty"), col("t_price")), "value"}})
            .aggregate({"b_id"}, {aggSum(col("value"), "volume")})
            .topN({{"volume", true}}, 10)
            .build();
      case 3:
        // Price statistics by trade type.
        return PlanBuilder::scan("trade", {"t_type", "t_price",
                                           "t_qty"})
            .aggregate({"t_type"},
                       {aggAvg(col("t_price"), "avg_price"),
                        aggMax(col("t_price"), "max_price"),
                        aggCount("n")})
            .orderBy({{"t_type", false}})
            .build();
      default:
        fatal("HTAP analytical query must be 0..3");
    }
}

void
HtapWorkload::startSessions(SimRun &run, Database &db, uint64_t seed)
{
    tpce::TpceWorkload::startSessions(run, db, seed);
    run.loop.spawn(analyticalSession(run, db));
    run.loop.spawn(tupleMover(run, db));
    for (int i = 0; i < surgeSessions_; ++i)
        run.loop.spawn(surgeSession(run, db, i));
}

Task<void>
HtapWorkload::analyticalOnce(SimRun &run, Database &db,
                             LiveCacheFeed &dss_feed, int q,
                             int &shed_streak)
{
    // Token-bucket admission ahead of the grant gate: overload is
    // shed before it queues, with a deterministic capped-exponential
    // re-admission backoff per consecutive shed.
    if (run.resil && !run.resil->admitWork(kTenantOlap)) {
        run.grants.noteAdmissionShed();
        co_await SimDelay(run.loop,
                          run.resil->admitRetryDelay(++shed_streak));
        co_return;
    }
    shed_streak = 0;
    auto plan = analyticalQuery(q);
    // Functional profiling against the *live* data (delta
    // included) with the run's cache and buffer pool: the
    // measured miss rate reflects OLTP/DSS cache interference.
    const uint64_t a0 = dss_feed.accesses();
    const uint64_t m0 = dss_feed.misses();
    OptimizerConfig cfg;
    cfg.maxdop = std::min(run.config().maxdop, run.config().cores);
    if (run.autopilot) {
        // Per-tenant MAXDOP cap at plan choice: the optimizer
        // sees the capped DOP, so serial-threshold and join
        // decisions adapt to the current lease.
        cfg.maxdopCap = run.autopilot->maxdopCap(kTenantOlap);
    }
    if (run.resil) {
        // Ladder rung 1: the resilience clamp stacks under whatever
        // the (frozen) autopilot already granted.
        const int clamp = run.resil->maxdopClamp(kTenantOlap);
        if (clamp > 0)
            cfg.maxdopCap = cfg.maxdopCap > 0
                                ? std::min(cfg.maxdopCap, clamp)
                                : clamp;
    }
    // Live sketch statistics: literal selectivities come from the
    // run's CMS/KLL column sketches, so plan choice reacts to the
    // observed skew (null hub keeps the static estimates).
    cfg.sketch = run.sketch.get();
    const auto pq = profileQuery(db, *plan, cfg, &run.pool, &dss_feed);
    const uint64_t da = dss_feed.accesses() - a0;
    const uint64_t dm = dss_feed.misses() - m0;
    ReplayParams params;
    params.dop = pq.parallelPlan
                     ? std::min(cfg.maxdop, cfg.maxdopCap > 0
                                                ? cfg.maxdopCap
                                                : cfg.maxdop)
                     : 1;
    params.grantBytes = run.queryGrantBytes();
    params.missRate = da ? double(dm) / double(da) : 0.05;
    params.tenant = kTenantOlap;
    // The resilience controller is observation-only until an incident
    // engages the ladder: at rung 0 the query takes the exact ungated
    // path a resil-off run takes, so an idle controller costs nothing.
    if (run.autopilot || (run.resil && run.resil->rung() > 0) ||
        run.config().fault.grantTimeout > 0) {
        // The autopilot (and the resilience ladder) resize the grant
        // gate; admission control bounds in-flight query memory
        // against the current budget. `granted` records the exact
        // reservation (possibly re-clamped below the request by a
        // shrink while queued) so release never underflows — and the
        // query replays with the memory it actually got, spilling if
        // the budget shrank.
        uint64_t granted = 0;
        const SimTime grant_start = run.loop.now();
        const bool ok =
            co_await run.grants.acquire(params.grantBytes, &granted);
        if (run.obs)
            run.obs->chargeGrantWait(kTenantOlap, grant_start,
                                     run.loop.now());
        if (!ok)
            co_return;
        params.grantBytes = granted;
        co_await replayQuery(run, pq.profile, params);
        run.grants.release(granted);
    } else {
        co_await replayQuery(run, pq.profile, params);
    }
}

Task<void>
HtapWorkload::analyticalSession(SimRun &run, Database &db)
{
    // Own feed over the *shared* LLC: analytics and OLTP contend for
    // cache space, but the DSS touches must not land in transactions'
    // miss windows (they are replayed as DSS stall time instead).
    // Under the autopilot the feed carries the OLAP COS id, so its
    // fills obey the tenant's current way mask.
    LiveCacheFeed dss_feed(run.llc,
                           run.autopilot ? kTenantOlap : 0);
    int shed_streak = 0;
    while (run.running()) {
        for (int q = 0; q < kAnalyticalQueries && run.running(); ++q)
            co_await analyticalOnce(run, db, dss_feed, q,
                                    shed_streak);
    }
}

Task<void>
HtapWorkload::surgeSession(SimRun &run, Database &db, int idx)
{
    const SimTime until = surgeAt_ + surgeFor_;
    if (surgeAt_ > run.loop.now())
        co_await SimDelay(run.loop, surgeAt_ - run.loop.now());
    LiveCacheFeed dss_feed(run.llc,
                           run.autopilot ? kTenantOlap : 0);
    int shed_streak = 0;
    // Stagger the crowd's starting query so the burst is not one
    // lock-step convoy.
    int q = idx % kAnalyticalQueries;
    while (run.running() && run.loop.now() < until) {
        co_await analyticalOnce(run, db, dss_feed, q, shed_streak);
        q = (q + 1) % kAnalyticalQueries;
    }
}

Task<void>
HtapWorkload::tupleMover(SimRun &run, Database &db)
{
    auto &trade = db.table("trade");
    while (run.running()) {
        co_await SimDelay(run.loop, milliseconds(20));
        if (!trade.ncci)
            continue;
        const uint64_t bytes = trade.ncci->tupleMove();
        if (bytes > 0) {
            // Compression writes the new rowgroups to storage.
            co_await run.ssd.write(bytes);
        }
    }
}

} // namespace htap
} // namespace dbsens
