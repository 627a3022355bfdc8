#include "harness/tpch_driver.h"

#include <algorithm>

#include "core/logging.h"
#include "opt/plan_printer.h"

namespace dbsens {

OptimizerConfig
tpchOptimizerConfig(int maxdop)
{
    OptimizerConfig cfg;
    cfg.maxdop = maxdop;
    // Calibrated so the cheap queries (paper: Q2/Q6/Q14/Q15/Q20) go
    // serial at scaled SF=10 while everything runs parallel at
    // SF >= 100 (Section 7 / Figure 6).
    cfg.serialThreshold = 5.0e5;
    return cfg;
}

TpchDriver::TpchDriver(int sf, uint64_t seed)
    : sf_(sf), replayPool_(std::thread::hardware_concurrency())
{
    db_ = tpch::generate(sf, seed);
    env_ = std::make_unique<ProfilingEnv>(*db_);
    steadyStatePass();
}

void
TpchDriver::steadyStatePass()
{
    // Execute each query once, recording the trace and its page log;
    // residency never feeds back into execution, so the pool only
    // needs the logs. Replaying them all once warms the pool (cold ->
    // steady state); replaying them again charges the steady-state
    // I/O to the profiles.
    VirtualSpace &space = db_->space();
    space.sharedWorkBuf(Executor::kWorkBufBytes);
    const uint64_t temps_begin = space.bytesAllocated();
    AccessTrace recorded;
    RecordingFeed feed(recorded);
    std::vector<ProfiledQuery> pqs;
    std::vector<PageLog> logs(tpch::kQueryCount);
    for (int q = 1; q <= tpch::kQueryCount; ++q)
        pqs.push_back(executeQuery(*db_, *tpch::query(q),
                                   tpchOptimizerConfig(32),
                                   &logs[size_t(q - 1)], &feed));
    // A warm-up execution would have bump-allocated the same hash and
    // aggregate regions first, so the accounted one's sit exactly one
    // pass's allocation higher: move the trace there as it is sealed
    // for replay, and skip the space past both.
    const uint64_t temps_end = space.bytesAllocated();
    const uint64_t temps = temps_end - temps_begin;
    trace_ = ShardedTrace(std::move(recorded), &replayPool_,
                          {temps_begin, temps_end, temps});
    if (temps > 0)
        space.allocateFullScale(temps);

    for (const PageLog &log : logs)
        applyPageLog(log, env_->pool(), nullptr);
    for (int q = 1; q <= tpch::kQueryCount; ++q) {
        ProfiledQuery &pq = pqs[size_t(q - 1)];
        applyPageLog(logs[size_t(q - 1)], env_->pool(), &pq.profile);
        profiledInstr_ += pq.profile.totalInstructions();
        const std::string sig = pq.signature;
        auto [it, inserted] =
            profilesBySig_.emplace(sig, std::move(pq));
        byQueryDop_[{q, 32}] = &it->second;
    }
}

const ProfiledQuery &
TpchDriver::profile(int q, int maxdop)
{
    auto key = std::make_pair(q, maxdop);
    auto hit = byQueryDop_.find(key);
    if (hit != byQueryDop_.end())
        return *hit->second;

    // Cheap signature probe first: many MAXDOPs share a plan shape.
    auto plan = tpch::query(q);
    Optimizer opt(*db_, tpchOptimizerConfig(maxdop));
    opt.optimize(*plan);
    const std::string sig = planSignature(*plan);
    auto it = profilesBySig_.find(sig);
    if (it == profilesBySig_.end()) {
        auto fresh = tpch::query(q);
        ProfiledQuery pq =
            profileQuery(*db_, *fresh, tpchOptimizerConfig(maxdop),
                         &env_->pool());
        it = profilesBySig_.emplace(sig, std::move(pq)).first;
    }
    byQueryDop_[key] = &it->second;
    return it->second;
}

double
TpchDriver::missRate(int llc_mb)
{
    auto it = missRateByMb_.find(llc_mb);
    if (it != missRateByMb_.end())
        return it->second;
    const double rate = trace_.replayMissRate(llc_mb, &replayPool_);
    missRateByMb_[llc_mb] = rate;
    return rate;
}

double
TpchDriver::touchesPerKiloInstr()
{
    // Total sampled touches over profiled instructions, both from the
    // steady-state pass.
    return profiledInstr_ > 0
               ? double(trace_.total()) / (profiledInstr_ / 1000.0)
               : 0.0;
}

Task<void>
TpchDriver::streamSession(SimRun &run, int maxdop, double miss_rate,
                          uint64_t seed)
{
    Rng rng(seed);
    std::vector<int> order(tpch::kQueryCount);
    for (int i = 0; i < tpch::kQueryCount; ++i)
        order[size_t(i)] = i + 1;

    while (run.running()) {
        // Random permutation per pass (a TPC-H "stream").
        for (size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.uniform(i)]);
        for (int q : order) {
            if (!run.running())
                break;
            const ProfiledQuery &pq = profile(q, maxdop);
            ReplayParams params;
            params.dop = pq.parallelPlan ? maxdop : 1;
            params.grantBytes = run.queryGrantBytes();
            params.missRate = miss_rate;
            // Admission control: reserve the grant for the query's
            // lifetime (large grants bound stream concurrency). A
            // shed waiter (grant-queue timeout under fault regimes)
            // skips the query instead of blocking the stream.
            uint64_t granted_bytes = 0;
            const bool granted = co_await run.grants.acquire(
                params.grantBytes, &granted_bytes);
            if (!granted)
                continue;
            co_await replayQuery(run, pq.profile, params);
            run.grants.release(granted_bytes);
        }
    }
}

TpchRunResult
TpchDriver::runStreams(const RunConfig &cfg, int streams)
{
    const int maxdop = std::min(cfg.maxdop, cfg.cores);
    const double miss = missRate(cfg.llcMb);

    // Pre-resolve profiles outside the DES (host-side work).
    for (int q = 1; q <= tpch::kQueryCount; ++q)
        profile(q, maxdop);

    SimRun run(*db_, cfg);
    run.startSampling(double(calib::kScaleK));
    for (int s = 0; s < streams; ++s)
        run.loop.spawn(streamSession(run, maxdop, miss,
                                     cfg.seed ^ (uint64_t(s) << 8)));
    run.runToCompletion();

    TpchRunResult res;
    const double paper_seconds =
        toSeconds(cfg.duration) * double(calib::kScaleK);
    res.qps = double(run.queriesCompleted) / paper_seconds;
    res.queriesShed = run.grants.shedCount();
    res.queriesShedTimeout = run.grants.shedTimeoutCount();
    res.queriesShedAdmission = run.grants.shedAdmissionCount();
    res.mpki = touchesPerKiloInstr() * miss * calib::kAccessSampleWeight;
    if (run.sampler.hasSeries("ssd_read_Bps"))
        res.avgSsdReadBps = run.sampler.series("ssd_read_Bps").mean();
    if (run.sampler.hasSeries("ssd_write_Bps"))
        res.avgSsdWriteBps = run.sampler.series("ssd_write_Bps").mean();
    if (run.sampler.hasSeries("dram_Bps"))
        res.avgDramBps = run.sampler.series("dram_Bps").mean();
    res.ssdRead = run.sampler.hasSeries("ssd_read_Bps")
                      ? run.sampler.series("ssd_read_Bps")
                      : Distribution{};
    res.ssdWrite = run.sampler.hasSeries("ssd_write_Bps")
                       ? run.sampler.series("ssd_write_Bps")
                       : Distribution{};
    res.dram = run.sampler.hasSeries("dram_Bps")
                   ? run.sampler.series("dram_Bps")
                   : Distribution{};
    return res;
}

double
TpchDriver::runSingleQuery(int q, const RunConfig &cfg)
{
    const int maxdop = std::min(cfg.maxdop, cfg.cores);
    const ProfiledQuery &pq = profile(q, maxdop);
    SimRun run(*db_, cfg);
    ReplayParams params;
    params.dop = pq.parallelPlan ? maxdop : 1;
    params.grantBytes = run.queryGrantBytes();
    params.missRate = missRate(cfg.llcMb);
    // Record the query's own completion time: background services
    // (the checkpointer) keep the loop ticking past it.
    SimTime done = 0;
    auto wrapper = [&]() -> Task<void> {
        co_await replayQuery(run, pq.profile, params);
        done = run.loop.now();
        run.loop.stop();
    };
    run.loop.spawn(wrapper());
    run.loop.run();
    return double(done);
}

} // namespace dbsens
