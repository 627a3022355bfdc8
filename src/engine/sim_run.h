/**
 * @file
 * SimRun: one experiment's simulated server — event loop, CPU complex,
 * SSD, DRAM, LLC (with the run's CAT allocation), buffer pool, lock
 * manager, WAL, wait stats, and the interval metric sampler. Mirrors
 * the paper's per-experiment setup (Section 3): set resource knobs,
 * load/warm the database, run for a fixed duration, sample at
 * 1-second(-equivalent) intervals.
 */

#ifndef DBSENS_ENGINE_SIM_RUN_H
#define DBSENS_ENGINE_SIM_RUN_H

#include <functional>
#include <memory>
#include <unordered_set>

#include "core/calibration.h"
#include "core/fault.h"
#include "core/stats.h"
#include "engine/database.h"
#include "engine/grant_gate.h"
#include "hw/cache_feed.h"
#include "obs/observer.h"
#include "resil/controller.h"
#include "sim/core_scheduler.h"
#include "sim/dram_model.h"
#include "sim/event_loop.h"
#include "sim/sampler.h"
#include "sim/ssd_model.h"
#include "stats_sketch/hub.h"
#include "tune/autopilot.h"
#include "txn/latch_table.h"
#include "txn/lock_manager.h"
#include "txn/wait_stats.h"
#include "txn/wal.h"

namespace dbsens {

class SimRun;

/** Resource knobs for one experiment run. */
struct RunConfig
{
    int cores = calib::kLogicalCores; ///< allowed logical cores
    int llcMb = 40;                   ///< total CAT allocation (2..40)
    int maxdop = 32;                  ///< max degree of parallelism
    double grantFraction = calib::kDefaultGrantFraction;
    double ssdReadLimitBps = 0;  ///< 0 = device limit
    double ssdWriteLimitBps = 0; ///< 0 = device limit
    SimDuration duration = milliseconds(400);
    /**
     * Sampling interval. OLTP runs use 1 simulated second (work is
     * scale-free); OLAP runs use the paper-equivalent second
     * (kSampleIntervalNs). See sim/sampler.h.
     */
    SimDuration sampleInterval = calib::kSampleIntervalNs;
    /**
     * Measurement starts after this window: sessions run, caches and
     * queues reach steady state, then counters reset (the paper's
     * 1-hour runs amortize warm-up; short simulated runs must not).
     */
    SimDuration warmup = 0;
    uint64_t seed = 1;
    bool prewarmBufferPool = true;
    /**
     * Lock wait budget before a transaction is picked as a timeout
     * victim (the paper's deadlock-resolution surrogate).
     */
    SimDuration lockTimeout = milliseconds(50);
    /**
     * Victim retry policy: a transaction aborted by a lock timeout is
     * retried up to this many times with capped exponential backoff
     * before the session gives up on it. 0 keeps the seed behaviour
     * (single fixed backoff, no retry accounting).
     */
    int txnRetryLimit = 0;
    /**
     * Deadlock resolution: TimeoutOnly keeps the seed behaviour;
     * Detector runs a periodic waits-for-graph cycle search with the
     * timeout as a fallback.
     */
    DeadlockPolicy deadlockPolicy = DeadlockPolicy::TimeoutOnly;
    /** Cadence of the waits-for-graph search under Detector. */
    SimDuration deadlockCheckInterval = microseconds(500);
    /**
     * Full-history sink for the serializability oracle (src/verify).
     * Owned by the harness like the journal; null ⇒ no capture and
     * byte-identical runs.
     */
    WalHistory *history = nullptr;
    /**
     * Online audit callback, invoked by the harness at the end of
     * each run phase while the server is still alive (`phase` counts
     * from 0 across crash segments). Null ⇒ no auditing.
     */
    std::function<void(SimRun &, int)> phaseAudit;
    /** Fault-injection regime (disabled ⇒ byte-identical runs). */
    FaultConfig fault;
    /**
     * Autopilot configuration (disabled ⇒ no Autopilot is built, no
     * lease/COS mask installed, no epoch event scheduled — runs stay
     * byte-identical). See src/tune/.
     */
    TuneConfig tune;
    /**
     * Observability: resource-blame attribution, per-tenant series,
     * and SLO tracking (disabled ⇒ no RunObserver is built, no taps
     * installed, no tick scheduled — runs stay byte-identical).
     */
    obs::ObsConfig obs;
    /**
     * Resilience controller: incident detection, autopilot
     * change-freeze, and the staged degradation ladder (disabled ⇒
     * no controller is built, no tick scheduled, sessions skip every
     * admission check — runs stay byte-identical).
     */
    resil::ResilConfig resil;
    /**
     * Sketch statistics backbone (disabled ⇒ no SketchHub is built,
     * every tap site is gated on the null pointer — runs stay
     * byte-identical). An *enabled* hub only observes: it draws no
     * RNG, schedules no events, and simulated results are unchanged.
     * See src/stats_sketch/.
     */
    sketch::SketchConfig sketch;
    /**
     * First transaction id minus one. The harness advances this across
     * crash phases so a resumed run never reuses an earlier phase's
     * ids — the WAL history and the recovery reconciliation key
     * transactions by id, and an alias would merge two transactions.
     */
    TxnId txnIdBase = 0;
    /**
     * First WAL LSN minus one. Cluster nodes advance this across crash
     * incarnations so one node's journal stays a single monotonic LSN
     * space — checkpoint truncation and recovery compare LSNs across
     * incarnations. 0 keeps the single-box behaviour.
     */
    uint64_t walLsnBase = 0;
};

/** One experiment's simulated server and measurement state. */
class SimRun
{
    // Owns the loop unless a shared external one is supplied; declared
    // before `loop` so the reference below binds to a live object.
    std::unique_ptr<EventLoop> ownedLoop_;

  public:
    SimRun(Database &db, const RunConfig &cfg);
    /**
     * Cluster-node variant: run on a shared external loop, measuring
     * the run window from the loop's current time (the node's start
     * epoch), so N nodes and their restarts coexist on one clock.
     */
    SimRun(Database &db, const RunConfig &cfg, EventLoop &ext);
    ~SimRun();

    SimRun(const SimRun &) = delete;
    SimRun &operator=(const SimRun &) = delete;

    Database &db() { return db_; }
    const RunConfig &config() const { return cfg_; }

    EventLoop &loop;
    DramModel dram;
    CoreScheduler cpu;
    SsdModel ssd;
    LlcSim llc;
    LiveCacheFeed feed;
    BufferPool pool;
    LockManager locks;
    LatchTable latches;
    /** Query-memory admission (Section 8: grants bound concurrency). */
    GrantGate grants{loop, calib::queryMemoryRealBytes()};
    WalWriter wal;
    MetricSampler sampler;
    WaitStats waits;
    /** Fault injector; null unless cfg.fault.enabled. */
    std::unique_ptr<FaultInjector> faults;
    /** Closed-loop resource controller; null unless cfg.tune.enabled
     * (sessions consult it for MAXDOP caps and grant budgets). */
    std::unique_ptr<Autopilot> autopilot;
    /** Observability engine; null unless cfg.obs.enabled. Every
     * instrumentation site is gated on this pointer. */
    std::unique_ptr<obs::RunObserver> obs;
    /** Resilience controller; null unless cfg.resil.enabled. Sessions
     * consult it for admission and MAXDOP clamps. */
    std::unique_ptr<resil::ResilController> resil;
    /** Sketch-statistics hub; null unless cfg.sketch.enabled. Every
     * tap site (txn path, query runner, optimizer, grant actuators)
     * is gated on this pointer. */
    std::unique_ptr<sketch::SketchHub> sketch;
    /**
     * Unified per-run stats registry: every component above registers
     * gauges here under a dotted prefix (`bufferpool.misses`,
     * `ssd.read_bytes`, `sched.core3.busy_ns`, `waits.LOCK.total_ns`,
     * ...). Reading it is side-effect free; the sampler and the JSON
     * run report are views over it.
     */
    StatsRegistry stats;

    // Workload progress counters (read by the sampler and harness).
    uint64_t txnsCommitted = 0;
    uint64_t txnsAborted = 0;
    uint64_t queriesCompleted = 0;
    double instructionsRetired = 0;
    /** Lock-timeout victims retried by their session. */
    uint64_t txnsRetried = 0;
    /** Victims abandoned after the retry budget ran out. */
    uint64_t txnsGivenUp = 0;
    /** Analytical queries shed (timeout + admission). */
    uint64_t queriesShed = 0;
    /** ... by the grant-queue timeout (fault.grantTimeout). */
    uint64_t queriesShedTimeout = 0;
    /** ... by resilience token-bucket admission, ahead of the gate. */
    uint64_t queriesShedAdmission = 0;
    /**
     * Nominal (spill- and stall-free) instruction-ns completed by
     * OLAP-tagged replay morsels. The autopilot's tenant-1 progress
     * metric: invariant work units, so shrinking a knob can never be
     * scored as "progress" via its own overhead.
     */
    double olapUsefulNs = 0;

    /** Allocate a fresh transaction id. */
    TxnId allocTxnId() { return ++txnSeq_; }

    /** Highest transaction id allocated so far (crash-phase handoff). */
    TxnId lastTxnId() const { return txnSeq_; }

    /** Query memory available for grants under this config. */
    uint64_t
    queryGrantBytes() const
    {
        return uint64_t(cfg_.grantFraction *
                        double(calib::queryMemoryRealBytes()));
    }

    /** Register the standard counter set and start sampling. The
     * sampled series are views over the stats registry. */
    void startSampling(double byte_scale);

    /**
     * Checkpoint / lazy-writer cadence. Dirty buffer pages are
     * written back continuously (SQL Server's background writer), so
     * update-heavy workloads generate steady write traffic even when
     * the database fits in memory — the premise of the paper's
     * Section 6 write-limit experiments.
     */
    static constexpr SimDuration kCheckpointInterval = milliseconds(2);
    static constexpr uint64_t kCheckpointBatchBytes = 1u << 20;

    /** Run the workload until the configured duration elapses. */
    void runToCompletion();

    /** Advance through the warm-up window and reset the counters. */
    void completeWarmup();

    /** True while the run window is open (sessions check this). */
    bool
    running() const
    {
        return !crashed_ &&
               loop.now() < start_ + cfg_.warmup + cfg_.duration;
    }

    /** Loop time at construction (0 unless on a shared loop). */
    SimTime startTime() const { return start_; }

    // ----- crash state (set by the injector's crash hook)

    bool crashed() const { return crashed_; }
    SimTime crashTime() const { return crashTime_; }
    /** Durable WAL horizon captured at the crash point. */
    uint64_t crashDurableLsn() const { return crashDurableLsn_; }

    /**
     * Test hook for FaultEvent::Kind::CorruptRow: silently bump a
     * stored value picked by `ordinal`, bypassing the WAL and page
     * versioning, so auditors have a genuine defect to catch.
     */
    void corruptOneRow(uint64_t ordinal);

    // ----- active-transaction tracking (fuzzy checkpoints; only
    // ----- maintained while the WAL is capturing a journal)

    void
    noteTxnBegin(TxnId id)
    {
        if (wal.capturing())
            activeTxns_.insert(id);
    }

    void
    noteTxnEnd(TxnId id)
    {
        if (wal.capturing())
            activeTxns_.erase(id);
    }

    std::vector<TxnId>
    activeTxnList() const
    {
        return {activeTxns_.begin(), activeTxns_.end()};
    }

  private:
    /** EventLoop-backed clock for the injector (core can't see sim). */
    struct LoopTimeline : FaultInjector::Timeline
    {
        explicit LoopTimeline(EventLoop &l) : loop(l) {}
        SimTime now() const override { return loop.now(); }
        void
        at(SimTime t, std::function<void()> fn) override
        {
            loop.at(t, std::move(fn));
        }
        EventLoop &loop;
    };

    SimRun(Database &db, const RunConfig &cfg, EventLoop *ext);

    /** Grant-pool actuator shared by the autopilot and the resilience
     * controller: resize the pool, then report the new capacity to
     * the sketch resize ladder. */
    void setGrantCapacity(uint64_t bytes);

    Database &db_;
    RunConfig cfg_;
    SimTime start_ = 0;
    TxnId txnSeq_ = 0;
    std::unique_ptr<LoopTimeline> timeline_;
    std::unordered_set<TxnId> activeTxns_;
    bool crashed_ = false;
    SimTime crashTime_ = 0;
    uint64_t crashDurableLsn_ = 0;
    int llcMbNow_ = 0;
};

} // namespace dbsens

#endif // DBSENS_ENGINE_SIM_RUN_H
