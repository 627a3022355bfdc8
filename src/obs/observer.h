/**
 * @file
 * RunObserver: the per-run observability bundle — a BlameLedger, a
 * SeriesHub, and an SloTracker — plus the tick that samples series,
 * evaluates SLOs, and emits Chrome-trace counter tracks. SimRun owns
 * one behind a null pointer (RunConfig::obs.enabled); every
 * instrumentation site in sim/txn/engine is gated on that pointer (or
 * an empty std::function), so observability-off runs execute exactly
 * the HEAD instruction stream and stay byte-identical.
 *
 * AttributionResult is the harness-facing snapshot: mergeable across
 * crash/recovery phases, serializable into the run report (`obs` key),
 * and the unit dbsens_explain renders.
 */

#ifndef DBSENS_OBS_OBSERVER_H
#define DBSENS_OBS_OBSERVER_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/json.h"
#include "core/sim_time.h"
#include "core/stats.h"
#include "obs/blame.h"
#include "obs/series.h"

namespace dbsens {
namespace obs {

/** Observability knobs on RunConfig. Disabled by default. */
struct ObsConfig
{
    bool enabled = false;
    /** Series/SLO sampling period (paper-style 1 simulated second;
     * benches with sub-second windows shrink it). */
    SimDuration sampleEvery = seconds(1);
    /** Closed-loop sessions per tenant; 0 = auto-fill from workload. */
    int sessions[kNumTenants] = {0, 0};
    SloSpec slo[kNumTenants];
};

/** Snapshot of one run's (or merged phases') attribution. */
struct AttributionResult
{
    struct SeriesSnapshot
    {
        std::string name;
        SeriesKind kind = SeriesKind::Rate;
        uint64_t stride = 1;
        uint64_t samples = 0;
        double mean = 0;
        double max = 0;
        std::vector<SeriesPoint> points;
    };

    bool enabled = false;
    double windowNs = 0;
    TenantAttribution tenants[kNumTenants];
    std::vector<QueryAttribution> queries;
    std::vector<SloViolation> violations;
    std::vector<SeriesSnapshot> series;
    uint64_t digest = 0;

    /** Fold another phase's snapshot in (crash/recovery phases). */
    void merge(const AttributionResult &other);

    /** Charge harness-level recovery replay: stalls every session of
     * `tenant`, so both the Recovery share and the makespan grow. */
    void addRecovery(int tenant, double ns);

    /** Relative |makespan - sum(shares)| / makespan, worst tenant. */
    double sumError() const;

    Json toJson() const;
};

/** Per-run observability engine (see file header). */
class RunObserver
{
  public:
    RunObserver(const ObsConfig &cfg, const StatsRegistry &reg,
                std::function<SimTime()> now);

    const ObsConfig &config() const { return cfg_; }
    BlameLedger &ledger() { return ledger_; }
    SeriesHub &hub() { return hub_; }
    SloTracker &slo() { return slo_; }

    /** Bind a registry stat to a Chrome-trace counter track. */
    void addCounter(std::string trace_name, std::string stat,
                    double scale = 1.0);

    /** Open the measured window (call at warmup end). */
    void beginWindow(SimTime t);

    /** One sampling tick at time `t`: sample series, evaluate SLOs
     * (emitting trace instants for violations), emit counters. */
    void tick(SimTime t);

    /** Close the window (run end or crash). Idempotent. */
    void freeze(SimTime t);

    // ---- instrumentation-site helpers (all clip to the window) ----
    void chargeIo(int tenant, bool write, SimTime start, SimTime end);
    void chargeGrantWait(int tenant, SimTime start, SimTime end);
    void beginQuery(int tenant, const std::string &name, SimTime t);
    void endQuery(int tenant, SimTime t);
    void recordLatency(int tenant, SimDuration latency_ns);

    /** Snapshot for the harness result. */
    AttributionResult finish() const;

  private:
    struct CounterSpec
    {
        std::string traceName;
        std::string stat;
        double scale = 1.0;
    };

    ObsConfig cfg_;
    const StatsRegistry &reg_;
    BlameLedger ledger_;
    SeriesHub hub_;
    SloTracker slo_;
    std::vector<CounterSpec> counters_;
    size_t violationsTraced_ = 0;
};

} // namespace obs
} // namespace dbsens

#endif // DBSENS_OBS_OBSERVER_H
