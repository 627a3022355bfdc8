/**
 * @file
 * Autopilot: the event-loop-driven controller that closes the paper's
 * sensitivity loop online. Every control epoch it reads per-tenant
 * progress deltas from the run's StatsRegistry, forms a weighted
 * throughput score, picks the next KnobState, and actuates the diff
 * through engine-supplied callbacks (core leases, CAT COS masks,
 * grant-pool capacity; the MAXDOP cap is pulled by sessions at plan
 * choice).
 *
 * It is the only tuning controller. Under probe-and-shift it consults
 * a ProbeAndShiftPolicy climber each epoch; the static and oracle
 * policies hold their initial state for the whole run. While the
 * resilience controller has tuning change-frozen it holds the state
 * the climber rolled back to.
 *
 * Determinism rules (DESIGN.md section 11):
 *  - the epoch tick is an ordinary SimDelay event — decisions happen
 *    at deterministic simulated times, interleaved FIFO with the
 *    workload's own events;
 *  - inputs are registry reads (side-effect free) of counters that
 *    are themselves deterministic;
 *  - every applied knob change folds into an FNV-1a trajectory
 *    digest, so two runs with the same seed can be compared
 *    bit-for-bit;
 *  - a disabled TuneConfig constructs no Autopilot at all: no lease,
 *    no COS mask, no epoch event — byte-identical runs (the same
 *    null-pointer gate as fault injection and tracing).
 */

#ifndef DBSENS_TUNE_AUTOPILOT_H
#define DBSENS_TUNE_AUTOPILOT_H

#include <functional>
#include <optional>
#include <string>

#include "core/digest.h"
#include "core/stats.h"
#include "sim/event_loop.h"
#include "sim/task.h"
#include "tune/arbiter.h"
#include "tune/policy.h"
#include "tune/tune.h"

namespace dbsens {

/** Closed-loop multi-tenant resource controller. */
class Autopilot
{
  public:
    /** Engine-supplied actuation and measurement hooks. */
    struct Actuators
    {
        /** Install a tenant's core lease (CoreScheduler mask). */
        std::function<void(int tenant, uint64_t mask)> setCoreLease;
        /** Set a COS's CAT way mask (COS id == tenant id). */
        std::function<void(int cos, uint32_t mask)> setLlcMask;
        /** Resize the analytical grant pool (GrantGate capacity). */
        std::function<void(uint64_t bytes)> setGrantCapacity;
        /** Registry the per-tenant progress stats are read from. */
        const StatsRegistry *stats = nullptr;
        /** Monotone progress stat per tenant (e.g.
         * "run.txns_committed", "run.olap_useful_ns"). */
        std::string progressStat[kNumTenants];
        /**
         * Tail-latency level stat (e.g. the sketch hub's
         * "sketch.t0.lat_p99_ms"). Empty ⇒ no latency guardrail:
         * EpochMetrics::latencyMs stays negative and the climber
         * ignores it, preserving pre-sketch trajectories bit-for-bit.
         */
        std::string latencyStat;
        /** Run-window predicate: tuning stops when it turns false. */
        std::function<bool()> running;
    };

    /**
     * Baseline epochs before probing starts; also the window used to
     * self-normalize the per-tenant score weights: each becomes
     * 1 / (tenant's mean rate over these epochs), so the even-split
     * baseline scores ~= kNumTenants and the score is a sum of
     * normalized per-tenant throughputs.
     */
    static constexpr int kBaselineEpochs = 2;

    /**
     * `start_delay` holds off the first control epoch (SimRun passes
     * the run's warmup, so measurement starts in steady state); the
     * initial knob state is still applied at once by start().
     */
    Autopilot(EventLoop &loop, const TuneConfig &cfg,
              const ResourceTotals &totals, SimDuration start_delay);

    /**
     * Apply the initial state through the actuators and start the
     * epoch loop. Called once from the SimRun constructor.
     */
    void start(Actuators act);

    const KnobState &state() const { return state_; }
    const ResourceArbiter &arbiter() const { return arbiter_; }
    const TuneConfig &config() const { return cfg_; }

    /** MAXDOP cap a tenant's sessions must plan under. */
    int maxdopCap(int tenant) const
    {
        return state_.tenant[tenant].maxdop;
    }

    int epochs() const { return epochs_; }
    uint64_t trajectoryDigest() const { return digest_; }

    /**
     * Label of the epoch now running, stamped on its trace span:
     * "frozen" while change-frozen, otherwise the climber's label
     * ("baseline", "probe:...", "trial:...", "hold"), or "static"
     * when no climber runs.
     */
    std::string phaseLabel() const;

    /**
     * Enter/leave change-freeze (no-op when the state matches).
     * Freezing immediately rolls back any in-flight trial (the held
     * state is re-applied right away, not at the next epoch); both
     * edges fold into the trajectory digest and land on the tune
     * trace track.
     */
    void setFrozen(bool frozen);

    bool frozen() const { return frozen_; }
    int freezes() const { return freezes_; }

    /** Re-apply the current knob state through every actuator —
     * undoes out-of-band actuation (e.g. the resilience ladder's
     * OLTP-priority core lease) when the emergency lifts. */
    void reapply() { applyState(state_, /*force=*/true); }

    /** Harness-facing summary for OltpRunResult / reports. */
    TuneResult result() const;

    /** Register `tune.*` gauges (shares, score, activity counters). */
    void registerStats(StatsRegistry &reg, const std::string &prefix);

  private:
    Task<void> epochLoop();
    void applyState(const KnobState &next, bool force);
    double readProgress(int tenant) const;
    void foldKnob(int tenant, int knob, uint64_t value);

    EventLoop &loop_;
    TuneConfig cfg_;
    SimDuration startDelay_;
    ResourceArbiter arbiter_;
    /** Engaged only under TunePolicyKind::ProbeAndShift. */
    std::optional<ProbeAndShiftPolicy> climber_;
    Actuators act_;
    KnobState state_;
    /** State applied while frozen or when no climber runs: the
     * initial state, or what the climber rolled back to on freeze. */
    KnobState held_;
    bool frozen_ = false;
    int freezes_ = 0;
    bool started_ = false;
    int epochs_ = 0;
    double lastScore_ = 0;
    double weight_[kNumTenants] = {0, 0};
    bool weightsSet_ = false;
    double rateSum_[kNumTenants] = {0, 0};
    double lastProgress_[kNumTenants] = {0, 0};
    double lastRate_[kNumTenants] = {0, 0};
    uint64_t digest_ = kFnvBasis;
};

} // namespace dbsens

#endif // DBSENS_TUNE_AUTOPILOT_H
