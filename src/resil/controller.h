/**
 * @file
 * ResilController: the per-node resilience loop (DESIGN.md Section
 * 14). Every tick it forms a scalar *pressure* from the run's own
 * telemetry — SLO-tracker violations, SSD brownout/retry gauges,
 * grant-queue timeout sheds — feeds it to the IncidentDetector, and
 * drives two couplings off the result:
 *
 *  - the autopilot change-freeze (setTuningFrozen hook) while an
 *    incident is active or any ladder rung is engaged, so tuning
 *    never optimizes into a moving target or fights the defenses;
 *  - the DegradationLadder, whose rung transitions actuate
 *    escalating reversible defenses through the same engine
 *    callbacks the autopilot uses: OLAP MAXDOP clamp (pulled by
 *    sessions), grant-pool shrink, per-tenant token-bucket admission
 *    ahead of the grant gate, and an OLTP-priority core lease.
 *
 * Determinism rules match the autopilot's: the tick is an ordinary
 * SimDelay event, inputs are side-effect-free registry reads, every
 * incident edge and rung move folds into an FNV-1a digest, and a
 * disabled config constructs nothing — byte-identical runs.
 */

#ifndef DBSENS_RESIL_CONTROLLER_H
#define DBSENS_RESIL_CONTROLLER_H

#include <functional>
#include <string>

#include "core/digest.h"
#include "core/stats.h"
#include "resil/detector.h"
#include "resil/ladder.h"
#include "resil/resil.h"
#include "sim/event_loop.h"
#include "sim/task.h"

namespace dbsens::resil {

/** Per-node incident detection + staged-degradation controller. */
class ResilController
{
  public:
    /** Engine-supplied telemetry and actuation hooks. */
    struct Hooks
    {
        /** Registry the fault/ssd/grant gauges are read from. */
        const StatsRegistry *stats = nullptr;
        /** Cumulative SLO-violation count (obs SLO tracker). */
        std::function<size_t()> sloViolations;
        /** Resize the analytical grant pool (GrantGate capacity). */
        std::function<void(uint64_t)> setGrantCapacity;
        /** Current grant-pool capacity (saved before shrinking). */
        std::function<uint64_t()> grantCapacity;
        /** Install a tenant core lease (OLTP-priority rung). */
        std::function<void(int tenant, uint64_t mask)> setCoreLease;
        /** Undo the OLTP-priority lease (autopilot re-apply, or
         * clear the masks when no autopilot runs). */
        std::function<void()> restoreShares;
        /** Autopilot change-freeze edge (no-op when tuning is off). */
        std::function<void(bool)> setTuningFrozen;
        /** Run-window predicate: the tick stops when it turns false. */
        std::function<bool()> running;
    };

    ResilController(EventLoop &loop, const ResilConfig &cfg);

    /** Install hooks (once, from the SimRun constructor). */
    void start(Hooks hooks);

    /** Spawn the tick coroutine; called when sampling starts (after
     * warmup, and after the obs ticker so SLO verdicts at equal
     * timestamps are already recorded when the tick reads them). */
    void startTicker();

    /**
     * Token-bucket admission, consulted by sessions *before* they
     * queue on the grant gate. Below the admission rung this is a
     * stateless `true` (fault-free runs stay float-identical); at
     * OLTP-priority the OLTP tenant bypasses the bucket entirely.
     */
    bool admitWork(int tenant);

    /** Extra MAXDOP cap for a tenant's plans (0 = no clamp). */
    int
    maxdopClamp(int tenant) const
    {
        if (tenant != kTenantOlap || rung() < kRungClampDop)
            return 0;
        return rung() >= kRungOltpPriority ? 1 : kOlapDopClamp;
    }

    /** Session-side re-admission backoff after the `attempt`-th
     * consecutive admission shed (deterministic, jitter-free: it
     * must not consume session RNG draws). */
    SimDuration
    admitRetryDelay(int attempt) const
    {
        return cappedExpDelay(kAdmitRetryBase, kAdmitRetryCap, attempt);
    }

    bool incidentActive() const { return detector_.active(); }
    int rung() const { return ladder_.rung(); }
    uint64_t incidentDigest() const { return digest_; }

    ResilResult result() const;

    /** Register `resil.*` gauges. */
    void registerStats(StatsRegistry &reg, const std::string &prefix);

  private:
    /** OLAP MAXDOP clamp at kRungClampDop+ (1 at OLTP-priority). */
    static constexpr int kOlapDopClamp = 2;
    /** Session-side re-admission backoff after an admission shed. */
    static constexpr SimDuration kAdmitRetryBase = microseconds(500);
    static constexpr SimDuration kAdmitRetryCap = milliseconds(8);

    Task<void> tickLoop();
    void tick();
    void actuate(int from, int to);
    double readStat(const char *name) const;
    void fold(uint64_t kind, SimTime at, uint64_t payload);

    EventLoop &loop_;
    ResilConfig cfg_;
    IncidentDetector detector_;
    DegradationLadder ladder_;
    TokenBucket bucket_[kNumTenants];
    Hooks hooks_;
    bool started_ = false;
    int ticks_ = 0;
    double lastPressure_ = 0;
    bool frozen_ = false;
    int freezes_ = 0;
    uint64_t savedGrant_ = 0; ///< capacity before the shrink rung
    double lastViol_ = 0;
    double lastRetries_ = 0;
    double lastSheds_ = 0;
    uint64_t admitted_[kNumTenants] = {0, 0};
    uint64_t admitSheds_[kNumTenants] = {0, 0};
    std::vector<LadderTransition> transitions_;
    uint64_t digest_ = kFnvBasis;
};

} // namespace dbsens::resil

#endif // DBSENS_RESIL_CONTROLLER_H
