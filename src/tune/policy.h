/**
 * @file
 * ProbeAndShiftPolicy: the climber the Autopilot consults each control
 * epoch when the run's policy is probe-and-shift. Sensitivity probing
 * (one knob at a time) is followed by guardrailed hill-climbing —
 * trial shifts commit only when the score clears a hysteresis margin,
 * roll back otherwise, and rolled-back moves cool down before being
 * retried. The static and oracle policies need no climber: the
 * Autopilot holds their initial state for the whole run.
 *
 * The climber is called once per control epoch with the metrics of
 * the epoch that just ended and returns the state to run next. It is
 * a pure state machine: deterministic given the metric sequence.
 */

#ifndef DBSENS_TUNE_POLICY_H
#define DBSENS_TUNE_POLICY_H

#include <map>
#include <string>
#include <vector>

#include "tune/arbiter.h"
#include "tune/probe.h"
#include "tune/tune.h"

namespace dbsens {

/** What the Autopilot measured over one control epoch. */
struct EpochMetrics
{
    int epoch = 0; ///< 1-based epoch index
    /** Per-tenant progress per second over the epoch. */
    double rate[kNumTenants] = {0, 0};
    /** Weighted score (meaningless until baselineDone). */
    double score = 0;
    /** True once the baseline window has fixed the score weights. */
    bool baselineDone = false;
    /**
     * Tail-latency level (ms) read from Actuators::latencyStat at the
     * epoch boundary; negative when no latency stat is wired, and
     * the climber then skips the latency guardrail entirely.
     */
    double latencyMs = -1;
};

/** Probe sensitivities, then guardrailed hill-climbing. */
class ProbeAndShiftPolicy
{
  public:
    ProbeAndShiftPolicy(const ResourceArbiter &arb,
                        const TuneConfig &cfg, KnobState base);

    /**
     * Decide the knob state for the next epoch, given the metrics of
     * the epoch that just ended.
     */
    KnobState onEpoch(const EpochMetrics &m);

    /**
     * Label describing the epoch the last onEpoch() call set up
     * ("baseline", "probe:cores0>1x2", "trial:...", "hold") — the
     * Autopilot stamps it on the epoch's trace span.
     */
    const std::string &phaseLabel() const { return label_; }

    /** The last committed state (the clamped initial state until a
     * shift commits): what holds, probes and trials start from. */
    const KnobState &base() const { return base_; }

    /**
     * A change-freeze begins (resilience guardrail): roll back an
     * in-flight trial (cooling its move down) or drop a half-finished
     * probe pass, and return the last committed state to hold.
     */
    KnobState onFreeze();

    /**
     * The freeze lifted: the incident likely shifted the sensitivity
     * landscape, so restart the re-probe backoff from its fast
     * setting.
     */
    void onUnfreeze();

    int probes() const { return probes_; }
    int shifts() const { return shifts_; }
    int rollbacks() const { return rollbacks_; }
    /** ... of which were forced by the tail-latency guardrail. */
    int latencyRollbacks() const { return latencyRollbacks_; }

    /**
     * Tail-latency guardrail (EpochMetrics::latencyMs, fed from the
     * sketch hub's per-tenant quantiles): a trial epoch whose latency
     * exceeds the smoothed baseline by more than this fraction is
     * rolled back even when its score cleared the hysteresis margin —
     * a shift must not buy throughput with the OLTP tail.
     */
    static constexpr double kLatencyTolerance = 0.25;

    /**
     * Probe measurements averaged over every pass of the run, ranked
     * best mean delta first. Single probe epochs are noisy (drift in
     * the analytical pipeline shows up as a score delta); averaging
     * across passes is what makes the ranking usable as a
     * sensitivity ground truth (bench_fig11_attribution).
     */
    std::vector<ProbeResult> rankedProbes() const;

    /** Epochs spent holding before sensitivities are re-probed. A
     * probe pass costs one epoch per feasible move, so re-probing
     * often keeps the climb going on short runs while the hold still
     * damps oscillation. The hold doubles (up to the cap) after each
     * probe cycle that commits nothing: once converged, the policy
     * stops paying the perturbation cost of fruitless probing. */
    static constexpr int kReprobeHoldEpochs = 6;
    static constexpr int kMaxHoldEpochs = 48;

  private:
    enum class Mode { Baseline, Probe, Trial, Hold };

    KnobState startProbe();
    KnobState startShift();
    KnobState nextCandidateOrHold();
    void blendEwma(const EpochMetrics &m);

    /** Per-move running sums across every probe pass of the run. */
    struct ProbeAccum
    {
        TuneMove move;
        double deltaSum = 0;
        double rateSum[kNumTenants] = {0, 0};
        int count = 0;
    };

    const ResourceArbiter &arb_;
    TuneConfig cfg_;
    KnobState base_;
    SensitivityProbe probe_;
    Mode mode_ = Mode::Baseline;
    double ewma_ = 0;
    double rateEwma_[kNumTenants] = {0, 0};
    /** Smoothed latency baseline; <0 until a latency stat is seen. */
    double latEwma_ = -1;
    bool haveEwma_ = false;
    std::map<std::string, ProbeAccum> probeAccum_;
    std::vector<ProbeResult> candidates_;
    size_t cand_ = 0;
    TuneMove trialMove_;
    KnobState trialState_;
    std::map<std::string, int> cooldown_;
    int holdEpochs_ = 0;
    int holdLimit_ = kReprobeHoldEpochs;
    int cycleShifts_ = 0; ///< commits since the last startProbe()
    int probes_ = 0;
    int shifts_ = 0;
    int rollbacks_ = 0;
    int latencyRollbacks_ = 0;
    std::string label_ = "baseline";
};

} // namespace dbsens

#endif // DBSENS_TUNE_POLICY_H
