#include "tune/policy.h"

#include <algorithm>
#include <cmath>

namespace dbsens {

namespace {

/** Smoothing for the baseline score estimate. The window is short
 * (epochs are milliseconds), so weight recent epochs heavily. */
constexpr double kEwmaAlpha = 0.5;

/** Epochs a rolled-back move is skipped before being retried. */
constexpr int kCooldownEpochs = 4;

} // namespace

ProbeAndShiftPolicy::ProbeAndShiftPolicy(const ResourceArbiter &arb,
                                         const TuneConfig &cfg,
                                         KnobState base)
    : arb_(arb), cfg_(cfg), base_(arb.clamp(base))
{
}

void
ProbeAndShiftPolicy::blendEwma(const EpochMetrics &m)
{
    if (haveEwma_) {
        ewma_ = kEwmaAlpha * m.score + (1.0 - kEwmaAlpha) * ewma_;
        for (int t = 0; t < kNumTenants; ++t)
            rateEwma_[t] = kEwmaAlpha * m.rate[t] +
                           (1.0 - kEwmaAlpha) * rateEwma_[t];
    } else {
        ewma_ = m.score;
        for (int t = 0; t < kNumTenants; ++t)
            rateEwma_[t] = m.rate[t];
    }
    haveEwma_ = true;
    if (m.latencyMs >= 0)
        latEwma_ = latEwma_ < 0 ? m.latencyMs
                                : kEwmaAlpha * m.latencyMs +
                                      (1.0 - kEwmaAlpha) * latEwma_;
}

std::vector<ProbeResult>
ProbeAndShiftPolicy::rankedProbes() const
{
    std::vector<ProbeResult> out;
    for (const auto &kv : probeAccum_) {
        const ProbeAccum &a = kv.second;
        if (a.count == 0)
            continue;
        ProbeResult r;
        r.move = a.move;
        r.delta = a.deltaSum / double(a.count);
        for (int t = 0; t < kNumTenants; ++t)
            r.rateDelta[t] = a.rateSum[t] / double(a.count);
        r.measured = true;
        out.push_back(r);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const ProbeResult &a, const ProbeResult &b) {
                         return a.delta > b.delta;
                     });
    return out;
}

KnobState
ProbeAndShiftPolicy::startProbe()
{
    cycleShifts_ = 0;
    // A cooling-down move was just measured (and rolled back); spend
    // no probe epoch re-measuring it.
    std::vector<TuneMove> moves;
    for (const TuneMove &mv : arb_.moves(base_)) {
        auto cd = cooldown_.find(mv.name());
        if (cd != cooldown_.end() && cd->second > 0)
            continue;
        moves.push_back(mv);
    }
    probe_.begin(std::move(moves));
    if (const TuneMove *mv = probe_.current()) {
        mode_ = Mode::Probe;
        label_ = "probe:" + mv->name();
        return arb_.applied(base_, *mv);
    }
    mode_ = Mode::Hold;
    holdEpochs_ = 0;
    label_ = "hold";
    return base_;
}

KnobState
ProbeAndShiftPolicy::startShift()
{
    // Trial only the moves whose probe delta cleared the hysteresis
    // margin: a merely-positive delta is indistinguishable from epoch
    // noise, and trialing it risks committing a backward move on a
    // second noise spike.
    const double margin = std::abs(ewma_) * cfg_.hysteresis;
    candidates_.clear();
    for (const ProbeResult &r : probe_.ranked())
        if (r.delta > margin)
            candidates_.push_back(r);
    cand_ = 0;
    return nextCandidateOrHold();
}

KnobState
ProbeAndShiftPolicy::nextCandidateOrHold()
{
    while (cand_ < candidates_.size()) {
        const TuneMove &mv = candidates_[cand_++].move;
        auto cd = cooldown_.find(mv.name());
        if (cd != cooldown_.end() && cd->second > 0)
            continue;
        KnobState s = base_;
        if (!arb_.apply(s, mv))
            continue;
        trialMove_ = mv;
        trialState_ = s;
        mode_ = Mode::Trial;
        label_ = "trial:" + mv.name();
        return s;
    }
    mode_ = Mode::Hold;
    holdEpochs_ = 0;
    // Converged (nothing committed this cycle): back off the next
    // probe exponentially. Any commit resets to the fast cadence.
    holdLimit_ = cycleShifts_ > 0
                     ? kReprobeHoldEpochs
                     : std::min(holdLimit_ * 2, kMaxHoldEpochs);
    label_ = "hold";
    return base_;
}

KnobState
ProbeAndShiftPolicy::onFreeze()
{
    // An in-flight trial is treated exactly like a failed one: roll
    // back to the last committed state and cool the move down, so a
    // move that looked good only because the incident was ramping
    // does not get re-trialed the moment the freeze lifts.
    if (mode_ == Mode::Trial) {
        ++rollbacks_;
        cooldown_[trialMove_.name()] = kCooldownEpochs;
    }
    // A half-finished probe pass is worthless (its deltas mix healthy
    // and incident epochs); drop it.
    probe_.begin({});
    mode_ = Mode::Hold;
    holdEpochs_ = 0;
    label_ = "hold";
    return base_;
}

void
ProbeAndShiftPolicy::onUnfreeze()
{
    // Post-incident the sensitivity landscape has likely moved:
    // restart the re-probe backoff from the fast cadence.
    holdLimit_ = kReprobeHoldEpochs;
    holdEpochs_ = 0;
    mode_ = Mode::Hold;
    label_ = "hold";
}

KnobState
ProbeAndShiftPolicy::onEpoch(const EpochMetrics &m)
{
    for (auto &kv : cooldown_)
        if (kv.second > 0)
            --kv.second;

    switch (mode_) {
      case Mode::Baseline:
        if (!m.baselineDone) {
            label_ = "baseline";
            return base_;
        }
        blendEwma(m);
        return startProbe();

      case Mode::Probe: {
        // m scored the probe epoch of probe_.current().
        ++probes_;
        const TuneMove probed = *probe_.current();
        double rate_delta[kNumTenants];
        for (int t = 0; t < kNumTenants; ++t)
            rate_delta[t] = m.rate[t] - rateEwma_[t];
        probe_.record(m.score - ewma_, rate_delta);
        ProbeAccum &acc = probeAccum_[probed.name()];
        acc.move = probed;
        acc.deltaSum += m.score - ewma_;
        for (int t = 0; t < kNumTenants; ++t)
            acc.rateSum[t] += rate_delta[t];
        ++acc.count;
        if (const TuneMove *mv = probe_.current()) {
            label_ = "probe:" + mv->name();
            return arb_.applied(base_, *mv);
        }
        return startShift();
      }

      case Mode::Trial: {
        // Guardrail: commit only when the trial epoch clears the
        // hysteresis margin over the smoothed baseline; otherwise
        // roll back and cool the move down. The latency guardrail
        // vetoes a commit regardless of score: a trial whose tail
        // latency worsened past the tolerance is rolled back.
        const double margin = std::abs(ewma_) * cfg_.hysteresis;
        const bool lat_bad =
            m.latencyMs >= 0 && latEwma_ > 0 &&
            m.latencyMs > latEwma_ * (1.0 + kLatencyTolerance);
        if (lat_bad) {
            ++rollbacks_;
            ++latencyRollbacks_;
            cooldown_[trialMove_.name()] = kCooldownEpochs;
        } else if (m.score > ewma_ + margin) {
            ++shifts_;
            ++cycleShifts_;
            base_ = trialState_;
            // Re-level the baseline toward the new state. Blending
            // (not assignment) keeps an outlier-high trial epoch from
            // setting a bar the state's true score can never clear.
            blendEwma(m);
            // A shift that paid usually pays again: keep pushing the
            // same direction until it stops clearing the margin.
            KnobState again = base_;
            if (arb_.apply(again, trialMove_)) {
                trialState_ = again;
                label_ = "trial:" + trialMove_.name();
                return again;
            }
        } else {
            ++rollbacks_;
            cooldown_[trialMove_.name()] = kCooldownEpochs;
        }
        return nextCandidateOrHold();
      }

      case Mode::Hold:
        blendEwma(m);
        if (++holdEpochs_ >= holdLimit_)
            return startProbe();
        label_ = "hold";
        return base_;
    }
    return base_;
}

} // namespace dbsens
