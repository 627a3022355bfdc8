/**
 * @file
 * DegradationLadder: the staged-defense state machine, plus the
 * deterministic TokenBucket used for per-tenant admission control.
 *
 * The ladder climbs one rung per kEscalateTicks consecutive hot
 * ticks while an incident is active and steps down one rung after a
 * per-rung *hold* of calm ticks once the incident clears. Each
 * rung's hold follows a capped-exponential re-admission backoff
 * (core/backoff.h): a rung that keeps re-engaging holds longer each
 * time, and a sustained quiet spell at rung 0 resets every rung back
 * to the fast hold. Mid-band ticks (incident still active, pressure
 * under the entry threshold) hold position — per-rung hysteresis.
 *
 * Like the detector this is pure bookkeeping: no clocks, no RNG,
 * deterministic given the tick sequence.
 */

#ifndef DBSENS_RESIL_LADDER_H
#define DBSENS_RESIL_LADDER_H

#include "core/backoff.h"
#include "resil/resil.h"

namespace dbsens::resil {

/** Deterministic token bucket (tokens refill in simulated time). */
class TokenBucket
{
  public:
    void
    configure(double ratePerSec, double burst)
    {
        rate_ = ratePerSec;
        burst_ = burst;
        tokens_ = std::min(tokens_, burst_);
    }

    /** Refill to full and restart the refill clock at `now`. */
    void
    reset(SimTime now)
    {
        tokens_ = burst_;
        last_ = now;
    }

    /** Take one token if available (refilling for elapsed time). */
    bool
    tryTake(SimTime now)
    {
        if (now > last_) {
            tokens_ = std::min(
                burst_, tokens_ + rate_ * toSeconds(now - last_));
            last_ = now;
        }
        if (tokens_ >= 1.0) {
            tokens_ -= 1.0;
            return true;
        }
        return false;
    }

    double tokens() const { return tokens_; }

  private:
    double rate_ = 0;
    double burst_ = 0;
    double tokens_ = 0;
    SimTime last_ = 0;
};

/** Escalates and releases defense rungs with per-rung hysteresis. */
class DegradationLadder
{
  public:
    /** Hot ticks at the current rung before escalating. */
    static constexpr int kEscalateTicks = 2;
    /** Calm ticks held at a rung before stepping down: the base of
     * the per-rung capped-exponential re-admission backoff. */
    static constexpr int kHoldTicks = 6;
    /** Backoff cap: a hold never exceeds kHoldTicks << kHoldShiftCap
     * (holds 6, 12, 24, 48). */
    static constexpr int kHoldShiftCap = 3;
    /** Calm ticks at rung 0 that reset every rung's backoff. */
    static constexpr int kStrikeResetTicks = 64;

    DegradationLadder();

    /**
     * Feed one tick. `incident` is the detector state after its own
     * observe(); `hot` means this tick's pressure cleared the entry
     * threshold. Returns the rung moved to, or -1 for no change
     * (at most one rung per tick, in either direction).
     */
    int update(bool incident, bool hot);

    int rung() const { return rung_; }
    int maxRung() const { return maxRung_; }
    int escalations() const { return escalations_; }
    int deescalations() const { return deescalations_; }

  private:
    int rung_ = kRungNone;
    int maxRung_ = kRungNone;
    int hotTicks_ = 0;
    int calmTicks_ = 0;
    int quietTicks_ = 0; ///< calm ticks at rung 0 (strike reset)
    int holdNeed_ = 0;   ///< calm ticks required before stepping down
    /** Per-rung hold backoff, indexed by rung (0 unused). */
    ExpBackoff hold_[kNumRungs + 1];
    int escalations_ = 0;
    int deescalations_ = 0;
};

} // namespace dbsens::resil

#endif // DBSENS_RESIL_LADDER_H
