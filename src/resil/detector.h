/**
 * @file
 * IncidentDetector: hysteresis state machine over a scalar pressure
 * signal. The controller computes pressure each tick from SLO
 * violations and fault.* gauge deltas; the detector decides when
 * that constitutes an *incident episode* — entry requires
 * kEnterTicks consecutive ticks at/above kEnterPressure, exit
 * requires kExitTicks consecutive ticks at/below kExitPressure, and
 * the band between the thresholds holds the current state. A
 * boundary-oscillating signal (alternating hot and calm ticks)
 * therefore never flaps: neither streak ever completes.
 *
 * Pure bookkeeping, no clocks or RNG of its own: deterministic given
 * the (time, pressure) sequence, which makes same-seed incident logs
 * bit-identical.
 */

#ifndef DBSENS_RESIL_DETECTOR_H
#define DBSENS_RESIL_DETECTOR_H

#include "resil/resil.h"

namespace dbsens::resil {

/** Declares incident episodes from per-tick pressure samples. */
class IncidentDetector
{
  public:
    /** Pressure at/above this counts toward incident entry (and is
     * a "hot" tick for the ladder). */
    static constexpr double kEnterPressure = 1.0;
    /** Consecutive hot ticks before an incident is declared. */
    static constexpr int kEnterTicks = 2;
    /** Pressure at/below this counts toward incident exit. */
    static constexpr double kExitPressure = 0.25;
    /** Consecutive calm ticks before the incident clears. */
    static constexpr int kExitTicks = 4;

    /** What one observe() call decided. */
    enum class Edge { None, Enter, Exit };

    /**
     * Feed one tick's pressure (and its cause bits). Returns Enter /
     * Exit on an episode edge, None otherwise.
     */
    Edge observe(SimTime t, double pressure, uint32_t causes);

    bool active() const { return active_; }
    int incidents() const { return int(episodes_.size()); }
    const std::vector<IncidentEvent> &episodes() const
    {
        return episodes_;
    }

    /** Total simulated ns inside incidents; an open episode counts
     * up to `now`. */
    double totalIncidentNs(SimTime now) const;

  private:
    bool active_ = false;
    int hot_ = 0;  ///< consecutive ticks at/above kEnterPressure
    int calm_ = 0; ///< consecutive ticks at/below kExitPressure
    uint32_t pendingCauses_ = 0; ///< causes over the entry streak
    std::vector<IncidentEvent> episodes_;
};

} // namespace dbsens::resil

#endif // DBSENS_RESIL_DETECTOR_H
