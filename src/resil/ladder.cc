#include "resil/ladder.h"

namespace dbsens::resil {

DegradationLadder::DegradationLadder()
{
    for (int r = 0; r <= kNumRungs; ++r)
        hold_[r] = ExpBackoff(kHoldTicks, kHoldTicks << kHoldShiftCap);
}

int
DegradationLadder::update(bool incident, bool hot)
{
    if (incident && hot) {
        calmTicks_ = 0;
        quietTicks_ = 0;
        if (rung_ < kNumRungs && ++hotTicks_ >= kEscalateTicks) {
            hotTicks_ = 0;
            ++rung_;
            ++escalations_;
            maxRung_ = std::max(maxRung_, rung_);
            // This engagement's hold, then double it for the next
            // one: a rung that keeps re-engaging re-admits slower.
            holdNeed_ = int(hold_[rung_].current());
            hold_[rung_].escalate();
            return rung_;
        }
        return -1;
    }

    hotTicks_ = 0;
    if (incident) {
        // Mid-band: the incident persists but pressure is off the
        // entry bar — hold position (per-rung hysteresis).
        calmTicks_ = 0;
        quietTicks_ = 0;
        return -1;
    }

    if (rung_ == kRungNone) {
        // Fully disengaged and calm: a long enough quiet spell
        // forgives past engagements and resets every hold.
        if (++quietTicks_ >= kStrikeResetTicks) {
            quietTicks_ = 0;
            for (int r = 0; r <= kNumRungs; ++r)
                hold_[r].reset();
        }
        return -1;
    }

    if (++calmTicks_ >= holdNeed_) {
        calmTicks_ = 0;
        --rung_;
        ++deescalations_;
        holdNeed_ = rung_ > 0 ? int(hold_[rung_].current()) : 0;
        return rung_;
    }
    return -1;
}

} // namespace dbsens::resil
