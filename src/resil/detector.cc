#include "resil/detector.h"

#include <algorithm>

namespace dbsens::resil {

IncidentDetector::Edge
IncidentDetector::observe(SimTime t, double pressure, uint32_t causes)
{
    if (!active_) {
        if (pressure >= kEnterPressure) {
            pendingCauses_ |= causes;
            if (++hot_ >= kEnterTicks) {
                active_ = true;
                hot_ = 0;
                calm_ = 0;
                IncidentEvent ev;
                ev.id = int(episodes_.size()) + 1;
                ev.start = t;
                ev.peakPressure = pressure;
                ev.causes = pendingCauses_;
                episodes_.push_back(ev);
                pendingCauses_ = 0;
                return Edge::Enter;
            }
        } else {
            // The entry streak must be consecutive.
            hot_ = 0;
            pendingCauses_ = 0;
        }
        return Edge::None;
    }

    IncidentEvent &ev = episodes_.back();
    ev.peakPressure = std::max(ev.peakPressure, pressure);
    ev.causes |= causes;
    if (pressure <= kExitPressure) {
        if (++calm_ >= kExitTicks) {
            active_ = false;
            calm_ = 0;
            hot_ = 0;
            ev.end = t;
            return Edge::Exit;
        }
    } else {
        // Mid-band or hot: the exit streak restarts.
        calm_ = 0;
    }
    return Edge::None;
}

double
IncidentDetector::totalIncidentNs(SimTime now) const
{
    double ns = 0;
    for (const IncidentEvent &ev : episodes_)
        ns += double((ev.end > 0 ? ev.end : now) - ev.start);
    return ns;
}

} // namespace dbsens::resil
