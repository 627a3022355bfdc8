/**
 * @file
 * Shared types for the resilience subsystem (DESIGN.md Section 14):
 * configuration, incident episodes, ladder transitions, and the
 * harness-facing result summary.
 *
 * The paper's sensitivity profiles say *which* resource a tenant
 * bleeds on; the resilience controller is what a node does when that
 * resource browns out or a flash crowd arrives: detect the incident,
 * freeze the autopilot (stop optimizing into a moving target), and
 * climb a staged ladder of reversible defenses. Everything here is a
 * plain value type; the subsystem wires into a run through callbacks
 * (ResilController::Hooks), so `resil` depends only on core/ and
 * sim/.
 */

#ifndef DBSENS_RESIL_RESIL_H
#define DBSENS_RESIL_RESIL_H

#include <cstdint>
#include <vector>

#include "core/sim_time.h"
#include "core/types.h"

namespace dbsens::resil {

/** Degradation-ladder rungs, mildest first. Rung 0 = no defense. */
enum : int {
    kRungNone = 0,
    kRungClampDop = 1,     ///< clamp OLAP MAXDOP
    kRungShrinkGrant = 2,  ///< shrink the analytical grant pool
    kRungAdmission = 3,    ///< token-bucket admission ahead of grants
    kRungOltpPriority = 4, ///< OLTP-priority core lease
    kNumRungs = 4,
};

const char *rungName(int rung);

/** Incident-cause bits (IncidentEvent::causes, detector signals). */
enum : uint32_t {
    kCauseSlo = 1u << 0,        ///< SLO tracker violations
    kCauseBrownout = 1u << 1,   ///< SSD bandwidth brownout active
    kCauseRetryStorm = 1u << 2, ///< SSD retry storm
    kCauseShed = 1u << 3,       ///< grant-queue timeout sheds
};

/** Resilience configuration (RunConfig::resil). Disabled by default:
 * a disabled config constructs no controller, spawns no tick, and
 * leaves the run byte-identical (the same null-pointer gate as fault
 * injection, tuning, and observability). The detector and ladder
 * thresholds are fixed constants (resil/detector.h, resil/ladder.h);
 * the controller ticks at the obs sample interval when observability
 * is on, else every 2 ms, so SLO verdicts are always one tick fresh. */
struct ResilConfig
{
    bool enabled = false;
};

/** One detected incident episode. end == 0 while still open. */
struct IncidentEvent
{
    int id = 0;
    SimTime start = 0;
    SimTime end = 0;
    double peakPressure = 0;
    uint32_t causes = 0; ///< kCause* bits accumulated over the episode
};

/** One ladder move (escalation when to > from). */
struct LadderTransition
{
    SimTime at = 0;
    int from = 0;
    int to = 0;
};

/** Harness-facing summary of one run's resilience activity. */
struct ResilResult
{
    bool enabled = false;
    int ticks = 0;
    int incidents = 0;
    double incidentNs = 0; ///< total simulated time inside incidents
    int escalations = 0;
    int deescalations = 0;
    int maxRung = 0;
    int freezes = 0; ///< autopilot change-freezes driven
    /** Work units shed by token-bucket admission, per tenant. */
    uint64_t admitSheds[kNumTenants] = {0, 0};
    uint64_t admitted[kNumTenants] = {0, 0};
    /** FNV-1a fold of every incident edge and ladder move, in order —
     * same seed must reproduce it bit-for-bit. */
    uint64_t incidentDigest = 0;
    std::vector<IncidentEvent> episodes;
    std::vector<LadderTransition> transitions;

    /** Accumulate another phase's result (crash-recovery phases). */
    void merge(const ResilResult &o);
};

} // namespace dbsens::resil

#endif // DBSENS_RESIL_RESIL_H
