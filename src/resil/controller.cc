#include "resil/controller.h"

#include <algorithm>

#include "core/digest.h"
#include "core/logging.h"
#include "core/trace.h"

namespace dbsens::resil {

namespace {

// Detector pressure weights.
/** Pressure contributed per SLO violation observed this tick. */
constexpr double kSloWeight = 1.0;
/** Pressure while an SSD brownout window is active. */
constexpr double kBrownoutWeight = 1.0;
/** Pressure when SSD retries this tick reach kRetryStormThreshold. */
constexpr double kRetryStormWeight = 1.0;
constexpr int kRetryStormThreshold = 8;
/** Pressure per grant-queue timeout shed this tick (capped at
 * kShedCap sheds so a burst cannot dwarf every other signal). */
constexpr double kShedWeight = 0.5;
constexpr int kShedCap = 10;

// Ladder actuation.
/** Grant-pool capacity factor at kRungShrinkGrant+. */
constexpr double kGrantShrinkFactor = 0.5;
/** Token-bucket admission rate/burst per tenant at kRungAdmission+
 * (work units per second; OLTP = txns, OLAP = queries). OLTP
 * admission is bypassed at OLTP-priority. */
constexpr double kAdmitRatePerSec[kNumTenants] = {20000.0, 200.0};
constexpr double kAdmitBurst[kNumTenants] = {64.0, 4.0};
/** OLAP rate multiplier while at OLTP-priority. */
constexpr double kPriorityOlapFactor = 0.25;
/** Cores leased to OLAP at OLTP-priority (low core ids). */
constexpr int kPriorityOlapCores = 2;

/** Digest event kinds (incident log records). */
enum : uint64_t {
    kLogEnter = 1,
    kLogExit = 2,
    kLogRungUp = 3,
    kLogRungDown = 4,
};

} // namespace

const char *
rungName(int rung)
{
    switch (rung) {
      case kRungNone: return "none";
      case kRungClampDop: return "clamp-dop";
      case kRungShrinkGrant: return "shrink-grant";
      case kRungAdmission: return "admission";
      case kRungOltpPriority: return "oltp-priority";
    }
    return "?";
}

void
ResilResult::merge(const ResilResult &o)
{
    enabled = enabled || o.enabled;
    ticks += o.ticks;
    incidents += o.incidents;
    incidentNs += o.incidentNs;
    escalations += o.escalations;
    deescalations += o.deescalations;
    maxRung = std::max(maxRung, o.maxRung);
    freezes += o.freezes;
    for (int t = 0; t < kNumTenants; ++t) {
        admitSheds[t] += o.admitSheds[t];
        admitted[t] += o.admitted[t];
    }
    // Chain phase digests the same way attribution does: order-
    // sensitive fold so the combined log stays bit-comparable.
    incidentDigest = fnv1aWord(incidentDigest, o.incidentDigest);
    episodes.insert(episodes.end(), o.episodes.begin(),
                    o.episodes.end());
    transitions.insert(transitions.end(), o.transitions.begin(),
                       o.transitions.end());
}

ResilController::ResilController(EventLoop &loop, SimDuration tick)
    : loop_(loop), tick_(tick)
{
    for (int t = 0; t < kNumTenants; ++t)
        bucket_[t].configure(kAdmitRatePerSec[t], kAdmitBurst[t]);
}

void
ResilController::start(Hooks hooks)
{
    if (started_)
        panic("ResilController::start called twice");
    started_ = true;
    hooks_ = std::move(hooks);
}

void
ResilController::startTicker()
{
    loop_.spawn(tickLoop());
}

Task<void>
ResilController::tickLoop()
{
    while (!hooks_.running || hooks_.running()) {
        co_await SimDelay(loop_, tick_);
        if (hooks_.running && !hooks_.running())
            break;
        tick();
    }
}

double
ResilController::readStat(const char *name) const
{
    return hooks_.stats && hooks_.stats->has(name)
               ? hooks_.stats->value(name)
               : 0.0;
}

void
ResilController::fold(uint64_t kind, SimTime at, uint64_t payload)
{
    digest_ = fnv1aWord(digest_, kind);
    digest_ = fnv1aWord(digest_, uint64_t(at));
    digest_ = fnv1aWord(digest_, payload);
}

void
ResilController::tick()
{
    ++ticks_;
    const SimTime now = loop_.now();

    // --- form this tick's pressure from the run's own telemetry.
    double p = 0;
    uint32_t causes = 0;

    const double viol =
        hooks_.sloViolations ? double(hooks_.sloViolations()) : 0.0;
    if (viol > lastViol_) {
        p += kSloWeight * (viol - lastViol_);
        causes |= kCauseSlo;
    }
    lastViol_ = viol;

    const double factor = readStat("ssd.brownout_factor");
    if (factor > 0 && factor < 1.0) {
        p += kBrownoutWeight;
        causes |= kCauseBrownout;
    }

    const double retries = readStat("fault.ssd.retries");
    if (retries - lastRetries_ >= double(kRetryStormThreshold)) {
        p += kRetryStormWeight;
        causes |= kCauseRetryStorm;
    }
    lastRetries_ = retries;

    const double sheds = readStat("grants.sheds_timeout");
    if (sheds > lastSheds_) {
        p += kShedWeight *
             std::min(sheds - lastSheds_, double(kShedCap));
        causes |= kCauseShed;
    }
    lastSheds_ = sheds;

    lastPressure_ = p;
    auto *tr = TraceRecorder::active();

    // --- incident detection (hysteresis inside the detector).
    const IncidentDetector::Edge edge =
        detector_.observe(now, p, causes);
    if (edge == IncidentDetector::Edge::Enter) {
        fold(kLogEnter, now, detector_.episodes().back().causes);
        if (tr)
            tr->instant(TraceRecorder::kResilTrack, "resil",
                        "incident:enter", now);
    } else if (edge == IncidentDetector::Edge::Exit) {
        fold(kLogExit, now, 0);
        if (tr)
            tr->instant(TraceRecorder::kResilTrack, "resil",
                        "incident:exit", now);
    }

    // --- ladder step (at most one rung per tick).
    const int before = ladder_.rung();
    const int moved =
        ladder_.update(detector_.active(),
                       p >= IncidentDetector::kEnterPressure);
    if (moved >= 0)
        actuate(before, moved);

    // --- autopilot change-freeze while anything is engaged, so
    // tuning neither amplifies the incident nor fights the ladder's
    // de-escalation tail.
    const bool freeze = detector_.active() || ladder_.rung() > 0;
    if (freeze != frozen_) {
        frozen_ = freeze;
        if (freeze)
            ++freezes_;
        if (hooks_.setTuningFrozen)
            hooks_.setTuningFrozen(freeze);
    }
}

void
ResilController::actuate(int from, int to)
{
    const SimTime now = loop_.now();
    const bool up = to > from;
    fold(up ? kLogRungUp : kLogRungDown, now, uint64_t(to));
    transitions_.push_back({now, from, to});
    if (auto *tr = TraceRecorder::active())
        tr->instant(TraceRecorder::kResilTrack, "resil",
                    std::string(up ? "rung:up:" : "rung:down:") +
                        rungName(up ? to : from),
                    now);

    const int engaged = up ? to : from; // the rung whose defense flips
    switch (engaged) {
      case kRungClampDop:
        // Pull-based: sessions read maxdopClamp() at plan choice.
        break;
      case kRungShrinkGrant:
        if (up) {
            savedGrant_ =
                hooks_.grantCapacity ? hooks_.grantCapacity() : 0;
            if (savedGrant_ > 0 && hooks_.setGrantCapacity)
                hooks_.setGrantCapacity(uint64_t(
                    double(savedGrant_) * kGrantShrinkFactor));
        } else if (savedGrant_ > 0 && hooks_.setGrantCapacity) {
            hooks_.setGrantCapacity(savedGrant_);
        }
        break;
      case kRungAdmission:
        if (up)
            // Engage with full buckets: admission throttles the
            // *rate* from here on, it does not punish retroactively.
            for (int t = 0; t < kNumTenants; ++t)
                bucket_[t].reset(now);
        break;
      case kRungOltpPriority:
        if (up) {
            // Pin OLAP onto a few low cores; OLTP keeps free run of
            // the machine (mask 0 = no lease) — the autopilot is
            // frozen, so nothing re-partitions underneath us.
            if (hooks_.setCoreLease) {
                hooks_.setCoreLease(kTenantOlap,
                                    (uint64_t(1) << kPriorityOlapCores) - 1);
                hooks_.setCoreLease(kTenantOltp, 0);
            }
            bucket_[kTenantOlap].configure(
                kAdmitRatePerSec[kTenantOlap] * kPriorityOlapFactor,
                kAdmitBurst[kTenantOlap]);
        } else {
            if (hooks_.restoreShares)
                hooks_.restoreShares();
            bucket_[kTenantOlap].configure(kAdmitRatePerSec[kTenantOlap],
                                           kAdmitBurst[kTenantOlap]);
        }
        break;
    }
}

bool
ResilController::admitWork(int tenant)
{
    if (ladder_.rung() < kRungAdmission)
        return true;
    if (tenant == kTenantOltp && ladder_.rung() >= kRungOltpPriority) {
        ++admitted_[tenant];
        return true;
    }
    if (bucket_[tenant].tryTake(loop_.now())) {
        ++admitted_[tenant];
        return true;
    }
    ++admitSheds_[tenant];
    return false;
}

ResilResult
ResilController::result() const
{
    ResilResult r;
    r.enabled = true;
    r.ticks = ticks_;
    r.incidents = detector_.incidents();
    r.incidentNs = detector_.totalIncidentNs(loop_.now());
    r.escalations = ladder_.escalations();
    r.deescalations = ladder_.deescalations();
    r.maxRung = ladder_.maxRung();
    r.freezes = freezes_;
    for (int t = 0; t < kNumTenants; ++t) {
        r.admitSheds[t] = admitSheds_[t];
        r.admitted[t] = admitted_[t];
    }
    r.incidentDigest = digest_;
    r.episodes = detector_.episodes();
    r.transitions = transitions_;
    return r;
}

void
ResilController::registerStats(StatsRegistry &reg,
                               const std::string &prefix)
{
    reg.gauge(prefix + ".ticks", [this] { return double(ticks_); },
              "controller ticks");
    reg.gauge(prefix + ".pressure",
              [this] { return lastPressure_; },
              "last tick's incident pressure");
    reg.gauge(prefix + ".incident_active",
              [this] { return detector_.active() ? 1.0 : 0.0; },
              "1 while an incident episode is open");
    reg.gauge(prefix + ".incidents",
              [this] { return double(detector_.incidents()); },
              "incident episodes declared");
    reg.gauge(prefix + ".rung",
              [this] { return double(ladder_.rung()); },
              "current degradation-ladder rung");
    reg.gauge(prefix + ".escalations",
              [this] { return double(ladder_.escalations()); },
              "ladder escalations");
    reg.gauge(prefix + ".deescalations",
              [this] { return double(ladder_.deescalations()); },
              "ladder de-escalations");
    reg.gauge(prefix + ".freezes",
              [this] { return double(freezes_); },
              "autopilot change-freezes driven");
    for (int t = 0; t < kNumTenants; ++t) {
        const std::string p = prefix + ".t" + std::to_string(t);
        reg.gauge(p + ".admitted",
                  [this, t] { return double(admitted_[t]); },
                  "work units admitted by the token bucket");
        reg.gauge(p + ".admit_sheds",
                  [this, t] { return double(admitSheds_[t]); },
                  "work units shed by admission control");
    }
}

} // namespace dbsens::resil
