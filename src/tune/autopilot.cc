#include "tune/autopilot.h"

#include "core/digest.h"
#include "core/logging.h"
#include "core/trace.h"

namespace dbsens {

Autopilot::Autopilot(EventLoop &loop, const TuneConfig &cfg,
                     const ResourceTotals &totals,
                     SimDuration start_delay)
    : loop_(loop), cfg_(cfg), startDelay_(start_delay), arbiter_(totals)
{
    held_ = cfg_.initial ? arbiter_.clamp(*cfg_.initial)
                         : arbiter_.evenSplit();
    if (cfg_.policy == TunePolicyKind::ProbeAndShift) {
        climber_.emplace(arbiter_, cfg_, held_);
        held_ = climber_->base(); // clamped: what start() applies
    }
}

std::string
Autopilot::phaseLabel() const
{
    if (frozen_)
        return "frozen";
    return climber_ ? climber_->phaseLabel() : "static";
}

void
Autopilot::setFrozen(bool frozen)
{
    if (frozen == frozen_)
        return;
    frozen_ = frozen;
    // Knob 4 is the freeze pseudo-knob: edges are part of the
    // trajectory, so replays must reproduce them bit-for-bit.
    foldKnob(kNumTenants, 4, frozen ? 1 : 0);
    if (auto *tr = TraceRecorder::active())
        tr->instant(TraceRecorder::kTuneTrack, "tune",
                    frozen ? "freeze" : "unfreeze", loop_.now());
    if (frozen) {
        ++freezes_;
        // Roll back now rather than at the next epoch boundary: an
        // in-flight trial must not keep steering mid-incident.
        if (climber_)
            held_ = climber_->onFreeze();
        applyState(held_, /*force=*/false);
    } else if (climber_) {
        climber_->onUnfreeze();
    }
}

void
Autopilot::start(Actuators act)
{
    if (started_)
        panic("Autopilot::start called twice");
    started_ = true;
    act_ = std::move(act);
    applyState(held_, /*force=*/true);
    loop_.spawn(epochLoop());
}

double
Autopilot::readProgress(int tenant) const
{
    if (!act_.stats || act_.progressStat[tenant].empty())
        return 0;
    return act_.stats->value(act_.progressStat[tenant]);
}

void
Autopilot::foldKnob(int tenant, int knob, uint64_t value)
{
    digest_ = fnv1aWord(digest_, uint64_t(epochs_));
    digest_ = fnv1aWord(digest_, uint64_t(tenant));
    digest_ = fnv1aWord(digest_, uint64_t(knob));
    digest_ = fnv1aWord(digest_, value);
}

void
Autopilot::applyState(const KnobState &next, bool force)
{
    const KnobState want = arbiter_.clamp(next);
    auto *tr = TraceRecorder::active();
    for (int t = 0; t < kNumTenants; ++t) {
        const TenantShare &cur = state_.tenant[t];
        const TenantShare &nw = want.tenant[t];
        if (force || nw.cores != cur.cores) {
            if (act_.setCoreLease)
                act_.setCoreLease(t, arbiter_.coreMask(want, t));
            foldKnob(t, 0, uint64_t(nw.cores));
            if (tr)
                tr->instant(TraceRecorder::kTuneTrack, "tune",
                            "set:t" + std::to_string(t) + ".cores=" +
                                std::to_string(nw.cores),
                            loop_.now());
        }
        if (force || nw.llcMb != cur.llcMb) {
            if (act_.setLlcMask)
                act_.setLlcMask(t, arbiter_.llcWayMask(want, t));
            foldKnob(t, 1, uint64_t(nw.llcMb));
            if (tr)
                tr->instant(TraceRecorder::kTuneTrack, "tune",
                            "set:t" + std::to_string(t) + ".llc_mb=" +
                                std::to_string(nw.llcMb),
                            loop_.now());
        }
        if (force || nw.maxdop != cur.maxdop) {
            // Pull-based: sessions read maxdopCap() at plan choice.
            foldKnob(t, 2, uint64_t(nw.maxdop));
            if (tr)
                tr->instant(TraceRecorder::kTuneTrack, "tune",
                            "set:t" + std::to_string(t) + ".maxdop=" +
                                std::to_string(nw.maxdop),
                            loop_.now());
        }
        if (force || nw.grantBytes != cur.grantBytes) {
            if (t == kTenantOlap && act_.setGrantCapacity)
                act_.setGrantCapacity(nw.grantBytes);
            foldKnob(t, 3, nw.grantBytes);
            if (tr)
                tr->instant(TraceRecorder::kTuneTrack, "tune",
                            "set:t" + std::to_string(t) +
                                ".grant_mb=" +
                                std::to_string(nw.grantBytes >> 20),
                            loop_.now());
        }
    }
    state_ = want;
}

Task<void>
Autopilot::epochLoop()
{
    if (startDelay_ > 0)
        co_await SimDelay(loop_, startDelay_);
    for (int t = 0; t < kNumTenants; ++t)
        lastProgress_[t] = readProgress(t);

    while (!act_.running || act_.running()) {
        co_await SimDelay(loop_, cfg_.epoch);
        const SimTime epoch_start = loop_.now() - cfg_.epoch;
        ++epochs_;

        EpochMetrics m;
        m.epoch = epochs_;
        const double secs = toSeconds(cfg_.epoch);
        for (int t = 0; t < kNumTenants; ++t) {
            const double cur = readProgress(t);
            // A counter reset (warmup boundary) restarts from zero:
            // the post-reset value *is* the delta since the reset.
            const double d =
                cur >= lastProgress_[t] ? cur - lastProgress_[t] : cur;
            lastProgress_[t] = cur;
            m.rate[t] = d / secs;
            lastRate_[t] = m.rate[t];
        }
        if (!weightsSet_) {
            for (int t = 0; t < kNumTenants; ++t)
                rateSum_[t] += m.rate[t];
            if (epochs_ >= kBaselineEpochs) {
                // Self-normalize: the even-split baseline scores
                // ~kNumTenants, so the score is a sum of normalized
                // per-tenant throughputs.
                for (int t = 0; t < kNumTenants; ++t) {
                    const double mean = rateSum_[t] / double(epochs_);
                    weight_[t] = mean > 0 ? 1.0 / mean : 0.0;
                }
                weightsSet_ = true;
            }
        }
        m.baselineDone = weightsSet_;
        m.score = weightsSet_ ? weight_[0] * m.rate[0] +
                                    weight_[1] * m.rate[1]
                              : 0.0;
        lastScore_ = m.score;
        if (act_.stats && !act_.latencyStat.empty())
            m.latencyMs = act_.stats->value(act_.latencyStat);

        if (auto *tr = TraceRecorder::active())
            tr->complete(TraceRecorder::kTuneTrack, "tune",
                         "epoch:" + phaseLabel(), epoch_start,
                         loop_.now(), "score", m.score);

        // The run window closed while we slept: record the final
        // epoch but stop steering.
        if (act_.running && !act_.running())
            break;
        applyState(frozen_ || !climber_ ? held_ : climber_->onEpoch(m),
                   /*force=*/false);
    }
}

TuneResult
Autopilot::result() const
{
    TuneResult r;
    r.enabled = true;
    r.policy = tunePolicyName(cfg_.policy);
    r.epochs = epochs_;
    r.freezes = freezes_;
    r.score = lastScore_;
    r.finalState = state_;
    r.trajectoryDigest = digest_;
    if (!climber_)
        return r;
    r.probes = climber_->probes();
    r.shifts = climber_->shifts();
    r.rollbacks = climber_->rollbacks();
    for (const ProbeResult &p : climber_->rankedProbes()) {
        TuneProbeDelta d;
        d.move = p.move;
        d.delta = p.delta;
        for (int t = 0; t < kNumTenants; ++t)
            d.rateDelta[t] = p.rateDelta[t];
        d.measured = p.measured;
        r.probeDeltas.push_back(d);
    }
    return r;
}

void
Autopilot::registerStats(StatsRegistry &reg, const std::string &prefix)
{
    reg.gauge(prefix + ".epochs", [this] { return double(epochs_); },
              "control epochs completed");
    reg.gauge(prefix + ".probes",
              [this] { return climber_ ? climber_->probes() : 0; },
              "probe micro-epochs executed");
    reg.gauge(prefix + ".shifts",
              [this] { return climber_ ? climber_->shifts() : 0; },
              "committed knob shifts");
    reg.gauge(prefix + ".rollbacks",
              [this] { return climber_ ? climber_->rollbacks() : 0; },
              "trial shifts rolled back");
    reg.gauge(prefix + ".latency_rollbacks",
              [this] { return climber_ ? climber_->latencyRollbacks() : 0; },
              "rollbacks forced by the tail-latency guardrail");
    reg.gauge(prefix + ".freezes", [this] { return double(freezes_); },
              "change-freezes entered (resilience guardrail)");
    reg.gauge(prefix + ".frozen",
              [this] { return frozen_ ? 1.0 : 0.0; },
              "1 while tuning is change-frozen");
    reg.gauge(prefix + ".score", [this] { return lastScore_; },
              "last epoch's weighted score");
    for (int t = 0; t < kNumTenants; ++t) {
        const std::string p = prefix + ".t" + std::to_string(t);
        reg.gauge(p + ".cores",
                  [this, t] { return double(state_.tenant[t].cores); },
                  "cores leased to the tenant");
        reg.gauge(p + ".llc_mb",
                  [this, t] { return double(state_.tenant[t].llcMb); },
                  "LLC MB allocated to the tenant");
        reg.gauge(p + ".maxdop",
                  [this, t] { return double(state_.tenant[t].maxdop); },
                  "tenant MAXDOP cap");
        reg.gauge(p + ".grant_mb",
                  [this, t] {
                      return double(state_.tenant[t].grantBytes >> 20);
                  },
                  "tenant grant budget, MB");
        reg.gauge(p + ".rate",
                  [this, t] { return lastRate_[t]; },
                  "tenant progress per second, last epoch");
    }
}

} // namespace dbsens
