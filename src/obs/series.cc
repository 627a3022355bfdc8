#include "obs/series.h"

namespace dbsens {
namespace obs {

RingSeries::RingSeries(std::string name, SeriesKind kind,
                       size_t capacity)
    : name_(std::move(name)), kind_(kind),
      capacity_(capacity < 2 ? 2 : capacity)
{
    points_.reserve(capacity_);
}

void
RingSeries::add(SimTime t, double value)
{
    samples_ += 1;
    summary_.add(value);
    if (pendingCount_ == 0)
        pendingT_ = t;
    pendingSum_ += value;
    pendingCount_ += 1;
    if (pendingCount_ >= stride_)
        flushPending();
}

void
RingSeries::flushPending()
{
    if (pendingCount_ == 0)
        return;
    double v = kind_ == SeriesKind::Level
                   ? pendingSum_ / double(pendingCount_)
                   : pendingSum_;
    points_.push_back({pendingT_, v});
    pendingSum_ = 0;
    pendingCount_ = 0;
    if (points_.size() >= capacity_)
        compact();
}

void
RingSeries::compact()
{
    // Merge adjacent pairs in place; an odd trailing point becomes the
    // pending accumulator for the doubled stride.
    size_t pairs = points_.size() / 2;
    for (size_t i = 0; i < pairs; ++i) {
        const SeriesPoint &a = points_[2 * i];
        const SeriesPoint &b = points_[2 * i + 1];
        double v = kind_ == SeriesKind::Level ? (a.value + b.value) / 2
                                              : a.value + b.value;
        points_[i] = {a.t, v};
    }
    bool odd = points_.size() % 2 != 0;
    SeriesPoint tail{};
    if (odd)
        tail = points_.back();
    points_.resize(pairs);
    if (odd) {
        pendingT_ = tail.t;
        // The tail covered `stride_` raw ticks; re-express it in the
        // doubled stride's accumulator (a half-full pending bucket).
        pendingSum_ = kind_ == SeriesKind::Level ? tail.value * stride_
                                                 : tail.value;
        pendingCount_ = stride_;
    }
    stride_ *= 2;
}

SeriesHub::SeriesHub(const StatsRegistry &reg, size_t capacity)
    : reg_(reg), capacity_(capacity)
{
}

void
SeriesHub::addRate(const std::string &series, const std::string &stat,
                   double scale)
{
    Spec s;
    s.stat = stat;
    s.scale = scale;
    s.rate = true;
    s.last = reg_.has(stat) ? reg_.value(stat) : 0;
    s.index = series_.size();
    series_.emplace_back(series, SeriesKind::Rate, capacity_);
    specs_.push_back(std::move(s));
}

void
SeriesHub::addLevel(const std::string &series, const std::string &stat,
                    double scale)
{
    Spec s;
    s.stat = stat;
    s.scale = scale;
    s.rate = false;
    s.index = series_.size();
    series_.emplace_back(series, SeriesKind::Level, capacity_);
    specs_.push_back(std::move(s));
}

void
SeriesHub::rebase()
{
    for (Spec &s : specs_)
        if (s.rate)
            s.last = reg_.has(s.stat) ? reg_.value(s.stat) : 0;
}

void
SeriesHub::sample(SimTime t)
{
    for (Spec &s : specs_) {
        if (!reg_.has(s.stat))
            continue;
        double cur = reg_.value(s.stat);
        double v;
        if (s.rate) {
            v = (cur - s.last) * s.scale;
            s.last = cur;
        } else {
            v = cur * s.scale;
        }
        series_[s.index].add(t, v);
    }
}

const RingSeries *
SeriesHub::find(const std::string &name) const
{
    for (const RingSeries &s : series_)
        if (s.name() == name)
            return &s;
    return nullptr;
}

void
SloTracker::setSpec(int tenant, const SloSpec &spec)
{
    if (tenant < 0 || tenant >= kNumTenants)
        return;
    tick_[tenant].spec = spec;
}

void
SloTracker::recordLatency(int tenant, double latency_ns)
{
    if (tenant < 0 || tenant >= kNumTenants)
        return;
    tick_[tenant].latencies.add(latency_ns);
}

size_t
SloTracker::evaluate(SimTime t)
{
    size_t added = 0;
    for (int tn = 0; tn < kNumTenants; ++tn) {
        TenantTick &tt = tick_[tn];
        const SloSpec &spec = tt.spec;
        if (spec.p99LatencyMs > 0 && tt.latencies.count() > 0) {
            double p99_ms = tt.latencies.quantile(0.99) * 1e-6;
            if (p99_ms > spec.p99LatencyMs) {
                violations_.push_back({tn, "p99_latency_ms", t, p99_ms,
                                       spec.p99LatencyMs});
                added += 1;
            }
        }
        tt.latencies = Distribution();
    }
    return added;
}

} // namespace obs
} // namespace dbsens
