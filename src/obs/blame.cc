#include "obs/blame.h"

#include <algorithm>
#include <cstring>

#include "core/digest.h"

namespace dbsens {
namespace obs {

const char *
blameClassName(BlameClass c)
{
    switch (c) {
    case BlameClass::CpuCompute: return "cpu_compute";
    case BlameClass::CpuQueue: return "cpu_queue";
    case BlameClass::SmtContention: return "smt_contention";
    case BlameClass::MemStall: return "mem_stall";
    case BlameClass::SsdRead: return "ssd_read";
    case BlameClass::SsdWrite: return "ssd_write";
    case BlameClass::LockWait: return "lock_wait";
    case BlameClass::LatchWait: return "latch_wait";
    case BlameClass::GrantWait: return "grant_wait";
    case BlameClass::WalFlush: return "wal_flush";
    case BlameClass::Recovery: return "recovery";
    case BlameClass::Idle: return "idle";
    case BlameClass::kCount: break;
    }
    return "?";
}

const char *
resourceName(Resource r)
{
    switch (r) {
    case Resource::Cores: return "cores";
    case Resource::Llc: return "llc";
    case Resource::SsdRead: return "ssd_read";
    case Resource::SsdWrite: return "ssd_write";
    case Resource::Grant: return "grant";
    case Resource::kCount: break;
    }
    return "?";
}

double
resourceBlameNs(const double (&s)[kBlameClasses], Resource r)
{
    auto at = [&](BlameClass c) { return s[size_t(c)]; };
    switch (r) {
    case Resource::Cores:
        // Compute counts toward cores: parallelizable work (the OLAP
        // dop workers) shrinks its wall time with a bigger lease, and
        // serial work that is compute-bound is still CPU-bound work.
        // In practice queue time dominates whenever the lease binds.
        return at(BlameClass::CpuCompute) + at(BlameClass::CpuQueue) +
               at(BlameClass::SmtContention);
    case Resource::Llc:
        return at(BlameClass::MemStall);
    case Resource::SsdRead:
        return at(BlameClass::SsdRead);
    case Resource::SsdWrite:
        return at(BlameClass::SsdWrite) + at(BlameClass::WalFlush);
    case Resource::Grant:
        return at(BlameClass::GrantWait);
    case Resource::kCount:
        break;
    }
    return 0;
}

std::vector<ResourceBlame>
TenantAttribution::ranking() const
{
    std::vector<ResourceBlame> out;
    out.reserve(kResources);
    for (size_t r = 0; r < kResources; ++r)
        out.push_back({Resource(r), resourceBlameNs(shareNs, Resource(r))});
    std::stable_sort(out.begin(), out.end(),
                     [](const ResourceBlame &a, const ResourceBlame &b) {
                         return a.blameNs > b.blameNs;
                     });
    return out;
}

BlameLedger::BlameLedger(std::function<SimTime()> now)
    : now_(std::move(now))
{
    for (int t = 0; t < kBlameTenants; ++t)
        tenants_[t].sessions = (t == 0) ? 1 : 0;
}

void
BlameLedger::setSessions(int tenant, int sessions)
{
    if (tenant < 0 || tenant >= kBlameTenants)
        return;
    tenants_[tenant].sessions = sessions;
}

void
BlameLedger::beginWindow(SimTime t)
{
    begin_ = t;
    end_ = kSimTimeMax;
    open_ = true;
    frozen_ = false;
    // Warmup reset: drop charges and scopes accumulated before the
    // measured window so warmup waits don't pollute the shares.
    for (int tn = 0; tn < kBlameTenants; ++tn) {
        std::memset(tenants_[tn].shareNs, 0, sizeof tenants_[tn].shareNs);
        tenants_[tn].makespanNs = 0;
        // Keep open scopes (a query may straddle warmup); restart
        // their charge accumulators and clip the start forward.
        if (openQuery_[tn].active) {
            std::memset(openQuery_[tn].rawNs, 0,
                        sizeof openQuery_[tn].rawNs);
            if (openQuery_[tn].start < t)
                openQuery_[tn].start = t;
        }
    }
    queries_.clear();
}

void
BlameLedger::freeze(SimTime t)
{
    if (!open_ || frozen_)
        return;
    end_ = t;
    frozen_ = true;
    // Close any still-open query scope at the window edge.
    for (int tn = 0; tn < kBlameTenants; ++tn)
        if (openQuery_[tn].active)
            endQuery(tn, t);
    open_ = false;
    windowNs_ = double(end_ - begin_);
    for (int tn = 0; tn < kBlameTenants; ++tn) {
        TenantAttribution &ta = tenants_[tn];
        ta.makespanNs = double(ta.sessions) * windowNs_;
        double idle = ta.makespanNs - ta.chargedNs();
        ta.shareNs[size_t(BlameClass::Idle)] = idle;
    }
}

double
BlameLedger::clip(SimTime start, SimTime end, double *clipped_start) const
{
    SimTime lo = std::max(start, begin_);
    SimTime hi = std::min(end, end_);
    if (clipped_start)
        *clipped_start = double(lo);
    if (hi <= lo)
        return 0;
    return double(hi - lo);
}

void
BlameLedger::addToScope(int tenant, BlameClass c, double ns)
{
    if (ns <= 0)
        return;
    if (openQuery_[tenant].active)
        openQuery_[tenant].rawNs[size_t(c)] += ns;
    else
        tenants_[tenant].shareNs[size_t(c)] += ns;
}

void
BlameLedger::chargeDur(int tenant, BlameClass c, double ns)
{
    if (!open_ || tenant < 0 || tenant >= kBlameTenants || ns <= 0)
        return;
    SimTime now = now_();
    SimTime start = now - SimTime(ns);
    addToScope(tenant, c, clip(start, now, nullptr));
}

void
BlameLedger::chargeInterval(int tenant, BlameClass c, SimTime start,
                            SimTime end)
{
    if (!open_ || tenant < 0 || tenant >= kBlameTenants)
        return;
    addToScope(tenant, c, clip(start, end, nullptr));
}

void
BlameLedger::cpuBurst(int tenant, SimTime enqueue, SimTime grant,
                      SimTime end, double compute_ns, double stall_ns)
{
    if (!open_ || tenant < 0 || tenant >= kBlameTenants)
        return;
    addToScope(tenant, BlameClass::CpuQueue,
               clip(enqueue, grant, nullptr));
    double exec = double(end - grant);
    double clipped = clip(grant, end, nullptr);
    if (exec <= 0 || clipped <= 0)
        return;
    // The executed burst was possibly SMT-inflated: the scheduler ran
    // (compute + stall) worth of work over `exec` wall ns. Attribute
    // the inflation (exec - compute - stall) to SMT contention and
    // scale every component by the clipped fraction.
    double f = clipped / exec;
    double smt = std::max(0.0, exec - compute_ns - stall_ns);
    // Guard against rounding making components overshoot exec.
    double base = compute_ns + stall_ns;
    if (base > exec && base > 0) {
        compute_ns *= exec / base;
        stall_ns *= exec / base;
    }
    addToScope(tenant, BlameClass::CpuCompute, compute_ns * f);
    addToScope(tenant, BlameClass::MemStall, stall_ns * f);
    addToScope(tenant, BlameClass::SmtContention, smt * f);
}

void
BlameLedger::beginQuery(int tenant, const std::string &name, SimTime t)
{
    if (tenant < 0 || tenant >= kBlameTenants)
        return;
    OpenQuery &q = openQuery_[tenant];
    if (q.active)
        endQuery(tenant, t);
    q.active = true;
    q.name = name;
    q.start = t;
    std::memset(q.rawNs, 0, sizeof q.rawNs);
}

void
BlameLedger::endQuery(int tenant, SimTime t)
{
    if (tenant < 0 || tenant >= kBlameTenants)
        return;
    OpenQuery &q = openQuery_[tenant];
    if (!q.active)
        return;
    q.active = false;
    if (!open_ && !frozen_)
        return; // whole query before the window: drop
    double span = clip(q.start, t, nullptr);
    double raw_total = 0;
    for (size_t c = 0; c < kBlameClasses; ++c)
        raw_total += q.rawNs[c];

    QueryAttribution &rec = queryRecord(q.name, tenant);
    rec.count += 1;
    rec.spanNs += span;
    TenantAttribution &ta = tenants_[tenant];
    for (size_t c = 0; c < kBlameClasses; ++c) {
        rec.rawNs[c] += q.rawNs[c];
        // Normalize: apportion the wall span across classes by each
        // class's share of raw worker time, so parallel stage workers
        // cannot make a query's shares exceed its span.
        double norm =
            raw_total > 0 ? q.rawNs[c] * (span / raw_total) : 0;
        rec.shareNs[c] += norm;
        ta.shareNs[c] += norm;
    }
}

QueryAttribution &
BlameLedger::queryRecord(const std::string &name, int tenant)
{
    for (QueryAttribution &q : queries_)
        if (q.tenant == tenant && q.name == name)
            return q;
    queries_.emplace_back();
    queries_.back().name = name;
    queries_.back().tenant = tenant;
    return queries_.back();
}

uint64_t
BlameLedger::digest() const
{
    uint64_t h = kFnvBasis;
    auto fold = [&h](double v) {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        h = fnv1aWord(h, bits);
    };
    for (int t = 0; t < kBlameTenants; ++t) {
        fold(tenants_[t].makespanNs);
        for (size_t c = 0; c < kBlameClasses; ++c)
            fold(tenants_[t].shareNs[c]);
    }
    for (const QueryAttribution &q : queries_) {
        fold(double(q.count));
        fold(q.spanNs);
        for (size_t c = 0; c < kBlameClasses; ++c)
            fold(q.shareNs[c]);
    }
    return h;
}

} // namespace obs
} // namespace dbsens
