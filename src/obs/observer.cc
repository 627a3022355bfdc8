#include "obs/observer.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/digest.h"
#include "core/trace.h"

namespace dbsens {
namespace obs {

namespace {

/** Points each series holds before it downsamples in place. */
constexpr size_t kSeriesCapacity = 512;

} // namespace

void
AttributionResult::merge(const AttributionResult &other)
{
    if (!other.enabled)
        return;
    enabled = true;
    windowNs += other.windowNs;
    for (int t = 0; t < kNumTenants; ++t) {
        tenants[t].sessions =
            std::max(tenants[t].sessions, other.tenants[t].sessions);
        tenants[t].makespanNs += other.tenants[t].makespanNs;
        for (size_t c = 0; c < kBlameClasses; ++c)
            tenants[t].shareNs[c] += other.tenants[t].shareNs[c];
    }
    for (const QueryAttribution &oq : other.queries) {
        QueryAttribution *mine = nullptr;
        for (QueryAttribution &q : queries)
            if (q.tenant == oq.tenant && q.name == oq.name) {
                mine = &q;
                break;
            }
        if (!mine) {
            queries.push_back(oq);
            continue;
        }
        mine->count += oq.count;
        mine->spanNs += oq.spanNs;
        for (size_t c = 0; c < kBlameClasses; ++c) {
            mine->shareNs[c] += oq.shareNs[c];
            mine->rawNs[c] += oq.rawNs[c];
        }
    }
    violations.insert(violations.end(), other.violations.begin(),
                      other.violations.end());
    for (const SeriesSnapshot &os : other.series) {
        SeriesSnapshot *mine = nullptr;
        for (SeriesSnapshot &s : series)
            if (s.name == os.name) {
                mine = &s;
                break;
            }
        if (!mine) {
            series.push_back(os);
            continue;
        }
        // Phase boundary: later phases restart simulated time, so the
        // merged series keeps per-phase point blocks back to back.
        double total_mine = mine->mean * double(mine->samples);
        double total_other = os.mean * double(os.samples);
        mine->samples += os.samples;
        mine->mean = mine->samples
                         ? (total_mine + total_other) /
                               double(mine->samples)
                         : 0;
        mine->max = std::max(mine->max, os.max);
        mine->stride = std::max(mine->stride, os.stride);
        mine->points.insert(mine->points.end(), os.points.begin(),
                            os.points.end());
    }
    // Fold the phase digests so merged snapshots stay deterministic.
    digest = fnv1aWord(digest ? digest : kFnvBasis, other.digest);
}

void
AttributionResult::addRecovery(int tenant, double ns)
{
    if (tenant < 0 || tenant >= kNumTenants || ns <= 0)
        return;
    enabled = true;
    TenantAttribution &ta = tenants[tenant];
    int sessions = std::max(1, ta.sessions);
    ta.shareNs[size_t(BlameClass::Recovery)] += double(sessions) * ns;
    ta.makespanNs += double(sessions) * ns;
}

double
AttributionResult::sumError() const
{
    double worst = 0;
    for (int t = 0; t < kNumTenants; ++t) {
        const TenantAttribution &ta = tenants[t];
        if (ta.makespanNs <= 0)
            continue;
        double sum = 0;
        for (size_t c = 0; c < kBlameClasses; ++c)
            sum += ta.shareNs[c];
        worst = std::max(worst,
                         std::fabs(ta.makespanNs - sum) / ta.makespanNs);
    }
    return worst;
}

static Json
sharesJson(const double (&share_ns)[kBlameClasses])
{
    Json j = Json::object();
    for (size_t c = 0; c < kBlameClasses; ++c)
        j[blameClassName(BlameClass(c))] = Json(share_ns[c] * 1e-6);
    return j;
}

Json
AttributionResult::toJson() const
{
    Json j = Json::object();
    j["enabled"] = Json(enabled);
    j["window_ms"] = Json(windowNs * 1e-6);
    j["sum_error"] = Json(sumError());
    j["digest"] = Json(digestHex(digest));

    Json tens = Json::array();
    for (int t = 0; t < kNumTenants; ++t) {
        const TenantAttribution &ta = tenants[t];
        Json tj = Json::object();
        tj["tenant"] = Json(t);
        tj["sessions"] = Json(ta.sessions);
        tj["makespan_ms"] = Json(ta.makespanNs * 1e-6);
        tj["share_ms"] = sharesJson(ta.shareNs);
        Json rank = Json::array();
        for (const ResourceBlame &rb : ta.ranking()) {
            Json rj = Json::object();
            rj["resource"] = Json(resourceName(rb.resource));
            rj["blame_ms"] = Json(rb.blameNs * 1e-6);
            rj["blame_frac"] =
                Json(ta.makespanNs > 0 ? rb.blameNs / ta.makespanNs : 0);
            rank.push(std::move(rj));
        }
        tj["ranking"] = std::move(rank);
        tens.push(std::move(tj));
    }
    j["tenants"] = std::move(tens);

    Json qs = Json::array();
    for (const QueryAttribution &q : queries) {
        Json qj = Json::object();
        qj["name"] = Json(q.name);
        qj["tenant"] = Json(q.tenant);
        qj["count"] = Json(q.count);
        qj["span_ms"] = Json(q.spanNs * 1e-6);
        qj["share_ms"] = sharesJson(q.shareNs);
        qj["raw_ms"] = sharesJson(q.rawNs);
        qs.push(std::move(qj));
    }
    j["queries"] = std::move(qs);

    Json vs = Json::array();
    for (const SloViolation &v : violations) {
        Json vj = Json::object();
        vj["tenant"] = Json(v.tenant);
        vj["metric"] = Json(v.metric);
        vj["at_ms"] = Json(double(v.at) * 1e-6);
        vj["value"] = Json(v.value);
        vj["limit"] = Json(v.limit);
        vs.push(std::move(vj));
    }
    j["slo_violations"] = std::move(vs);

    Json ss = Json::array();
    for (const SeriesSnapshot &s : series) {
        Json sj = Json::object();
        sj["name"] = Json(s.name);
        sj["kind"] =
            Json(s.kind == SeriesKind::Level ? "level" : "rate");
        sj["stride"] = Json(s.stride);
        sj["samples"] = Json(s.samples);
        sj["mean"] = Json(s.mean);
        sj["max"] = Json(s.max);
        Json pts = Json::array();
        for (const SeriesPoint &p : s.points) {
            Json pj = Json::array();
            pj.push(Json(double(p.t) * 1e-6));
            pj.push(Json(p.value));
            pts.push(std::move(pj));
        }
        sj["points"] = std::move(pts);
        ss.push(std::move(sj));
    }
    j["series"] = std::move(ss);
    return j;
}

RunObserver::RunObserver(const ObsConfig &cfg, const StatsRegistry &reg,
                         std::function<SimTime()> now)
    : cfg_(cfg), reg_(reg), ledger_(std::move(now)),
      hub_(reg, kSeriesCapacity)
{
    for (int t = 0; t < kNumTenants; ++t) {
        ledger_.setSessions(t, cfg_.sessions[t]);
        slo_.setSpec(t, cfg_.slo[t]);
    }
}

void
RunObserver::addCounter(std::string trace_name, std::string stat,
                        double scale)
{
    counters_.push_back(
        {std::move(trace_name), std::move(stat), scale});
}

void
RunObserver::beginWindow(SimTime t)
{
    for (int tn = 0; tn < kNumTenants; ++tn)
        ledger_.setSessions(tn, cfg_.sessions[tn]);
    ledger_.beginWindow(t);
    hub_.rebase();
}

void
RunObserver::tick(SimTime t)
{
    hub_.sample(t);
    slo_.evaluate(t);
    auto *tr = TraceRecorder::active();
    if (!tr)
        return;
    const auto &vs = slo_.violations();
    for (; violationsTraced_ < vs.size(); ++violationsTraced_) {
        const SloViolation &v = vs[violationsTraced_];
        tr->instant(TraceRecorder::kObsTrack, "slo",
                    std::string("slo_violation t") +
                        std::to_string(v.tenant) + " " + v.metric,
                    v.at);
    }
    for (const CounterSpec &c : counters_)
        if (reg_.has(c.stat))
            tr->counter("obs", c.traceName, t,
                        reg_.value(c.stat) * c.scale);
}

void
RunObserver::freeze(SimTime t)
{
    ledger_.freeze(t);
}

void
RunObserver::chargeIo(int tenant, bool write, SimTime start,
                      SimTime end)
{
    ledger_.chargeInterval(
        tenant, write ? BlameClass::SsdWrite : BlameClass::SsdRead,
        start, end);
}

void
RunObserver::chargeGrantWait(int tenant, SimTime start, SimTime end)
{
    ledger_.chargeInterval(tenant, BlameClass::GrantWait, start, end);
}

void
RunObserver::beginQuery(int tenant, const std::string &name, SimTime t)
{
    ledger_.beginQuery(tenant, name, t);
}

void
RunObserver::endQuery(int tenant, SimTime t)
{
    ledger_.endQuery(tenant, t);
}

void
RunObserver::recordLatency(int tenant, SimDuration latency_ns)
{
    slo_.recordLatency(tenant, double(latency_ns));
}

AttributionResult
RunObserver::finish() const
{
    AttributionResult r;
    r.enabled = true;
    r.windowNs = ledger_.windowNs();
    for (int t = 0; t < kNumTenants; ++t)
        r.tenants[t] = ledger_.tenant(t);
    r.queries = ledger_.queries();
    r.violations = slo_.violations();
    for (const RingSeries &s : hub_.series()) {
        AttributionResult::SeriesSnapshot snap;
        snap.name = s.name();
        snap.kind = s.kind();
        snap.stride = s.stride();
        snap.samples = s.samples();
        snap.mean = s.summary().mean();
        snap.max = s.summary().max();
        snap.points = s.points();
        r.series.push_back(std::move(snap));
    }
    r.digest = ledger_.digest();
    return r;
}

} // namespace obs
} // namespace dbsens
