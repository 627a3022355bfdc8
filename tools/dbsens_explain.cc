/**
 * @file
 * Renders the observability section of a bench run report: per-tenant
 * resource-blame attribution, the derived sensitivity ranking, SLO
 * violations, and the sampled time series — the "why was this run
 * slow" view over a BENCH_report.json produced with `--json` and
 * `RunConfig::obs` enabled.
 *
 *   dbsens_explain <report.json> [--json]
 *
 * The report may be a single bench report or a merged document
 * (report_tool merge); every `obs` object found under results/ is
 * rendered, along with every enabled `resil` object (incident
 * timeline and degradation-ladder transitions from the resilience
 * controller), every enabled `sketch` object (sketch-statistics
 * backbone: shapes, analytic accuracy, occupancy, hot-key hits,
 * grant-pressure resizes, per-tenant latency quantiles) and every
 * fleet result (bench_fig13_fleet: per-cell cross-shard transaction
 * outcomes, per-node 2PC counters, and the crash/restart timeline).
 * `--json` re-emits just those objects (keyed by their result path)
 * for scripting. Built only on the in-tree Json class.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/json.h"
#include "resil/resil.h"

namespace {

using dbsens::Json;
using dbsens::resil::rungName;

double
num(const Json &j, const std::string &key, double dflt = 0)
{
    return j.contains(key) && j.at(key).isNumber()
               ? j.at(key).asDouble()
               : dflt;
}

std::string
str(const Json &j, const std::string &key)
{
    return j.contains(key) && j.at(key).isString()
               ? j.at(key).asString()
               : std::string();
}

/** ASCII sparkline of a series' [t, value] points. */
std::string
sparkline(const Json &points, double max)
{
    static const char *kRamp = " .:-=+*#%@";
    std::string out;
    for (const Json &p : points.items()) {
        if (!p.isArray() || p.size() < 2)
            continue;
        const double v = p.at(1).asDouble();
        const int lvl =
            max > 0 ? int(9.0 * (v < 0 ? 0 : v) / max + 0.5) : 0;
        out += kRamp[lvl < 0 ? 0 : (lvl > 9 ? 9 : lvl)];
    }
    return out;
}

void
renderObs(const std::string &label, const Json &obs)
{
    std::printf("\n=== %s ===\n", label.c_str());
    std::printf("window %.1f ms, share-sum error %.2e, digest %s\n",
                num(obs, "window_ms"), num(obs, "sum_error"),
                str(obs, "digest").c_str());

    // ------------------------------------------- blame decomposition
    if (obs.contains("tenants")) {
        for (const Json &t : obs.at("tenants").items()) {
            const double makespan = num(t, "makespan_ms");
            std::printf("\ntenant %d: %d session(s), makespan "
                        "%.2f ms\n",
                        int(num(t, "tenant")), int(num(t, "sessions")),
                        makespan);
            if (t.contains("share_ms")) {
                for (const auto &m : t.at("share_ms").members()) {
                    const double ms = m.second.asDouble();
                    if (ms <= 0)
                        continue;
                    const double pct =
                        makespan > 0 ? 100.0 * ms / makespan : 0;
                    std::printf("  %-16s %12.2f ms  %5.1f%%  %s\n",
                                m.first.c_str(), ms, pct,
                                std::string(size_t(pct / 2 + 0.5), '#')
                                    .c_str());
                }
            }
            if (t.contains("ranking")) {
                std::printf("  predicted sensitivity:");
                int rank = 0;
                for (const Json &r : t.at("ranking").items()) {
                    if (num(r, "blame_ms") <= 0)
                        break;
                    std::printf("%s %s (%.0f%%)", rank ? "," : "",
                                str(r, "resource").c_str(),
                                100.0 * num(r, "blame_frac"));
                    ++rank;
                }
                std::printf("%s\n", rank ? "" : " (none)");
            }
        }
    }

    // ------------------------------------------------- per-query view
    if (obs.contains("queries") && obs.at("queries").size() > 0) {
        std::printf("\nqueries:\n");
        for (const Json &q : obs.at("queries").items())
            std::printf("  t%d %-24s n=%-4d span %10.2f ms\n",
                        int(num(q, "tenant")), str(q, "name").c_str(),
                        int(num(q, "count")), num(q, "span_ms"));
    }

    // --------------------------------------------------- SLO events
    if (obs.contains("slo_violations")) {
        const auto &v = obs.at("slo_violations").items();
        std::printf("\nSLO violations: %zu\n", v.size());
        for (const Json &e : v)
            std::printf("  t%d %s = %.3f (limit %.3f) at %.1f ms\n",
                        int(num(e, "tenant")),
                        str(e, "metric").c_str(), num(e, "value"),
                        num(e, "limit"), num(e, "at_ms"));
    }

    // --------------------------------------------------- time series
    if (obs.contains("series") && obs.at("series").size() > 0) {
        std::printf("\nseries (mean / max / shape):\n");
        for (const Json &s : obs.at("series").items()) {
            const double max = num(s, "max");
            std::printf("  %-26s %12.2f %12.2f  |%s|\n",
                        str(s, "name").c_str(), num(s, "mean"), max,
                        s.contains("points")
                            ? sparkline(s.at("points"), max).c_str()
                            : "");
        }
    }
}

/** Sketch-statistics backbone view (`sketch` result objects): sketch
 * shapes with their analytic accuracy, memory and counter occupancy,
 * hot-key hit rates, grant-pressure resizes, and the per-tenant
 * latency quantiles the autopilot guardrail reads. */
void
renderSketch(const std::string &label, const Json &s)
{
    std::printf("\n=== %s ===\n", label.c_str());
    std::printf("sketches: %d column(s), cms %dx%d (eps %.2e), "
                "kll k=%d, %llu byte(s), occupancy %.1f%%, digest "
                "%s\n",
                int(num(s, "columns")), int(num(s, "cms_width")),
                int(num(s, "cms_depth")), num(s, "cms_eps"),
                int(num(s, "kll_k")),
                (unsigned long long)num(s, "bytes"),
                100.0 * num(s, "occupancy"),
                str(s, "digest").c_str());
    const double rows = num(s, "row_accesses");
    const double hot = num(s, "hot_hits");
    std::printf("hot keys: %llu row / %llu page access(es), %llu "
                "hot hit(s) (%.2f%% of rows), %d grant-pressure "
                "resize(s)\n",
                (unsigned long long)rows,
                (unsigned long long)num(s, "page_accesses"),
                (unsigned long long)hot,
                rows > 0 ? 100.0 * hot / rows : 0.0,
                int(num(s, "resizes")));
    for (int t = 0; t < 2; ++t) {
        const std::string p = "t" + std::to_string(t) + "_";
        const double n = num(s, p + "lat_count");
        if (n <= 0)
            continue;
        std::printf("tenant %d latency: n=%llu, p50 %.3f ms, p95 "
                    "%.3f ms, p99 %.3f ms\n",
                    t, (unsigned long long)n,
                    num(s, p + "lat_p50_ms"),
                    num(s, p + "lat_p95_ms"),
                    num(s, p + "lat_p99_ms"));
    }
}

/** Decode the kCause* incident bitmask (resil/resil.h order). */
std::string
causeNames(unsigned bits)
{
    static const char *kNames[] = {"slo", "brownout", "retry-storm",
                                   "shed"};
    std::string out;
    for (unsigned i = 0; i < 4; ++i)
        if (bits & (1u << i)) {
            if (!out.empty())
                out += "+";
            out += kNames[i];
        }
    return out.empty() ? "(none)" : out;
}

void
renderResil(const std::string &label, const Json &r)
{
    std::printf("\n=== %s ===\n", label.c_str());
    std::printf("resilience: %d incident(s) over %.1f ms, "
                "%d escalation(s) / %d de-escalation(s), max rung %d "
                "(%s), %d tuning freeze(s), digest %s\n",
                int(num(r, "incidents")), num(r, "incident_ms"),
                int(num(r, "escalations")),
                int(num(r, "deescalations")), int(num(r, "max_rung")),
                rungName(int(num(r, "max_rung"))),
                int(num(r, "freezes")),
                str(r, "incident_digest").c_str());
    std::printf("admission: oltp %llu admitted / %llu shed, "
                "olap %llu admitted / %llu shed\n",
                (unsigned long long)num(r, "oltp_admitted"),
                (unsigned long long)num(r, "oltp_admit_sheds"),
                (unsigned long long)num(r, "olap_admitted"),
                (unsigned long long)num(r, "olap_admit_sheds"));

    // ----------------------------------------------- incident timeline
    if (r.contains("episodes") && r.at("episodes").size() > 0) {
        std::printf("\nincident timeline:\n");
        for (const Json &e : r.at("episodes").items()) {
            const double start = num(e, "start_ms");
            const double end = num(e, "end_ms", -1);
            char span[64];
            if (end < 0)
                std::snprintf(span, sizeof span,
                              "%8.1f ms ..   (open)   ", start);
            else
                std::snprintf(span, sizeof span,
                              "%8.1f ms .. %8.1f ms", start, end);
            std::printf("  #%-3d %s  peak pressure %6.2f  %s\n",
                        int(num(e, "id")), span,
                        num(e, "peak_pressure"),
                        causeNames(unsigned(num(e, "causes")))
                            .c_str());
        }
    }

    // ------------------------------------------------ ladder movement
    if (r.contains("transitions") && r.at("transitions").size() > 0) {
        std::printf("\nladder transitions:\n");
        for (const Json &t : r.at("transitions").items()) {
            const int from = int(num(t, "from"));
            const int to = int(num(t, "to"));
            std::printf("  %10.1f ms  %s  %d (%s) -> %d (%s)\n",
                        num(t, "at_ms"), to > from ? "up  " : "down",
                        from, rungName(from), to, rungName(to));
        }
    }
}

/** Fleet view (bench_fig13_fleet results): verdict, per-cell tenant
 * outcomes, per-node counters, and the crash/restart timeline. */
void
renderFleet(const std::string &label, const Json &r)
{
    std::printf("\n=== %s ===\n", label.c_str());
    if (r.contains("verdict")) {
        const Json &v = r.at("verdict");
        auto flag = [&](const char *k) {
            return v.contains(k) && v.at(k).asBool() ? "yes" : "NO";
        };
        std::printf("fleet verdict: %s (consistent %s, in-doubt "
                    "resolved %s, chaos engaged %s)\n",
                    v.contains("pass") && v.at("pass").asBool()
                        ? "PASS"
                        : "FAIL",
                    flag("all_consistent"), flag("all_resolved"),
                    flag("engaged"));
    }
    for (const Json &c : r.at("cells").items()) {
        std::printf("\ncell: %d node(s), crash intensity %g — "
                    "%llu submitted, %llu committed, in-doubt "
                    "%llu resolved / %llu unresolved, %llu "
                    "violation(s), net %llu sent / %llu dropped / "
                    "%llu duplicated\n",
                    int(num(c, "nodes")), num(c, "crashes_per_node"),
                    (unsigned long long)num(c, "submitted"),
                    (unsigned long long)num(c, "committed"),
                    (unsigned long long)num(c, "in_doubt_resolved"),
                    (unsigned long long)num(c, "in_doubt_unresolved"),
                    (unsigned long long)num(c, "violations"),
                    (unsigned long long)num(c, "net_sent"),
                    (unsigned long long)num(c, "net_dropped"),
                    (unsigned long long)num(c, "net_duplicated"));
        if (c.contains("tenants")) {
            int t = 0;
            for (const Json &ts : c.at("tenants").items())
                std::printf("  tenant %d: %4llu submitted (%llu "
                            "cross-shard) -> %llu committed / %llu "
                            "aborted / %llu rejected / %llu unknown, "
                            "p50 %.2f ms p99 %.2f ms\n",
                            t++,
                            (unsigned long long)num(ts, "submitted"),
                            (unsigned long long)num(ts, "cross_shard"),
                            (unsigned long long)num(ts, "committed"),
                            (unsigned long long)num(ts, "aborted"),
                            (unsigned long long)num(ts, "rejected"),
                            (unsigned long long)num(ts, "unknown"),
                            num(ts, "p50_ms"), num(ts, "p99_ms"));
        }
        if (c.contains("per_node")) {
            for (const Json &n : c.at("per_node").items())
                std::printf("  node %d: %llu crash(es), %llu "
                            "branch(es), %llu prepare(s), %llu "
                            "decision(s), in-doubt %llu recovered "
                            "(%llu commit / %llu abort), recovery "
                            "%.2f ms\n",
                            int(num(n, "node")),
                            (unsigned long long)num(n, "crashes"),
                            (unsigned long long)
                                num(n, "branches_executed"),
                            (unsigned long long)num(n, "prepares"),
                            (unsigned long long)
                                num(n, "decisions_logged"),
                            (unsigned long long)
                                num(n, "in_doubt_recovered"),
                            (unsigned long long)
                                num(n, "in_doubt_committed"),
                            (unsigned long long)
                                num(n, "in_doubt_aborted"),
                            num(n, "recovery_ms"));
        }
        if (c.contains("events") && c.at("events").size() > 0) {
            std::printf("  timeline:\n");
            for (const Json &e : c.at("events").items())
                std::printf("    %8.2f ms  node %d  %s\n",
                            num(e, "at_ms"), int(num(e, "node")),
                            str(e, "kind").c_str());
        }
    }
}

/** Depth-first hunt for "obs", enabled "resil", and fleet
 * (cells + verdict) objects; the path labels each hit, the shape
 * tells the renderer apart. */
void
collect(const Json &node, const std::string &path,
        std::vector<std::pair<std::string, const Json *>> *out)
{
    if (!node.isObject())
        return;
    if (node.contains("cells") && node.at("cells").isArray() &&
        node.contains("verdict")) {
        out->push_back({path.empty() ? "fleet" : path, &node});
        return;
    }
    for (const auto &m : node.members()) {
        const std::string sub =
            path.empty() ? m.first : path + "." + m.first;
        if (m.first == "obs" && m.second.isObject() &&
            m.second.contains("tenants"))
            out->push_back({sub, &m.second});
        else if (m.first == "resil" && m.second.isObject() &&
                 m.second.contains("enabled") &&
                 m.second.at("enabled").asBool())
            out->push_back({sub, &m.second});
        else if (m.first == "sketch" && m.second.isObject() &&
                 m.second.contains("enabled") &&
                 m.second.at("enabled").asBool() &&
                 m.second.contains("cms_width"))
            out->push_back({sub, &m.second});
        else
            collect(m.second, sub, out);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    bool as_json = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0)
            as_json = true;
        else if (std::strcmp(argv[i], "--help") == 0 ||
                 std::strcmp(argv[i], "-h") == 0) {
            std::printf("usage: dbsens_explain <report.json> "
                        "[--json]\n");
            return 0;
        } else if (path.empty())
            path = argv[i];
        else {
            std::fprintf(stderr, "dbsens_explain: unexpected "
                         "argument '%s'\n", argv[i]);
            return 2;
        }
    }
    if (path.empty()) {
        std::fprintf(stderr,
                     "usage: dbsens_explain <report.json> [--json]\n");
        return 2;
    }

    std::string err;
    const Json doc = Json::readFile(path, &err);
    if (!err.empty()) {
        std::fprintf(stderr, "dbsens_explain: %s\n", err.c_str());
        return 1;
    }

    std::vector<std::pair<std::string, const Json *>> hits;
    collect(doc, "", &hits);
    if (hits.empty()) {
        std::fprintf(stderr, "dbsens_explain: %s holds no obs, "
                     "resil, sketch, or fleet section (run the bench "
                     "with --json and RunConfig::obs, RunConfig::resil "
                     "or RunConfig::sketch enabled, or use a "
                     "bench_fig13_fleet report)\n",
                     path.c_str());
        return 1;
    }

    if (as_json) {
        Json out = Json::object();
        for (const auto &h : hits)
            out[h.first] = *h.second;
        std::printf("%s\n", out.dump(2).c_str());
        return 0;
    }
    for (const auto &h : hits) {
        const size_t dot = h.first.rfind('.');
        const std::string key =
            dot == std::string::npos ? h.first
                                     : h.first.substr(dot + 1);
        if (h.second->contains("cells"))
            renderFleet(h.first, *h.second);
        else if (key == "resil")
            renderResil(h.first, *h.second);
        else if (key == "sketch")
            renderSketch(h.first, *h.second);
        else
            renderObs(h.first, *h.second);
    }
    return 0;
}
