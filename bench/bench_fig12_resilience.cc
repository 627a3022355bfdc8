/**
 * @file
 * Resilience under faults and overload (beyond the paper): the
 * paper's sensitivity profiles say which resource a tenant bleeds on;
 * this bench measures what a node should *do* when that resource
 * browns out while a flash crowd arrives. The HTAP workload runs
 * through simultaneous SSD bandwidth brownouts and an analytical
 * flash crowd, with an SLO on OLTP p99 latency, under three arms:
 *
 *   no-defense  faults + crowd land on an unprotected server
 *   shed-only   grant-queue timeout load shedding (fault regime's
 *               graceful-degradation knob, nothing staged)
 *   full        the resilience controller: incident detection +
 *               staged degradation ladder + token-bucket admission
 *
 * The SLO ceiling is calibrated per build by a fault-free pass with a
 * tiny SLO, so every tick reports its measured p99 — the ceiling is a
 * fixed headroom above the worst healthy tick. PASS requires the full
 * controller to beat both other arms on OLTP p99 compliance AND a
 * fault-free goodput ratio >= 0.999 (the controller must cost nothing
 * when nothing is wrong).
 *
 * `--small` shrinks the scale factor and windows for CI; `--json` /
 * `--trace` behave as in every other bench.
 */

#include "bench_common.h"

#include <algorithm>
#include <set>

int
main(int argc, char **argv)
{
    using namespace dbsens;
    using namespace dbsens::bench;

    BenchContext ctx(argc, argv, "bench_fig12_resilience",
                     /*has_small=*/true);
    const bool small = ctx.small();

    const int sf = small ? 2000 : 5000;
    const SimDuration window =
        small ? milliseconds(300) : milliseconds(600);
    const SimDuration sample = milliseconds(10);
    const int surge_sessions = small ? 8 : 12;

    auto base_cfg = [&] {
        RunConfig cfg = oltpConfig();
        cfg.duration = window;
        cfg.obs.enabled = true;
        cfg.obs.sampleEvery = sample;
        return cfg;
    };
    // The incident window: brownouts recur through the whole run
    // while the flash crowd piles on mid-window, so the two overlap.
    auto add_faults = [&](RunConfig &cfg) {
        cfg.fault.enabled = true;
        cfg.fault.brownoutPeriod = milliseconds(90);
        cfg.fault.brownoutDuration = milliseconds(35);
        cfg.fault.brownoutFactor = 0.12;
    };
    const SimTime surge_at = milliseconds(110);
    const SimDuration surge_for =
        small ? milliseconds(120) : milliseconds(300);

    htap::HtapWorkload wl(sf);

    // -------------------------------------- SLO ceiling calibration
    banner("Calibrating the OLTP p99 SLO (fault-free pass)");
    double slo_ms = 1.0;
    {
        RunConfig cfg = base_cfg();
        // A tiny ceiling makes every tick a violation whose `value`
        // carries that tick's measured p99.
        cfg.obs.slo[0].p99LatencyMs = 1e-6;
        wl.setSurge(0, 0, 0);
        // Every run gets a freshly generated database: the workload
        // mutates the data (inserts, tuple moves), so reusing one db
        // across arms would entangle each arm with its predecessors.
        std::unique_ptr<Database> db = wl.generate(1);
        const OltpRunResult r = runOltpOn(wl, *db, cfg);
        double worst = 0;
        for (const obs::SloViolation &v : r.attribution.violations)
            if (v.tenant == 0 &&
                std::string(v.metric) == "p99_latency_ms")
                worst = std::max(worst, v.value);
        if (worst > 0)
            slo_ms = 1.05 * worst;
        note("healthy worst tick p99 = " + std::to_string(worst) +
             " ms -> SLO ceiling " + std::to_string(slo_ms) + " ms");
    }

    const int ticks = int(double(window) / double(sample) + 0.5);
    auto compliance_of = [&](const OltpRunResult &r) {
        std::set<SimTime> bad;
        for (const obs::SloViolation &v : r.attribution.violations)
            if (v.tenant == 0 &&
                std::string(v.metric) == "p99_latency_ms")
                bad.insert(v.at);
        return 1.0 - double(bad.size()) / double(ticks);
    };
    auto goodput_of = [](const OltpRunResult &r) {
        return r.tps + r.qps;
    };

    struct Arm
    {
        std::string name;
        OltpRunResult res;
        double compliance = 0;
        double goodput = 0;
    };
    std::vector<Arm> arms;
    arms.reserve(8); // run_arm hands out references into the vector
    auto run_arm = [&](const std::string &name, RunConfig cfg,
                       bool surge) {
        banner(name);
        cfg.obs.slo[0].p99LatencyMs = slo_ms;
        wl.setSurge(surge ? surge_sessions : 0, surge_at, surge_for);
        Arm a;
        a.name = name;
        std::unique_ptr<Database> db = wl.generate(1);
        a.res = runOltpOn(wl, *db, cfg);
        a.compliance = compliance_of(a.res);
        a.goodput = goodput_of(a.res);
        note(name + ": tps=" + std::to_string(int(a.res.tps)) +
             " qps=" + std::to_string(int(a.res.qps)) +
             " compliance=" + std::to_string(100.0 * a.compliance) +
             "%");
        arms.push_back(a);
        return a;
    };

    // --------------------------- fault-free goodput (resil on/off)
    const Arm ff_off = run_arm("fault-free (resil off)", base_cfg(),
                               /*surge=*/false);
    const Arm ff_on = [&] {
        RunConfig cfg = base_cfg();
        cfg.resil.enabled = true;
        return run_arm("fault-free (resil on)", cfg,
                       /*surge=*/false);
    }();

    // ------------------------------------- faulted arms, same seed
    const Arm nodef = [&] {
        RunConfig cfg = base_cfg();
        add_faults(cfg);
        return run_arm("no-defense (brownouts + flash crowd)", cfg,
                       /*surge=*/true);
    }();
    const Arm shed = [&] {
        RunConfig cfg = base_cfg();
        add_faults(cfg);
        cfg.fault.grantTimeout = milliseconds(3);
        return run_arm("shed-only (grant-queue timeout)", cfg,
                       /*surge=*/true);
    }();
    const Arm full = [&] {
        RunConfig cfg = base_cfg();
        add_faults(cfg);
        cfg.resil.enabled = true;
        return run_arm("full controller (detect + ladder + admission)",
                       cfg, /*surge=*/true);
    }();

    // ------------------------------------------------------ verdict
    banner("Resilience summary (SLO: OLTP p99 <= " +
           std::to_string(slo_ms) + " ms)");
    TablePrinter t({"arm", "tps", "qps", "compliance", "shed t/o",
                    "shed adm", "incidents", "max rung", "esc/deesc"});
    for (const Arm &a : arms) {
        const resil::ResilResult &rr = a.res.resil;
        t.row()
            .cell(a.name)
            .cell(a.res.tps, 0)
            .cell(a.res.qps, 1)
            .cell(100.0 * a.compliance, 1)
            .cell(double(a.res.queriesShedTimeout), 0)
            .cell(double(a.res.queriesShedAdmission), 0)
            .cell(double(rr.incidents), 0)
            .cell(double(rr.maxRung), 0)
            .cell(std::to_string(rr.escalations) + "/" +
                  std::to_string(rr.deescalations));
    }
    t.print(std::cout);

    const double goodput_ratio =
        ff_off.goodput > 0 ? ff_on.goodput / ff_off.goodput : 0;
    const bool beats_nodef = full.compliance > nodef.compliance;
    const bool beats_shed = full.compliance > shed.compliance;
    const bool free_lunch = goodput_ratio >= 0.999;
    const bool engaged = full.res.resil.incidents > 0 &&
                         full.res.resil.maxRung > 0;
    note(std::string(beats_nodef ? "PASS" : "FAIL") +
         ": full controller beats no-defense on OLTP p99 compliance "
         "(" +
         std::to_string(100.0 * full.compliance) + "% vs " +
         std::to_string(100.0 * nodef.compliance) + "%)");
    note(std::string(beats_shed ? "PASS" : "FAIL") +
         ": full controller beats shed-only (" +
         std::to_string(100.0 * full.compliance) + "% vs " +
         std::to_string(100.0 * shed.compliance) + "%)");
    note(std::string(free_lunch ? "PASS" : "FAIL") +
         ": fault-free goodput ratio " +
         std::to_string(goodput_ratio) + " (need >= 0.999)");
    note(std::string(engaged ? "PASS" : "FAIL") +
         ": controller actually engaged (incidents=" +
         std::to_string(full.res.resil.incidents) +
         " max_rung=" + std::to_string(full.res.resil.maxRung) + ")");
    note("expected shape: brownouts + the flash crowd blow the OLTP "
         "p99 ceiling; the ladder clamps OLAP DOP, shrinks grants, "
         "and sheds analytical admission until the SSD heals.");

    ctx.config()["workload"] = Json("HTAP");
    ctx.config()["sf"] = Json(sf);
    RunConfig rep = base_cfg();
    add_faults(rep);
    rep.resil.enabled = true;
    ctx.config()["run"] = toJson(rep);
    ctx.config()["slo_p99_ms"] = Json(slo_ms);
    ctx.config()["surge_sessions"] = Json(surge_sessions);
    const char *keys[] = {"fault_free_off", "fault_free_on",
                          "no_defense", "shed_only", "full"};
    for (size_t i = 0; i < arms.size() && i < 5; ++i) {
        Json e = toJson(arms[i].res);
        e["compliance"] = Json(arms[i].compliance);
        e["goodput"] = Json(arms[i].goodput);
        ctx.results()[keys[i]] = std::move(e);
    }
    Json v = Json::object();
    v["compliance_full"] = Json(full.compliance);
    v["compliance_no_defense"] = Json(nodef.compliance);
    v["compliance_shed_only"] = Json(shed.compliance);
    v["goodput_ratio"] = Json(goodput_ratio);
    v["engaged"] = Json(engaged);
    ctx.verdict(beats_nodef && beats_shed && free_lunch && engaged,
                std::move(v));
    return ctx.finish();
}
