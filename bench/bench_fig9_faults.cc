/**
 * @file
 * Fault sweep (beyond the paper): the paper characterizes sensitivity
 * to *healthy* resource allocations; this bench characterizes the
 * same workloads when those resources misbehave mid-run. Four fault
 * regimes are swept over the OLTP workloads (transient SSD
 * errors/stalls + torn pages at increasing intensity), then three
 * targeted scenarios: periodic SSD bandwidth brownouts, a mid-run
 * core/LLC revocation, grant-queue load shedding under TPC-H
 * concurrency, and an injected crash with WAL redo/undo recovery.
 *
 * `--small` shrinks scale factors and windows for CI; `--json` /
 * `--trace` behave as in every other bench.
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace dbsens;
    using namespace dbsens::bench;

    BenchContext ctx(argc, argv, "bench_fig9_faults",
                     /*has_small=*/true);
    const bool small = ctx.small();

    const int oltp_sf = small ? 500 : 2000;
    const SimDuration window =
        small ? milliseconds(80) : milliseconds(160);

    auto base_cfg = [&] {
        RunConfig cfg = oltpConfig();
        cfg.duration = window;
        return cfg;
    };

    // ---------------------------------------------- fault intensity
    banner("Fault intensity sweep (transient SSD faults + torn pages)");

    struct Regime
    {
        const char *name;
        double err, stall, torn;
    };
    const Regime regimes[] = {
        {"off", 0, 0, 0},
        {"low", 0.0005, 0.001, 0.0002},
        {"med", 0.002, 0.004, 0.001},
        {"high", 0.01, 0.01, 0.005},
    };
    const char *workloads[] = {"TPC-E", "ASDB"};

    Json intensity = Json::object();
    TablePrinter t({"workload", "regime", "tps", "aborts/s",
                    "retries/s", "ssd retries", "torn pages",
                    "io give-ups"});
    for (const char *wl_name : workloads) {
        auto wl = makeOltpWorkload(wl_name, oltp_sf);
        std::unique_ptr<Database> db = wl->generate(1);
        Json per_wl = Json::object();
        for (const Regime &r : regimes) {
            RunConfig cfg = base_cfg();
            cfg.txnRetryLimit = 3;
            if (r.err > 0 || r.stall > 0 || r.torn > 0) {
                cfg.fault.enabled = true;
                cfg.fault.ssdErrorRate = r.err;
                cfg.fault.ssdStallRate = r.stall;
                cfg.fault.tornPageRate = r.torn;
            }
            const OltpRunResult res = runOltpOn(*wl, *db, cfg);
            t.row()
                .cell(wl_name)
                .cell(r.name)
                .cell(res.tps, 0)
                .cell(res.aborts, 1)
                .cell(res.retries, 1)
                .cell(double(res.fault.ssdRetries), 0)
                .cell(double(res.fault.tornPages), 0)
                .cell(double(res.fault.ssdExhausted), 0);
            per_wl[r.name] = toJson(res);
        }
        intensity[wl_name] = std::move(per_wl);
    }
    t.print(std::cout);
    note("expected shape: throughput degrades smoothly with intensity; "
         "every drawn error is either recovered or counted exhausted.");

    // --------------------------------------------------- brownouts
    banner("Periodic SSD bandwidth brownouts (ASDB, write-heavy)");

    Json brownout = Json::object();
    {
        auto wl = makeOltpWorkload("ASDB", oltp_sf);
        std::unique_ptr<Database> db = wl->generate(1);
        TablePrinter bt({"regime", "tps", "WRITELOG ms", "brownouts"});
        for (const bool on : {false, true}) {
            RunConfig cfg = base_cfg();
            if (on) {
                cfg.fault.enabled = true;
                cfg.fault.brownoutPeriod = milliseconds(40);
                cfg.fault.brownoutDuration = milliseconds(15);
                cfg.fault.brownoutFactor = 0.2;
            }
            const OltpRunResult res = runOltpOn(*wl, *db, cfg);
            bt.row()
                .cell(on ? "brownout 0.2x" : "healthy")
                .cell(res.tps, 0)
                .cell(double(res.waits.totalNs(WaitClass::WriteLog)) /
                          1e6,
                      2)
                .cell(double(res.fault.brownouts), 0);
            brownout[on ? "brownout" : "healthy"] = toJson(res);
        }
        bt.print(std::cout);
        note("expected shape: commit (WRITELOG) waits stretch inside "
             "brownout windows — the paper's write-limit result "
             "(Section 6) arriving as a transient instead of a knob.");
    }

    // ----------------------------------------- mid-run degradation
    banner("Mid-run degradation (cores offlined + LLC revoked)");

    Json degrade = Json::object();
    {
        auto wl = makeOltpWorkload("TPC-E", oltp_sf);
        std::unique_ptr<Database> db = wl->generate(1);
        TablePrinter dt({"regime", "tps", "mpki", "cores off",
                         "LLC revoked MB"});
        for (const bool on : {false, true}) {
            RunConfig cfg = base_cfg();
            cfg.cores = 16;
            if (on) {
                cfg.fault.enabled = true;
                cfg.fault.degradeAt =
                    cfg.warmup + cfg.duration / 4;
                cfg.fault.offlineCores = 12;
                cfg.fault.revokeLlcMb = 30;
            }
            const OltpRunResult res = runOltpOn(*wl, *db, cfg);
            dt.row()
                .cell(on ? "degraded" : "healthy")
                .cell(res.tps, 0)
                .cell(res.mpki, 2)
                .cell(double(res.fault.coresOfflined), 0)
                .cell(double(res.fault.llcRevokedMb), 0);
            degrade[on ? "degraded" : "healthy"] = toJson(res);
        }
        dt.print(std::cout);
        note("expected shape: Figure 2's core/LLC sensitivity, entered "
             "sideways — the run ends on the degraded curve.");
    }

    // ------------------------------------------- grant-queue sheds
    banner("Grant-queue load shedding (TPC-H streams)");

    Json sheds = Json::object();
    {
        TpchDriver driver(10);
        RunConfig cfg = tpchConfig();
        if (small)
            cfg.duration = cfg.duration / 4;
        cfg.grantFraction = 1.0; // every grant takes the whole pool
        TablePrinter st({"regime", "qps", "queries shed"});
        for (const bool on : {false, true}) {
            RunConfig c = cfg;
            if (on) {
                c.fault.enabled = true;
                c.fault.grantTimeout = milliseconds(1);
            }
            const TpchRunResult res = driver.runStreams(c, 8);
            st.row()
                .cell(on ? "shed @1ms" : "unbounded queue")
                .cell(res.qps, 2)
                .cell(double(res.queriesShed), 0);
            sheds[on ? "shedding" : "unbounded"] = toJson(res);
        }
        st.print(std::cout);
        note("expected shape: with full-pool grants 8 streams "
             "serialize; a queue timeout sheds the overload instead "
             "of stacking it.");
    }

    // ------------------------------------------- crash + recovery
    banner("Injected crash + WAL redo/undo recovery (TPC-E)");

    Json crash = Json::object();
    {
        auto wl = makeOltpWorkload("TPC-E", oltp_sf);
        std::unique_ptr<Database> db = wl->generate(1);
        TablePrinter ct({"regime", "tps", "crashes", "recovery ms",
                         "redo", "undo", "checkpoints"});
        for (const bool on : {false, true}) {
            RunConfig cfg = base_cfg();
            if (on) {
                cfg.fault.enabled = true;
                cfg.fault.crashAt = cfg.warmup + cfg.duration / 2;
            }
            const OltpRunResult res = runOltpOn(*wl, *db, cfg);
            ct.row()
                .cell(on ? "crash mid-window" : "fault-free")
                .cell(res.tps, 0)
                .cell(double(res.crashes), 0)
                .cell(res.recoveryMs, 3)
                .cell(double(res.fault.redoRecords), 0)
                .cell(double(res.fault.undoRecords), 0)
                .cell(double(res.fault.checkpoints), 0);
            crash[on ? "crash" : "fault_free"] = toJson(res);
        }
        ct.print(std::cout);
        note("expected shape: the crashed run loses the restart window "
             "(recovery time charged to RECOVERY waits) but resumes "
             "from the last fuzzy checkpoint and finishes the window.");
    }

    RunConfig cfg = base_cfg();
    ctx.config()["workload"] = Json("FAULTS");
    ctx.config()["run"] = toJson(cfg);
    ctx.results()["intensity"] = std::move(intensity);
    ctx.results()["brownout"] = std::move(brownout);
    ctx.results()["degrade"] = std::move(degrade);
    ctx.results()["grant_sheds"] = std::move(sheds);
    ctx.results()["crash_recovery"] = std::move(crash);
    return ctx.finish();
}
