/**
 * @file
 * Reproduces Figure 5: TPC-H SF=300 QPS versus the SSD read-bandwidth
 * limit (cgroup BlockIOReadBandwidth), showing the non-linear
 * diminishing-returns response the paper contrasts with a linear
 * model. Also reproduces the Section 6 write-limit result: ASDB
 * SF=2000 TPS at 100 MB/s and 50 MB/s write limits (paper: -6% and
 * -44%) even though the database fits in memory.
 */

#include "sweeps.h"

int
main(int argc, char **argv)
{
    using namespace dbsens;
    using namespace dbsens::bench;

    BenchContext ctx(argc, argv, "bench_fig5_readbw");
    ctx.config()["oltp"] = toJson(oltpConfig());
    ctx.config()["tpch"] = toJson(tpchConfig());

    banner("Figure 5: TPC-H SF=300 QPS vs SSD read-bandwidth limit");
    note("preparing TPC-H SF=300...");
    TpchDriver driver(300);

    TablePrinter t({"read limit MB/s", "QPS", "QPS/QPS(unlimited)",
                    "linear model"});
    RunConfig base = tpchConfig();
    const auto unlimited = driver.runStreams(base, 3);
    const std::vector<double> limits = {200, 400,  600,  800, 1000,
                                        1400, 1800, 2200, 2500};
    Json read_points = Json::array();
    for (double mb : limits) {
        RunConfig cfg = base;
        cfg.ssdReadLimitBps = mb * 1e6;
        const auto r = driver.runStreams(cfg, 3);
        t.row()
            .cell(mb, 0)
            .cell(r.qps, 4)
            .cell(unlimited.qps > 0 ? r.qps / unlimited.qps : 0, 3)
            .cell(mb / 2500.0, 3);
        Json pt = Json::object();
        pt["read_limit_mbps"] = Json(mb);
        pt["qps"] = Json(r.qps);
        pt["qps_rel"] =
            Json(unlimited.qps > 0 ? r.qps / unlimited.qps : 0.0);
        read_points.push(std::move(pt));
    }
    ctx.results()["tpch_sf300_unlimited_qps"] = Json(unlimited.qps);
    ctx.results()["tpch_sf300_read_limit_sweep"] =
        std::move(read_points);
    t.row().cell("unlimited").cell(unlimited.qps, 4).cell(1.0, 3).cell(
        1.0, 3);
    t.print(std::cout);
    note("Shape check: concave response — QPS rises quickly at low "
         "limits and flattens, sitting above the hypothetical linear "
         "curve in the mid-range (the paper's ~20%-cheaper-allocation "
         "argument).");

    banner("Section 6: ASDB SF=2000 TPS vs SSD write-bandwidth limit");
    asdb::AsdbWorkload wl(2000);
    auto db = wl.generate(1);
    TablePrinter w({"write limit", "TPS", "vs unlimited",
                    "paper"});
    RunConfig cfg = oltpConfig();
    const auto free_run = runOltpOn(wl, *db, cfg);
    const struct
    {
        double mbps;
        const char *paper;
    } wl_rows[] = {{100, "-6%"},
                   {50, "-44%"},
                   {25, "(below paper range)"},
                   {10, "(below paper range)"}};
    w.row().cell("unlimited").cell(free_run.tps, 0).cell("1.00").cell(
        "1.00");
    Json write_points = Json::array();
    for (const auto &row : wl_rows) {
        RunConfig c2 = oltpConfig();
        c2.ssdWriteLimitBps = row.mbps * 1e6;
        const auto r = runOltpOn(wl, *db, c2);
        w.row()
            .cell(formatFixed(row.mbps, 0) + " MB/s")
            .cell(r.tps, 0)
            .cell(free_run.tps > 0 ? r.tps / free_run.tps : 0, 2)
            .cell(row.paper);
        Json pt = Json::object();
        pt["write_limit_mbps"] = Json(row.mbps);
        pt["tps"] = Json(r.tps);
        pt["tps_rel"] =
            Json(free_run.tps > 0 ? r.tps / free_run.tps : 0.0);
        write_points.push(std::move(pt));
    }
    w.print(std::cout);
    ctx.results()["asdb_sf2000_unlimited_tps"] = Json(free_run.tps);
    ctx.results()["asdb_sf2000_write_limit_sweep"] =
        std::move(write_points);
    note("Shape check: write limits hurt TPS despite the database "
         "fitting in memory (log hardening + dirty write-back).\n"
         "Known deviation: our ASDB generates ~51 MB/s of write "
         "traffic vs the paper's higher demand, so the knee sits at a "
         "lower limit: expect WRITELOG waits to explode at 50 MB/s "
         "but TPS to collapse only below ~25 MB/s (EXPERIMENTS.md).");
    return ctx.finish();
}
