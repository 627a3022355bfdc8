/**
 * @file
 * Reproduces Figure 3: average SSD and DRAM bandwidth utilization for
 * TPC-H and ASDB as performance changes — once driven by core count
 * (bandwidth rises with performance) and once by LLC allocation
 * (DRAM bandwidth *falls* as the cache grows while performance rises).
 */

#include "sweeps.h"

int
main(int argc, char **argv)
{
    using namespace dbsens;
    using namespace dbsens::bench;

    BenchContext ctx(argc, argv, "bench_fig3_bandwidth");
    ctx.config()["oltp"] = toJson(oltpConfig());
    ctx.config()["tpch"] = toJson(tpchConfig());

    banner("Figure 3: bandwidth utilization vs performance");

    // TPC-H: SF100 and SF300.
    for (int sf : {100, 300}) {
        note("\npreparing TPC-H SF=" + std::to_string(sf) + "...");
        TpchDriver driver(sf);
        Json points = Json::array();

        TablePrinter t({"driven by", "setting", "QPS", "SSD rd MB/s",
                        "SSD wr MB/s", "DRAM GB/s"});
        for (int cores : {4, 8, 16, 32}) {
            RunConfig cfg = tpchConfig();
            cfg.cores = cores;
            cfg.maxdop = cores;
            const auto r = driver.runStreams(cfg, 3);
            t.row()
                .cell("cores")
                .cell(cores)
                .cell(r.qps, 3)
                .cell(r.avgSsdReadBps / 1e6, 0)
                .cell(r.avgSsdWriteBps / 1e6, 0)
                .cell(r.avgDramBps / 1e9, 2);
            Json pt = Json::object();
            pt["driven_by"] = Json("cores");
            pt["setting"] = Json(cores);
            pt["run"] = toJson(r);
            points.push(std::move(pt));
        }
        for (int mb : {4, 12, 24, 40}) {
            RunConfig cfg = tpchConfig();
            cfg.llcMb = mb;
            const auto r = driver.runStreams(cfg, 3);
            t.row()
                .cell("LLC MB")
                .cell(mb)
                .cell(r.qps, 3)
                .cell(r.avgSsdReadBps / 1e6, 0)
                .cell(r.avgSsdWriteBps / 1e6, 0)
                .cell(r.avgDramBps / 1e9, 2);
            Json pt = Json::object();
            pt["driven_by"] = Json("llc_mb");
            pt["setting"] = Json(mb);
            pt["run"] = toJson(r);
            points.push(std::move(pt));
        }
        banner("TPC-H SF=" + std::to_string(sf));
        t.print(std::cout);
        ctx.results()["TPC-H sf" + std::to_string(sf)] =
            std::move(points);
    }

    // ASDB: SF2000 and SF6000.
    for (int sf : kAsdbSfs) {
        note("\npreparing ASDB SF=" + std::to_string(sf) + "...");
        asdb::AsdbWorkload wl(sf);
        auto db = wl.generate(1);
        Json points = Json::array();

        TablePrinter t({"driven by", "setting", "TPS", "SSD rd MB/s",
                        "SSD wr MB/s", "DRAM GB/s"});
        for (int cores : {4, 8, 16, 32}) {
            RunConfig cfg = oltpConfig();
            cfg.cores = cores;
            const auto r = runOltpOn(wl, *db, cfg);
            t.row()
                .cell("cores")
                .cell(cores)
                .cell(r.tps, 0)
                .cell(r.avgSsdReadBps / 1e6, 0)
                .cell(r.avgSsdWriteBps / 1e6, 0)
                .cell(r.avgDramBps / 1e9, 2);
            Json pt = Json::object();
            pt["driven_by"] = Json("cores");
            pt["setting"] = Json(cores);
            pt["run"] = toJson(r);
            points.push(std::move(pt));
        }
        for (int mb : {4, 12, 24, 40}) {
            RunConfig cfg = oltpConfig();
            cfg.llcMb = mb;
            const auto r = runOltpOn(wl, *db, cfg);
            t.row()
                .cell("LLC MB")
                .cell(mb)
                .cell(r.tps, 0)
                .cell(r.avgSsdReadBps / 1e6, 0)
                .cell(r.avgSsdWriteBps / 1e6, 0)
                .cell(r.avgDramBps / 1e9, 2);
            Json pt = Json::object();
            pt["driven_by"] = Json("llc_mb");
            pt["setting"] = Json(mb);
            pt["run"] = toJson(r);
            points.push(std::move(pt));
        }
        banner("ASDB SF=" + std::to_string(sf));
        t.print(std::cout);
        ctx.results()["ASDB sf" + std::to_string(sf)] =
            std::move(points);
    }

    note("\nShape checks: bandwidths rise with core-driven performance; "
         "DRAM bandwidth falls with cache-driven performance; ASDB's "
         "SSD use is write-heavy (log), TPC-H's is read-heavy; all "
         "bandwidths stay below the device/DRAM peaks "
         "(under-utilized).");
    return ctx.finish();
}
