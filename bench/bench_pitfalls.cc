/**
 * @file
 * Demonstrates the paper's Section 9 performance-analysis pitfalls as
 * measurable experiments:
 *
 *  #1 evaluating a single workload class / scale factor — the LLC
 *     sufficiency answer flips between TPC-E and TPC-H and between
 *     scale factors (cross-reference of Table 4);
 *  #2 running analytical workloads on a row store — TPC-H throughput
 *     collapses when the recommended columnar layout is ignored;
 *  #3/#4 ignoring storage bandwidth limits — more cores stop helping
 *     once the SSD (reads for DSS, log writes for OLTP) saturates;
 *  #6 being oblivious to alternate query plans — forcing the serial
 *     Q20 plan at high DOP forfeits the optimizer's adaptation.
 */

#include "sweeps.h"

#include "opt/plan_printer.h"
#include "workloads/tpch/tpch_gen.h"
#include "workloads/tpch/tpch_queries.h"

int
main(int argc, char **argv)
{
    using namespace dbsens;
    using namespace dbsens::bench;

    BenchContext ctx(argc, argv, "bench_pitfalls");

    // ------------------------------------------------- Pitfall #2
    banner("Pitfall #2: analytical workload on a row store");
    {
        const int sf = 30;
        note("running TPC-H SF=30 on column store vs row store...");
        // Column store (recommended).
        TpchDriver col_driver(sf);
        RunConfig cfg = tpchConfig();
        const auto col = col_driver.runStreams(cfg, 3);

        // Row store (the pitfall): same data, row-oriented pages.
        auto row_db = tpch::generate(sf, 19920101,
                                     StorageLayout::RowStore);
        ProfilingEnv env(*row_db);
        double row_qps;
        {
            // Profile all 22 queries once and sum their times; the
            // row layout reads whole rows for every referenced column
            // and loses columnar compression.
            double total_ns = 0;
            for (int q = 1; q <= tpch::kQueryCount; ++q) {
                auto plan = tpch::query(q);
                const auto pq =
                    profileQuery(*row_db, *plan,
                                 tpchOptimizerConfig(32), &env.pool());
                ReplayParams p{.dop = 32,
                               .grantBytes = 9ull << 20,
                               .missRate = 0.3};
                total_ns += estimateReplayNs(pq.profile, p);
            }
            row_qps = double(tpch::kQueryCount) /
                      (total_ns / 1e9 * double(calib::kScaleK));
        }
        TablePrinter t({"layout", "QPS", "relative"});
        t.row().cell("column store").cell(col.qps, 3).cell(1.0, 2);
        t.row().cell("row store").cell(row_qps, 3).cell(
            col.qps > 0 ? row_qps / col.qps : 0, 2);
        t.print(std::cout);
        Json p2 = Json::object();
        p2["column_store_qps"] = Json(col.qps);
        p2["row_store_qps"] = Json(row_qps);
        p2["row_store_relative"] =
            Json(col.qps > 0 ? row_qps / col.qps : 0.0);
        ctx.results()["pitfall2_row_store"] = std::move(p2);
        note("row-store DSS pays full-width row I/O and loses "
             "compression: misleadingly low throughput.");
    }

    // --------------------------------------------- Pitfalls #3/#4
    banner("Pitfalls #3/#4: scaling cores past the storage bandwidth");
    {
        note("ASDB SF=2000 with a 30 MB/s write limit (hard-disk-class "
             "log device)...");
        asdb::AsdbWorkload wl(2000);
        auto db = wl.generate(1);
        TablePrinter t({"cores", "TPS (NVMe)", "TPS (30 MB/s writes)"});
        Json points = Json::array();
        for (int cores : {4, 8, 16, 32}) {
            RunConfig a = oltpConfig();
            a.cores = cores;
            const double nvme = runOltpOn(wl, *db, a).tps;
            RunConfig b = oltpConfig();
            b.cores = cores;
            b.ssdWriteLimitBps = 30e6;
            const double hdd = runOltpOn(wl, *db, b).tps;
            t.row().cell(cores).cell(nvme, 0).cell(hdd, 0);
            Json pt = Json::object();
            pt["cores"] = Json(cores);
            pt["tps_nvme"] = Json(nvme);
            pt["tps_write_limited"] = Json(hdd);
            points.push(std::move(pt));
        }
        t.print(std::cout);
        ctx.results()["pitfall3_4_write_bandwidth"] = std::move(points);
        note("with the write limit, the cores column stops paying off: "
             "log hardening is the bottleneck even though the database "
             "fits in memory (pitfall #4).");
    }

    // ----------------------------------------------- Pitfall #6
    banner("Pitfall #6: ignoring plan changes under resource limits");
    {
        note("TPC-H SF=100 Q20 with and without the adaptive plan...");
        TpchDriver driver(100);
        RunConfig cfg = tpchConfig();
        cfg.cores = 32;
        cfg.maxdop = 32;
        const double adaptive = driver.runSingleQuery(20, cfg);
        // A resource-governance model that assumed the MAXDOP=1 plan
        // stays optimal would predict the serial plan's runtime.
        const auto &serial = driver.profile(20, 1);
        SimRun run(driver.db(), cfg);
        ReplayParams p{.dop = 1,
                       .grantBytes = run.queryGrantBytes(),
                       .missRate = driver.missRate(cfg.llcMb)};
        const double forced = estimateReplayNs(serial.profile, p);
        TablePrinter t({"plan", "time (ms)", "speedup"});
        t.row().cell("optimizer-chosen (parallel NL)").cell(
            adaptive / 1e6, 2).cell(1.0, 2);
        t.row().cell("forced serial plan").cell(forced / 1e6, 2).cell(
            adaptive > 0 ? adaptive / forced : 0, 2);
        t.print(std::cout);
        Json p6 = Json::object();
        p6["adaptive_ms"] = Json(adaptive / 1e6);
        p6["forced_serial_ms"] = Json(forced / 1e6);
        p6["forced_speedup"] =
            Json(forced > 0 ? adaptive / forced : 0.0);
        ctx.results()["pitfall6_plan_changes"] = std::move(p6);
        note("treating the DBMS as a black box (pitfall #7) misses "
             "this adaptation entirely.");
    }
    return ctx.finish();
}
