/**
 * @file
 * Reproduces Figure 6: per-query TPC-H speedup with limited MAXDOP
 * (and #cores limited to MAXDOP) relative to the MAXDOP=32 baseline,
 * at four scale factors. One query stream.
 *
 * Paper shapes: at SF=10 several queries (2, 6, 14, 15, 20) are flat
 * (the optimizer picks a serial plan regardless), while at SF>=100
 * almost every query shows a clear gap between MAXDOP=1 and the rest.
 */

#include "sweeps.h"

int
main(int argc, char **argv)
{
    using namespace dbsens;
    using namespace dbsens::bench;

    BenchContext ctx(argc, argv, "bench_fig6_maxdop");
    ctx.config()["tpch"] = toJson(tpchConfig());

    const std::vector<int> dops = {1, 2, 4, 8, 16, 32};

    for (int sf : kTpchSfs) {
        note("\npreparing TPC-H SF=" + std::to_string(sf) + "...");
        TpchDriver driver(sf);

        banner("Fig 6: TPC-H SF=" + std::to_string(sf) +
               " speedup vs MAXDOP (baseline MAXDOP=32)");
        std::vector<std::string> header = {"query"};
        for (int d : dops)
            header.push_back("dop " + std::to_string(d));
        header.push_back("serial plan at");
        TablePrinter t(header);

        int flat_queries = 0;
        Json queries = Json::array();
        for (int q = 1; q <= tpch::kQueryCount; ++q) {
            RunConfig cfg = tpchConfig();
            cfg.cores = 32;
            cfg.maxdop = 32;
            const double base = driver.runSingleQuery(q, cfg);
            auto &row = t.row().cell("Q" + std::to_string(q));
            double t1 = 0;
            std::string serial_dops;
            Json speedups = Json::array();
            for (int d : dops) {
                RunConfig c2 = tpchConfig();
                c2.cores = d;
                c2.maxdop = d;
                const double dur = driver.runSingleQuery(q, c2);
                if (d == 1)
                    t1 = dur;
                row.cell(dur > 0 ? base / dur : 0.0, 2);
                Json pt = Json::object();
                pt["dop"] = Json(d);
                pt["speedup"] = Json(dur > 0 ? base / dur : 0.0);
                speedups.push(std::move(pt));
                if (!driver.profile(q, d).parallelPlan)
                    serial_dops += (serial_dops.empty() ? "" : ",") +
                                   std::to_string(d);
            }
            row.cell(serial_dops.empty() ? "-" : serial_dops);
            if (t1 > 0 && base / t1 > 0.9)
                ++flat_queries; // dop-insensitive
            Json qj = Json::object();
            qj["query"] = Json(q);
            qj["base_ns"] = Json(base);
            qj["speedups"] = std::move(speedups);
            qj["serial_plan_dops"] = Json(serial_dops);
            queries.push(std::move(qj));
        }
        t.print(std::cout);
        std::printf("queries insensitive to MAXDOP at SF=%d: %d "
                    "(paper: 5 at SF=10, ~0 at SF>=100)\n",
                    sf, flat_queries);
        Json entry = Json::object();
        entry["queries"] = std::move(queries);
        entry["flat_queries"] = Json(flat_queries);
        ctx.results()["TPC-H sf" + std::to_string(sf)] =
            std::move(entry);
    }

    note("\nShape checks: flat rows at small SF where serial plans are "
         "chosen; at large SF speedup(dop=1) << 1 for nearly all "
         "queries; Q20's plan changes algorithm at high MAXDOP "
         "(see bench_fig7_plans).");
    return ctx.finish();
}
