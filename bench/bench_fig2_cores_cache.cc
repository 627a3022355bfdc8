/**
 * @file
 * Reproduces Figure 2: for each workload class and scale factor,
 * (a,d,g,j) average performance vs number of logical cores (40 MB
 * LLC), (b,e,h,k) performance vs LLC allocation (32 cores), and
 * (c,f,i,l) MPKI vs LLC allocation. Core allocation follows the
 * paper's order: socket-0 physical, socket-1 physical, then the
 * hyper-threaded second logical cores (>16 engages SMT).
 *
 * Paper anchors printed for comparison: TPC-H perf(16 cores)/
 * perf(32 cores) = 1.72 / 1.27 / 0.93 / 0.82 at SF 10/30/100/300;
 * ASDB gains 5-6.8% and TPC-E 16.7-24.2% from the HT cores.
 */

#include "sweeps.h"

int
main(int argc, char **argv)
{
    using namespace dbsens;
    using namespace dbsens::bench;

    BenchContext ctx(argc, argv, "bench_fig2_cores_cache");
    ctx.config()["oltp"] = toJson(oltpConfig());
    ctx.config()["tpch"] = toJson(tpchConfig());

    // ------------------------------------------------------- TPC-H
    const double paper_ht_ratio[] = {1.72, 1.27, 0.93, 0.82};
    int sf_idx = 0;
    for (int sf : kTpchSfs) {
        note("\npreparing TPC-H SF=" + std::to_string(sf) + "...");
        TpchDriver driver(sf);
        const Series cores = tpchCoreSweep(driver);
        printSeries("Fig 2a: TPC-H SF=" + std::to_string(sf) +
                        " QPS vs cores",
                    "cores", "QPS", cores, false);
        double p16 = 0, p32 = 0;
        for (const auto &p : cores) {
            if (p.x == 16)
                p16 = p.perf;
            if (p.x == 32)
                p32 = p.perf;
        }
        std::printf("perf(16)/perf(32) = %.2f   (paper: %.2f)\n",
                    p32 > 0 ? p16 / p32 : 0.0,
                    paper_ht_ratio[sf_idx]);
        ++sf_idx;

        const Series cache = tpchCacheSweep(driver);
        printSeries("Fig 2b/2c: TPC-H SF=" + std::to_string(sf) +
                        " QPS and MPKI vs LLC allocation (MB)",
                    "LLC MB", "QPS", cache, true);

        Json entry = Json::object();
        entry["cores_sweep"] = toJson(cores);
        entry["cache_sweep"] = toJson(cache);
        ctx.results()["TPC-H sf" + std::to_string(sf)] =
            std::move(entry);
    }

    // ---------------------------------------------- OLTP workloads
    struct WlSpec
    {
        const char *name;
        const std::vector<int> *sfs;
    };
    const WlSpec specs[] = {{"ASDB", &kAsdbSfs},
                            {"TPC-E", &kTpceSfs},
                            {"HTAP", &kHtapSfs}};
    for (const auto &spec : specs) {
        for (int sf : *spec.sfs) {
            note("\npreparing " + std::string(spec.name) +
                 " SF=" + std::to_string(sf) + "...");
            auto wl = makeOltpWorkload(spec.name, sf);
            auto db = wl->generate(1);

            const Series cores = oltpCoreSweep(*wl, *db);
            printSeries("Fig 2d/g/j: " + std::string(spec.name) +
                            " SF=" + std::to_string(sf) +
                            " TPS vs cores",
                        "cores", "TPS", cores, false);
            double p16 = 0, p32 = 0;
            for (const auto &p : cores) {
                if (p.x == 16)
                    p16 = p.perf;
                if (p.x == 32)
                    p32 = p.perf;
            }
            if (p16 > 0)
                std::printf("HT gain 16->32 cores: %+.1f%%   (paper: "
                            "ASDB +5..6.8%%, TPC-E +16.7..24.2%%)\n",
                            100.0 * (p32 / p16 - 1.0));

            const Series cache = oltpCacheSweep(*wl, *db);
            printSeries("Fig 2e/h/k + f/i/l: " +
                            std::string(spec.name) +
                            " SF=" + std::to_string(sf) +
                            " TPS and MPKI vs LLC allocation (MB)",
                        "LLC MB", "TPS", cache, true);

            Json entry = Json::object();
            entry["cores_sweep"] = toJson(cores);
            entry["cache_sweep"] = toJson(cache);
            ctx.results()[std::string(spec.name) + " sf" +
                          std::to_string(sf)] = std::move(entry);
        }
    }

    note("\nShape checks: performance rises with cores; HT segment "
         "(16->32) hurts compute-bound TPC-H at small SF and helps at "
         "large SF; cache curves rise steeply at small allocations and "
         "flatten (knees); MPKI falls monotonically.");
    return ctx.finish();
}
