/**
 * @file
 * Reproduces Figure 4: cumulative distributions of SSD and DRAM
 * bandwidth (1-second interval samples) for every workload and scale
 * factor with full core and LLC allocations. Printed as deciles.
 */

#include "sweeps.h"

namespace {

using namespace dbsens;

void
printCdf(TablePrinter &t, const std::string &name,
         const Distribution &read, const Distribution &write,
         const Distribution &dram)
{
    auto row = [&](const char *metric, const Distribution &d,
                   double unit) {
        auto &r = t.row().cell(name).cell(metric);
        for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99})
            r.cell(d.quantile(q) / unit, 1);
    };
    row("SSD read MB/s", read, 1e6);
    row("SSD write MB/s", write, 1e6);
    row("DRAM GB/s", dram, 1e9);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace dbsens;
    using namespace dbsens::bench;

    BenchContext ctx(argc, argv, "bench_fig4_cdf");
    ctx.config()["oltp"] = toJson(oltpConfig());
    ctx.config()["tpch"] = toJson(tpchConfig());

    banner("Figure 4: bandwidth CDFs, full core + LLC allocations");
    TablePrinter t({"workload", "metric", "p10", "p25", "p50", "p75",
                    "p90", "p99"});

    for (int sf : kTpchSfs) {
        note("running TPC-H SF=" + std::to_string(sf) + "...");
        TpchDriver driver(sf);
        const auto r = driver.runStreams(tpchConfig(), 3);
        printCdf(t, "TPC-H " + std::to_string(sf), r.ssdRead,
                 r.ssdWrite, r.dram);
        ctx.results()["TPC-H sf" + std::to_string(sf)] = toJson(r);
    }

    const struct
    {
        const char *name;
        const std::vector<int> *sfs;
    } specs[] = {{"ASDB", &kAsdbSfs},
                 {"TPC-E", &kTpceSfs},
                 {"HTAP", &kHtapSfs}};
    for (const auto &spec : specs) {
        for (int sf : *spec.sfs) {
            note("running " + std::string(spec.name) + " SF=" +
                 std::to_string(sf) + "...");
            auto wl = makeOltpWorkload(spec.name, sf);
            RunConfig cfg = oltpConfig();
            const auto r = runOltp(*wl, cfg);
            printCdf(t,
                     std::string(spec.name) + " " + std::to_string(sf),
                     r.ssdRead, r.ssdWrite, r.dram);
            ctx.results()[std::string(spec.name) + " sf" +
                          std::to_string(sf)] = toJson(r);
        }
    }

    t.print(std::cout);
    note("\nShape checks (paper): TPC-H SF=300 shows the largest SSD "
         "and DRAM bandwidths, HTAP SF=15000 next; transactional "
         "workloads use less bandwidth but a larger share of their SSD "
         "traffic is writes.");
    return ctx.finish();
}
