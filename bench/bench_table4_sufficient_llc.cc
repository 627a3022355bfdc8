/**
 * @file
 * Reproduces Table 4: the smallest LLC allocation at which each
 * workload reaches >= 90% and >= 95% of its full-allocation (40 MB)
 * performance, with 32 cores. Paper values printed alongside.
 */

#include "sweeps.h"

namespace {

struct PaperRow
{
    const char *workload;
    int sf;
    int mb90;
    int mb95;
};

const PaperRow kPaper[] = {
    {"ASDB", 2000, 8, 8},    {"ASDB", 6000, 8, 10},
    {"TPC-E", 5000, 6, 8},   {"TPC-E", 15000, 12, 14},
    {"HTAP", 5000, 16, 18},  {"HTAP", 15000, 10, 14},
    {"TPC-H", 10, 10, 14},   {"TPC-H", 30, 10, 16},
    {"TPC-H", 100, 16, 22},  {"TPC-H", 300, 12, 12},
};

void
paperFor(const char *name, int sf, int *mb90, int *mb95)
{
    for (const auto &r : kPaper) {
        if (std::string(r.workload) == name && r.sf == sf) {
            *mb90 = r.mb90;
            *mb95 = r.mb95;
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace dbsens;
    using namespace dbsens::bench;

    BenchContext ctx(argc, argv, "bench_table4_sufficient_llc");
    ctx.config()["oltp"] = toJson(oltpConfig());
    ctx.config()["tpch"] = toJson(tpchConfig());

    banner("Table 4: sufficient LLC capacity with 32 cores");

    TablePrinter t({"workload", "SF", ">=90% (MB)", ">=95% (MB)",
                    "paper >=90%", "paper >=95%"});

    Json rows = Json::array();
    auto add = [&](const char *name, int sf, const Series &cache) {
        int p90 = 0, p95 = 0;
        paperFor(name, sf, &p90, &p95);
        const int mb90 = sufficientLlc(cache, 0.90);
        const int mb95 = sufficientLlc(cache, 0.95);
        t.row()
            .cell(name)
            .cell(sf)
            .cell(mb90)
            .cell(mb95)
            .cell(p90)
            .cell(p95);
        Json row = Json::object();
        row["workload"] = Json(name);
        row["sf"] = Json(sf);
        row["mb_90"] = Json(mb90);
        row["mb_95"] = Json(mb95);
        row["paper_mb_90"] = Json(p90);
        row["paper_mb_95"] = Json(p95);
        row["cache_sweep"] = toJson(cache);
        rows.push(std::move(row));
    };

    const struct
    {
        const char *name;
        const std::vector<int> *sfs;
    } specs[] = {{"ASDB", &kAsdbSfs},
                 {"TPC-E", &kTpceSfs},
                 {"HTAP", &kHtapSfs}};
    for (const auto &spec : specs) {
        for (int sf : *spec.sfs) {
            note("sweeping " + std::string(spec.name) + " SF=" +
                 std::to_string(sf) + "...");
            auto wl = makeOltpWorkload(spec.name, sf);
            auto db = wl->generate(1);
            add(spec.name, sf, oltpCacheSweep(*wl, *db));
        }
    }
    for (int sf : kTpchSfs) {
        note("sweeping TPC-H SF=" + std::to_string(sf) + "...");
        TpchDriver driver(sf);
        add("TPC-H", sf, tpchCacheSweep(driver));
    }

    t.print(std::cout);
    ctx.results()["sufficient_llc"] = std::move(rows);
    note("\nShape check: every workload reaches 90% well below the "
         "full 40 MB (over-provisioned LLC); analytical/hybrid "
         "workloads need somewhat more than transactional ones.");
    return ctx.finish();
}
