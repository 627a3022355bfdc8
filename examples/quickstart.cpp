/**
 * @file
 * Quickstart: create a database, load a table, run an analytical
 * query functionally, then measure the same query under two different
 * simulated resource configurations.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "engine/database.h"
#include "engine/query_runner.h"
#include "engine/sim_run.h"
#include "opt/plan_printer.h"

using namespace dbsens;

int
main()
{
    // 1. Create a database with one columnar fact table.
    Database db("quickstart");
    TableDef def;
    def.name = "sales";
    def.schema = Schema({{"s_region", TypeId::String, 12},
                         {"s_product", TypeId::Int64},
                         {"s_amount", TypeId::Double}});
    def.layout = StorageLayout::ColumnStore;
    def.expectedRows = 500000;
    auto &sales = db.createTable(def);

    static const char *regions[] = {"NORTH", "SOUTH", "EAST", "WEST"};
    Rng rng(7);
    for (int i = 0; i < 500000; ++i)
        sales.data->append({regions[rng.uniform(4)],
                            int64_t(rng.uniform(1000)),
                            rng.uniformReal() * 100});
    db.finishLoad();
    std::printf("loaded %llu rows (%.1f compressed MB)\n",
                (unsigned long long)sales.data->rowCount(),
                double(db.dataBytes()) / 1e6);

    // 2. Build a query with the plan-builder API and optimize it.
    auto plan = PlanBuilder::scan("sales",
                                  {"s_region", "s_amount"})
                    .aggregate({"s_region"},
                               {aggSum(col("s_amount"), "total"),
                                aggCount("n")})
                    .orderBy({{"total", true}})
                    .build();
    OptimizerConfig ocfg{.maxdop = 8, .serialThreshold = 1.0e6};
    Optimizer opt(db, ocfg);
    opt.optimize(*plan);
    std::printf("\nphysical plan:\n%s\n", planToString(*plan).c_str());

    // 3. Execute functionally and print the result.
    ExecContext ctx;
    ctx.resolver = &db;
    ctx.tempSpace = &db.space();
    Executor ex(ctx);
    Chunk out = ex.run(*plan);
    for (size_t r = 0; r < out.rows(); ++r)
        std::printf("  %-6s total %12.2f (n=%.0f)\n",
                    out.byName("s_region").stringAt(r).c_str(),
                    out.byName("total").doubleAt(r),
                    out.byName("n").doubleAt(r));

    // 4. Profile once, then replay the profile under two resource
    //    configurations on the simulated server.
    AccessTrace trace;
    RecordingFeed feed(trace);
    const auto pq = profileQuery(db, *plan, ocfg, nullptr, &feed);
    auto time_with = [&](int cores, int llc_mb) {
        RunConfig cfg;
        cfg.cores = cores;
        cfg.llcMb = llc_mb;
        SimRun run(db, cfg);
        ReplayParams params;
        params.dop = pq.parallelPlan ? cores : 1;
        params.grantBytes = run.queryGrantBytes();
        // Miss rate of this query's own trace at the allocation.
        params.missRate = trace.replayMissRate(llc_mb);
        SimTime done = 0;
        auto wrapper = [&]() -> Task<void> {
            co_await replayQuery(run, pq.profile, params);
            done = run.loop.now();
            run.loop.stop();
        };
        run.loop.spawn(wrapper());
        run.loop.run();
        return toSeconds(done) * 1e3;
    };
    std::printf("\nsimulated query time:  2 cores / 4 MB LLC: %.2f ms"
                "\n                      16 cores / 40 MB LLC: %.2f ms\n",
                time_with(2, 4), time_with(16, 40));
    return 0;
}
