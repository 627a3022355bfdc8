/**
 * @file
 * Fleet chaos (beyond the paper): the single-box sensitivity results
 * say what one node does when a resource degrades; this bench measures
 * what a *cluster* of them does when whole nodes crash mid-protocol.
 * N shard nodes run presumed-abort 2PC over a lossy, duplicating,
 * seeded network while open-loop multi-tenant arrivals (diurnal shape
 * plus a tenant-0 flash crowd) submit cross-shard transfers, and a
 * chaos regime crashes and restarts nodes inside the window.
 *
 * The ladder sweeps node count x crash intensity. Every cell must
 * pass the full audit stack — per-node serializability oracles,
 * cross-shard atomicity over the WAL histories, fleet-wide balance
 * conservation — and resolve 100% of in-doubt branches by the end of
 * the heal-and-drain tail. The verdict also requires the chaos cells
 * to have actually crashed nodes and recovered in-doubt branches, so
 * a silently inert fault injector cannot pass.
 *
 * `--small` shrinks the ladder and window for CI; `--json` / `--trace`
 * behave as in every other bench.
 */

#include "bench_common.h"

#include <algorithm>

#include "cluster/fleet.h"

int
main(int argc, char **argv)
{
    using namespace dbsens;
    using namespace dbsens::bench;
    using namespace dbsens::cluster;

    BenchContext ctx(argc, argv, "bench_fig13_fleet",
                     /*has_small=*/true);
    const bool small = ctx.small();

    const std::vector<int> node_counts =
        small ? std::vector<int>{2, 3} : std::vector<int>{2, 4, 6};
    const std::vector<double> crash_ladder =
        small ? std::vector<double>{0, 1} : std::vector<double>{0, 1, 2};
    const SimDuration window =
        small ? milliseconds(30) : milliseconds(60);
    const SimDuration drain =
        small ? milliseconds(30) : milliseconds(40);

    struct Cell
    {
        int nodes = 0;
        double crashes = 0;
        FleetResult res;
    };
    std::vector<Cell> cells;

    for (int nodes : node_counts) {
        for (double crashes : crash_ladder) {
            ClusterConfig cfg;
            cfg.nodes = nodes;
            cfg.seed = 42;
            cfg.window = window;
            cfg.drain = drain;
            cfg.rowsPerShard = small ? 1000 : 2000;
            cfg.arrivalsPerMs = small ? 2.0 : 3.0;
            cfg.crashesPerNode = crashes;
            if (crashes > 0) {
                cfg.net.lossRate = 0.02;
                cfg.net.dupRate = 0.02;
            }
            banner("fleet: " + std::to_string(nodes) + " nodes, " +
                   std::to_string(crashes) + " crashes/node" +
                   (crashes > 0 ? " (lossy net)" : ""));
            Fleet fleet(cfg);
            Cell c;
            c.nodes = nodes;
            c.crashes = crashes;
            c.res = fleet.run();
            uint64_t recovered = 0, prepares = 0;
            for (const NodeStats &ns : c.res.nodes) {
                recovered += ns.inDoubtRecovered;
                prepares += ns.prepares;
            }
            note("committed=" +
                 std::to_string(c.res.totalCommitted()) + "/" +
                 std::to_string(c.res.totalSubmitted()) +
                 " crashes=" + std::to_string(c.res.crashesInjected) +
                 " prepares=" + std::to_string(prepares) +
                 " in-doubt recovered=" + std::to_string(recovered) +
                 " unresolved=" +
                 std::to_string(c.res.inDoubtUnresolved) +
                 " violations=" +
                 std::to_string(c.res.audit.violations.size()));
            for (const verify::Violation &v : c.res.audit.violations)
                note("  VIOLATION " + v.auditor + ": " + v.detail);
            cells.push_back(std::move(c));
        }
    }

    // ------------------------------------------------------- summary
    banner("Fleet chaos summary");
    TablePrinter t({"nodes", "crash/node", "submitted", "committed",
                    "aborted", "unknown", "p99 ms (t0)", "crashes",
                    "in-doubt rec", "unresolved", "violations"});
    for (const Cell &c : cells) {
        uint64_t aborted = 0, unknown = 0;
        for (const TenantStats &ts : c.res.tenants) {
            aborted += ts.aborted;
            unknown += ts.unknown;
        }
        Distribution lat = c.res.tenants[0].latencyMs;
        t.row()
            .cell(double(c.nodes), 0)
            .cell(c.crashes, 1)
            .cell(double(c.res.totalSubmitted()), 0)
            .cell(double(c.res.totalCommitted()), 0)
            .cell(double(aborted), 0)
            .cell(double(unknown), 0)
            .cell(lat.count() ? lat.quantile(0.99) : 0.0, 2)
            .cell(double(c.res.crashesInjected), 0)
            .cell(double(c.res.inDoubtResolved), 0)
            .cell(double(c.res.inDoubtUnresolved), 0)
            .cell(double(c.res.audit.violations.size()), 0);
    }
    t.print(std::cout);

    // ------------------------------------------------------- verdict
    bool all_consistent = true;
    bool all_resolved = true;
    uint64_t chaos_crashes = 0;
    uint64_t chaos_recovered = 0;
    uint64_t total_committed = 0;
    for (const Cell &c : cells) {
        all_consistent = all_consistent && c.res.audit.ok();
        all_resolved = all_resolved && c.res.inDoubtUnresolved == 0;
        total_committed += c.res.totalCommitted();
        if (c.crashes > 0) {
            chaos_crashes += c.res.crashesInjected;
            for (const NodeStats &ns : c.res.nodes)
                chaos_recovered += ns.inDoubtRecovered;
        }
    }
    const bool engaged = chaos_crashes > 0;
    const bool worked = total_committed > 0;
    note(std::string(all_consistent ? "PASS" : "FAIL") +
         ": zero consistency violations across the ladder");
    note(std::string(all_resolved ? "PASS" : "FAIL") +
         ": 100% of in-doubt branches resolved after heal-and-drain");
    note(std::string(engaged ? "PASS" : "FAIL") +
         ": chaos cells actually crashed nodes (" +
         std::to_string(chaos_crashes) + " crashes, " +
         std::to_string(chaos_recovered) + " in-doubt recovered)");
    note(std::string(worked ? "PASS" : "FAIL") +
         ": the fleet committed work (" +
         std::to_string(total_committed) + " transactions)");
    note("expected shape: p99 grows with crash intensity (crashed "
         "coordinators strand clients to their deadline) while the "
         "audits stay clean — crashes cost latency, never "
         "consistency.");

    const bool pass =
        all_consistent && all_resolved && engaged && worked;

    ctx.config()["window_ms"] =
        Json(double(window) / double(milliseconds(1)));
    ctx.config()["seed"] = Json(42);
    Json cellsJson = Json::array();
    for (const Cell &c : cells) {
        Json e = Json::object();
        e["nodes"] = Json(c.nodes);
        e["crashes_per_node"] = Json(c.crashes);
        e["submitted"] = Json(c.res.totalSubmitted());
        e["committed"] = Json(c.res.totalCommitted());
        e["crashes_injected"] = Json(c.res.crashesInjected);
        e["in_doubt_resolved"] = Json(c.res.inDoubtResolved);
        e["in_doubt_unresolved"] = Json(c.res.inDoubtUnresolved);
        e["violations"] = Json(c.res.audit.violations.size());
        e["net_sent"] = Json(c.res.netSent);
        e["net_dropped"] = Json(c.res.netDropped);
        e["net_duplicated"] = Json(c.res.netDuplicated);
        Json tenants = Json::array();
        for (const TenantStats &ts : c.res.tenants) {
            Json tj = Json::object();
            tj["submitted"] = Json(ts.submitted);
            tj["committed"] = Json(ts.committed);
            tj["aborted"] = Json(ts.aborted);
            tj["rejected"] = Json(ts.rejected);
            tj["unknown"] = Json(ts.unknown);
            tj["cross_shard"] = Json(ts.crossShard);
            Distribution lat = ts.latencyMs;
            tj["p50_ms"] =
                Json(lat.count() ? lat.quantile(0.50) : 0.0);
            tj["p99_ms"] =
                Json(lat.count() ? lat.quantile(0.99) : 0.0);
            tenants.push(std::move(tj));
        }
        e["tenants"] = std::move(tenants);
        Json perNode = Json::array();
        for (size_t n = 0; n < c.res.nodes.size(); ++n) {
            const NodeStats &ns = c.res.nodes[n];
            Json nj = Json::object();
            nj["node"] = Json(int(n));
            nj["crashes"] = Json(ns.crashes);
            nj["recoveries"] = Json(ns.recoveries);
            nj["local_committed"] = Json(ns.localCommitted);
            nj["coord_committed"] = Json(ns.coordCommitted);
            nj["coord_aborted"] = Json(ns.coordAborted);
            nj["branches_executed"] = Json(ns.branchesExecuted);
            nj["prepares"] = Json(ns.prepares);
            nj["decisions_logged"] = Json(ns.decisionsLogged);
            nj["dup_decisions"] = Json(ns.dupDecisions);
            nj["inquiries_sent"] = Json(ns.inquiriesSent);
            nj["in_doubt_recovered"] = Json(ns.inDoubtRecovered);
            nj["in_doubt_committed"] = Json(ns.inDoubtCommitted);
            nj["in_doubt_aborted"] = Json(ns.inDoubtAborted);
            nj["recovery_ms"] = Json(double(ns.recoveryNs) /
                                     double(milliseconds(1)));
            perNode.push(std::move(nj));
        }
        e["per_node"] = std::move(perNode);
        Json events = Json::array();
        for (const FleetEvent &ev : c.res.events) {
            Json ej = Json::object();
            ej["node"] = Json(ev.node);
            ej["at_ms"] = Json(double(ev.at) /
                               double(milliseconds(1)));
            ej["kind"] = Json(ev.kind);
            events.push(std::move(ej));
        }
        e["events"] = std::move(events);
        cellsJson.push(std::move(e));
    }
    ctx.results()["cells"] = std::move(cellsJson);
    Json v = Json::object();
    v["all_consistent"] = Json(all_consistent);
    v["all_resolved"] = Json(all_resolved);
    v["engaged"] = Json(engaged);
    ctx.verdict(pass, std::move(v));
    return ctx.finish();
}
