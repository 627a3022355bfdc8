/**
 * @file
 * Reproduces Figure 7: the two query plans the optimizer produces for
 * TPC-H Query 20 (Listing 1) at scale factor 300 — the serial
 * MAXDOP=1 plan with a hash join against `part`, and the MAXDOP=32
 * plan where every operator is parallel ('<=>' marks, the paper's
 * double arrows) and the `part` join becomes an index nested loops
 * join.
 */

#include "bench_common.h"

#include "opt/plan_printer.h"
#include "workloads/tpch/tpch_gen.h"
#include "workloads/tpch/tpch_queries.h"

int
main(int argc, char **argv)
{
    using namespace dbsens;
    using namespace dbsens::bench;

    BenchContext ctx(argc, argv, "bench_fig7_plans");
    ctx.config()["tpch_sf"] = Json(300);

    note("generating TPC-H SF=300 (plan choice uses its statistics)...");
    auto db = tpch::generate(300);

    banner("Fig 7a: Q20 serial plan (MAXDOP = 1)");
    auto serial = tpch::query(20);
    Optimizer o1(*db, tpchOptimizerConfig(1));
    o1.optimize(*serial);
    std::cout << planToString(*serial);

    banner("Fig 7b: Q20 parallel plan (MAXDOP = 32)");
    auto parallel = tpch::query(20);
    Optimizer o32(*db, tpchOptimizerConfig(32));
    o32.optimize(*parallel);
    std::cout << planToString(*parallel);

    banner("Plan-change summary");
    const std::string s1 = planSignature(*serial);
    const std::string s32 = planSignature(*parallel);
    std::printf("serial   signature: %s\n", s1.c_str());
    std::printf("parallel signature: %s\n", s32.c_str());
    std::printf("plans differ: %s\n", s1 != s32 ? "yes" : "no");
    std::printf("parallel plan uses index nested loops on part: %s "
                "(paper: yes)\n",
                s32.find("NL(part)") != std::string::npos ? "yes"
                                                          : "no");
    std::printf("serial plan uses hash join on part: %s (paper: "
                "yes)\n",
                s1.find("NL(part)") == std::string::npos ? "yes"
                                                         : "no");

    // The paper also notes Q20 uses ~45% less memory at MAXDOP=1.
    ProfilingEnv env(*db);
    const auto p1 =
        profileQuery(*db, *tpch::query(20), tpchOptimizerConfig(1),
                     &env.pool());
    const auto p32 =
        profileQuery(*db, *tpch::query(20), tpchOptimizerConfig(32),
                     &env.pool());
    const double m1 = double(p1.profile.totalMemRequired());
    const double m32 = double(p32.profile.totalMemRequired());
    std::printf("\nQ20 memory requirement: MAXDOP=1 %.1f MB, "
                "MAXDOP=32 %.1f MB (%.0f%% less serial; paper: 45%% "
                "less)\n",
                m1 / 1e6, m32 / 1e6,
                m32 > 0 ? 100.0 * (1.0 - m1 / m32) : 0.0);

    ctx.results()["serial_signature"] = Json(s1);
    ctx.results()["parallel_signature"] = Json(s32);
    ctx.results()["plans_differ"] = Json(s1 != s32);
    ctx.results()["serial_mem_bytes"] = Json(m1);
    ctx.results()["parallel_mem_bytes"] = Json(m32);
    ctx.results()["serial_profile"] = toJson(p1.profile);
    ctx.results()["parallel_profile"] = toJson(p32.profile);
    return ctx.finish();
}
