/**
 * @file
 * Wall-clock benchmark driver: end-to-end TPC-H Q1/Q6 through the
 * full simulator harness, plus the JSON reporter that combines these
 * with the kernel benchmarks from bench_wallclock_kernels.cc (same
 * binary, separate translation unit so engine header growth cannot
 * perturb the kernels' codegen).
 *
 * These measure *host* throughput — the simulated results (OpProfile,
 * cache feed) are bit-identical across both paths by construction.
 *
 * Output: a single JSON object on stdout (`run_benches.sh wallclock`
 * redirects it to BENCH_wallclock.json). The JSON embeds the seed
 * (pre-vectorization) baseline numbers, captured on the same machine
 * with the same kernels/data before the rewrite, and reports both
 * in-binary speedups (reference kernel vs new kernel, measured now)
 * and speedups against that recorded seed.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "engine/query_runner.h"
#include "wallclock_params.h"
#include "workloads/tpch/tpch_gen.h"
#include "workloads/tpch/tpch_queries.h"

namespace dbsens {
namespace {

Database &
tpchDb()
{
    static const std::unique_ptr<Database> db =
        tpch::generate(1, 19920101);
    return *db;
}

// ------------------------------------------------------ TPC-H end-to-end

void
BM_TpchE2E(benchmark::State &state)
{
    Database &db = tpchDb();
    auto plan = tpch::query(int(state.range(0)));
    for (auto _ : state) {
        Chunk out;
        profileQuery(db, *plan, {.maxdop = 8}, nullptr, nullptr, &out);
        benchmark::DoNotOptimize(out.rows());
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_TpchE2E)->Arg(1)->Arg(6)->Repetitions(3);

// -------------------------------------------------------- JSON reporter

/**
 * Collects per-benchmark mean real time (and user counters) and emits
 * nothing during the run; main() prints the combined JSON afterwards.
 */
class CollectingReporter : public benchmark::BenchmarkReporter
{
  public:
    bool ReportContext(const Context &) override { return true; }

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &r : runs) {
            if (r.error_occurred || r.run_type != Run::RT_Iteration)
                continue;
            const double ms = r.real_accumulated_time /
                              double(r.iterations) * 1e3;
            // Repetitions suffix the run name with "/repeats:N" —
            // strip it so lookups use the registration name.
            std::string name = r.benchmark_name();
            const size_t p = name.find("/repeats:");
            if (p != std::string::npos)
                name.resize(p);
            // Keep the fastest repetition: wall-clock noise on a
            // shared host only ever inflates.
            auto [it, fresh] = ms_.emplace(name, ms);
            if (fresh || ms < it->second) {
                it->second = ms;
                for (const auto &[cname, c] : r.counters)
                    counters_[name][cname] = double(c);
            }
        }
    }

    double
    at(const std::string &name) const
    {
        auto it = ms_.find(name);
        return it == ms_.end() ? 0.0 : it->second;
    }

    double
    counter(const std::string &name, const std::string &cname) const
    {
        auto it = counters_.find(name);
        if (it == counters_.end())
            return 0.0;
        auto jt = it->second.find(cname);
        return jt == it->second.end() ? 0.0 : jt->second;
    }

    /** bytes_per_pass / ms — MB/s-scale honesty metric per kernel. */
    double
    bytesPerMs(const std::string &name) const
    {
        const double ms = at(name);
        return ms > 0 ? counter(name, "bytes_per_pass") / ms : 0.0;
    }

  private:
    std::map<std::string, double> ms_;
    std::map<std::string, std::map<std::string, double>> counters_;
};

/**
 * Seed (pre-vectorization) wall-clock baseline: min-of-5, same data
 * and kernel shapes, captured on this machine at commit 45b8468
 * before the executor rewrite. Units: ms per 1M-row kernel pass
 * (filter/eval/agg/join) or per query (tpch).
 */
struct SeedBaseline
{
    double filter_ms = 34.845;
    double eval_column_ms = 15.295;
    double hash_agg_ms = 19.213;
    double hash_join_ms = 87.332;
    double tpch_q1_ms = 0.712;
    double tpch_q6_ms = 0.223;
};

/**
 * PR 1 (vectorization pass) wall-clock numbers, captured on this
 * machine from the committed BENCH_wallclock.json before the
 * compression/prefetch/morsel pass. The trajectory the acceptance
 * criteria measure against.
 */
struct Pr1Baseline
{
    double filter_vectorized_ms = 3.072;
    double eval_column_ms = 11.824;
    double hash_agg_flat_ms = 7.065;
    double hash_join_flat_ms = 46.749;
    double tpch_q1_ms = 0.328;
    double tpch_q6_ms = 0.048;
};

} // namespace
} // namespace dbsens

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    dbsens::CollectingReporter rep;
    benchmark::RunSpecifiedBenchmarks(&rep);

    const dbsens::SeedBaseline seed;
    const dbsens::Pr1Baseline pr1;
    const double filter_ref = rep.at("BM_FilterScalarRef");
    const double filter_vec = rep.at("BM_FilterVectorized");
    const double eval_col = rep.at("BM_EvalColumn");
    const double agg_ref = rep.at("BM_HashAggRef");
    const double agg_flat = rep.at("BM_HashAggFlat");
    const double join_ref = rep.at("BM_HashJoinRef");
    const double join_flat = rep.at("BM_HashJoinFlat");
    const double q1 = rep.at("BM_TpchE2E/1");
    const double q6 = rep.at("BM_TpchE2E/6");
    const double replay_ref = rep.at("BM_LlcReplayRef");
    const double replay = rep.at("BM_LlcReplay");

    auto ratio = [](double base, double now) {
        return now > 0 ? base / now : 0.0;
    };

    printf("{\n");
    printf("  \"rows\": %zu,\n", dbsens::kWallclockRows);
    printf("  \"build_rows\": %zu,\n", dbsens::kWallclockBuildRows);
    printf("  \"units\": \"ms_per_pass\",\n");
    printf("  \"current\": {\n");
    printf("    \"filter_scalar_ref_ms\": %.3f,\n", filter_ref);
    printf("    \"filter_vectorized_ms\": %.3f,\n", filter_vec);
    printf("    \"eval_column_ms\": %.3f,\n", eval_col);
    printf("    \"hash_agg_ref_ms\": %.3f,\n", agg_ref);
    printf("    \"hash_agg_flat_ms\": %.3f,\n", agg_flat);
    printf("    \"hash_join_ref_ms\": %.3f,\n", join_ref);
    printf("    \"hash_join_flat_ms\": %.3f,\n", join_flat);
    printf("    \"tpch_q1_ms\": %.3f,\n", q1);
    printf("    \"tpch_q6_ms\": %.3f,\n", q6);
    printf("    \"llc_replay_ref_ms\": %.3f,\n", replay_ref);
    printf("    \"llc_replay_ms\": %.3f\n", replay);
    printf("  },\n");
    printf("  \"bytes_per_pass\": {\n");
    printf("    \"filter_vectorized\": %.0f,\n",
           rep.counter("BM_FilterVectorized", "bytes_per_pass"));
    printf("    \"eval_column\": %.0f,\n",
           rep.counter("BM_EvalColumn", "bytes_per_pass"));
    printf("    \"hash_agg_flat\": %.0f,\n",
           rep.counter("BM_HashAggFlat", "bytes_per_pass"));
    printf("    \"hash_join_flat\": %.0f\n",
           rep.counter("BM_HashJoinFlat", "bytes_per_pass"));
    printf("  },\n");
    printf("  \"bytes_per_ms\": {\n");
    printf("    \"filter_vectorized\": %.0f,\n",
           rep.bytesPerMs("BM_FilterVectorized"));
    printf("    \"eval_column\": %.0f,\n",
           rep.bytesPerMs("BM_EvalColumn"));
    printf("    \"hash_agg_flat\": %.0f,\n",
           rep.bytesPerMs("BM_HashAggFlat"));
    printf("    \"hash_join_flat\": %.0f\n",
           rep.bytesPerMs("BM_HashJoinFlat"));
    printf("  },\n");
    printf("  \"morsel_ms\": {\n");
    printf("    \"filter_w1\": %.3f,\n", rep.at("BM_FilterMorsel/1"));
    printf("    \"filter_w2\": %.3f,\n", rep.at("BM_FilterMorsel/2"));
    printf("    \"filter_w4\": %.3f,\n", rep.at("BM_FilterMorsel/4"));
    printf("    \"hash_agg_w1\": %.3f,\n", rep.at("BM_HashAggMorsel/1"));
    printf("    \"hash_agg_w2\": %.3f,\n", rep.at("BM_HashAggMorsel/2"));
    printf("    \"hash_agg_w4\": %.3f,\n", rep.at("BM_HashAggMorsel/4"));
    printf("    \"hash_join_w1\": %.3f,\n",
           rep.at("BM_HashJoinMorsel/1"));
    printf("    \"hash_join_w2\": %.3f,\n",
           rep.at("BM_HashJoinMorsel/2"));
    printf("    \"hash_join_w4\": %.3f\n",
           rep.at("BM_HashJoinMorsel/4"));
    printf("  },\n");
    printf("  \"seed_baseline\": {\n");
    printf("    \"filter_ms\": %.3f,\n", seed.filter_ms);
    printf("    \"eval_column_ms\": %.3f,\n", seed.eval_column_ms);
    printf("    \"hash_agg_ms\": %.3f,\n", seed.hash_agg_ms);
    printf("    \"hash_join_ms\": %.3f,\n", seed.hash_join_ms);
    printf("    \"tpch_q1_ms\": %.3f,\n", seed.tpch_q1_ms);
    printf("    \"tpch_q6_ms\": %.3f\n", seed.tpch_q6_ms);
    printf("  },\n");
    printf("  \"speedup_vs_seed\": {\n");
    printf("    \"filter\": %.2f,\n", ratio(seed.filter_ms, filter_vec));
    printf("    \"eval_column\": %.2f,\n",
           ratio(seed.eval_column_ms, eval_col));
    printf("    \"hash_agg\": %.2f,\n", ratio(seed.hash_agg_ms, agg_flat));
    printf("    \"hash_join\": %.2f,\n",
           ratio(seed.hash_join_ms, join_flat));
    printf("    \"tpch_q1\": %.2f,\n", ratio(seed.tpch_q1_ms, q1));
    printf("    \"tpch_q6\": %.2f\n", ratio(seed.tpch_q6_ms, q6));
    printf("  },\n");
    printf("  \"pr1_baseline\": {\n");
    printf("    \"filter_vectorized_ms\": %.3f,\n",
           pr1.filter_vectorized_ms);
    printf("    \"eval_column_ms\": %.3f,\n", pr1.eval_column_ms);
    printf("    \"hash_agg_flat_ms\": %.3f,\n", pr1.hash_agg_flat_ms);
    printf("    \"hash_join_flat_ms\": %.3f,\n", pr1.hash_join_flat_ms);
    printf("    \"tpch_q1_ms\": %.3f,\n", pr1.tpch_q1_ms);
    printf("    \"tpch_q6_ms\": %.3f\n", pr1.tpch_q6_ms);
    printf("  },\n");
    printf("  \"speedup_vs_pr1\": {\n");
    printf("    \"filter\": %.2f,\n",
           ratio(pr1.filter_vectorized_ms, filter_vec));
    printf("    \"eval_column\": %.2f,\n",
           ratio(pr1.eval_column_ms, eval_col));
    printf("    \"hash_agg\": %.2f,\n",
           ratio(pr1.hash_agg_flat_ms, agg_flat));
    printf("    \"hash_join\": %.2f,\n",
           ratio(pr1.hash_join_flat_ms, join_flat));
    printf("    \"tpch_q1\": %.2f,\n", ratio(pr1.tpch_q1_ms, q1));
    printf("    \"tpch_q6\": %.2f\n", ratio(pr1.tpch_q6_ms, q6));
    printf("  },\n");
    printf("  \"speedup_vs_ref_in_binary\": {\n");
    printf("    \"filter\": %.2f,\n", ratio(filter_ref, filter_vec));
    printf("    \"hash_agg\": %.2f,\n", ratio(agg_ref, agg_flat));
    printf("    \"hash_join\": %.2f,\n", ratio(join_ref, join_flat));
    printf("    \"llc_replay\": %.2f\n", ratio(replay_ref, replay));
    printf("  }\n");
    printf("}\n");
    benchmark::Shutdown();
    return 0;
}
