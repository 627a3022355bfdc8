/**
 * @file
 * Fig 14 (beyond the paper): the sketch-statistics backbone under a
 * skew x memory-budget sweep (DESIGN.md Section 16).
 *
 * A synthetic fact table draws its join/filter key from a Zipf
 * distribution at several skews. For each skew the bench optimizes
 * the same filter-heavy plan three ways — static selectivity
 * heuristics, live sketch statistics at each memory budget on the
 * ladder, and an "oracle" hub whose sketch is wide enough to be
 * effectively exact — and probes every distinct key against the
 * column's CountMin sketch and the value column's KLL sketch.
 *
 * Three verdict gates:
 *
 *  1. plan flips: at every budget the sketch-driven plan choice
 *     (serial vs parallel) matches the exact-cardinality oracle for
 *     both the hottest and the rarest literal, somewhere in the sweep
 *     the hot literal goes parallel while the rare one stays serial,
 *     and somewhere the static heuristic disagrees with the oracle —
 *     i.e. sketches flip plans exactly where static estimates stay
 *     wrong;
 *
 *  2. analytic bounds: CountMin estimates never underestimate, at
 *     least 95% of distinct keys sit within the e/width * N
 *     overestimate bound (the bound itself fails w.p. exp(-depth)
 *     per key), and every probed KLL quantile is within its exact
 *     online rankErrorBound() of the true rank;
 *
 *  3. monotone resize: folding the sketch down the budget ladder is
 *     bit-identical to a direct build at each width, bytes halve and
 *     epsilon doubles per rung, and the measured mean absolute error
 *     is non-decreasing as memory shrinks — the quantified
 *     accuracy-for-memory trade the grant-pressure ladder relies on.
 *
 * `--small` shrinks the table and ladder for CI; `--json` / `--trace`
 * behave as in every other bench.
 */

#include "bench_common.h"

#include <algorithm>
#include <map>
#include <memory>

#include "core/random.h"
#include "exec/table_handle.h"
#include "opt/optimizer.h"
#include "opt/sketch_stats.h"
#include "stats_sketch/hub.h"

namespace {

using namespace dbsens;

/** Minimal in-memory table handle (no indexes). */
struct FactTable : TableHandle
{
    std::unique_ptr<TableData> owned;
    BTree *indexOn(const std::string &) const override
    {
        return nullptr;
    }
};

class FactResolver : public TableResolver
{
  public:
    FactTable &
    add(const std::string &name, Schema schema)
    {
        auto t = std::make_unique<FactTable>();
        t->name = name;
        t->owned = std::make_unique<TableData>(std::move(schema));
        t->data = t->owned.get();
        auto &ref = *t;
        tables_[name] = std::move(t);
        return ref;
    }

    const TableHandle &find(const std::string &name) const override
    {
        return *tables_.at(name);
    }

  private:
    std::map<std::string, std::unique_ptr<FactTable>> tables_;
};

/** The probe plan: scan -> filter(key == literal) -> sort(val).
 * The sort's cost scales with the filter's cardinality estimate, so
 * the serial-vs-parallel choice hinges on the selectivity source. */
PlanPtr
probePlan(int64_t literal)
{
    return PlanBuilder::scan("fact", {"key", "val"})
        .filter(eq(col("key"), lit(literal)))
        .orderBy({{"val", false}})
        .build();
}

/** Optimize the probe plan for `literal`; returns the parallel flag. */
bool
planParallel(const TableResolver &resolver, double threshold,
             sketch::SketchHub *hub, int64_t literal,
             double *est_rows = nullptr)
{
    OptimizerConfig cfg;
    cfg.maxdop = 32;
    cfg.serialThreshold = threshold;
    cfg.sketch = hub;
    Optimizer opt(resolver, cfg);
    auto plan = probePlan(literal);
    opt.optimize(*plan);
    if (est_rows)
        *est_rows = plan->children[0]->estRows; // the Filter node
    return opt.lastPlanParallel();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace dbsens::bench;
    using dbsens::sketch::CountMinSketch;
    using dbsens::sketch::KllSketch;
    using dbsens::sketch::SketchConfig;
    using dbsens::sketch::SketchHub;

    // BenchContext rejects unknown flags, so strip `--small` first.
    bool small = false;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::string(argv[i]) == "--small")
            small = true;
        else
            args.push_back(argv[i]);
    }
    BenchContext ctx(int(args.size()), args.data(),
                     "bench_fig14_sketch");

    const size_t kRows = small ? 120000 : 400000;
    const int64_t kKeys = 200;
    const std::vector<double> skews = {0.2, 0.6, 0.9};
    // (cmsWidth, kllK) budget ladder, largest first.
    const std::vector<std::pair<uint32_t, uint32_t>> budgets =
        small ? std::vector<std::pair<uint32_t, uint32_t>>{{2048, 200},
                                                           {512, 100},
                                                           {128, 32}}
              : std::vector<std::pair<uint32_t, uint32_t>>{{8192, 200},
                                                           {1024, 100},
                                                           {128, 32}};
    const uint32_t oracleWidth = small ? (1u << 18) : (1u << 20);
    // Calibrated against the cost model: scan+filter cost 3N for the
    // two-column plan, so the sort must contribute > 0.75N to go
    // parallel — which takes a hot literal, not the 2% static guess.
    const double threshold = 3.75 * double(kRows);

    ctx.config()["small"] = Json(small);
    ctx.config()["rows"] = Json(kRows);
    ctx.config()["distinct_keys"] = Json(kKeys);
    ctx.config()["serial_threshold"] = Json(threshold);

    struct Cell
    {
        double skew = 0;
        uint32_t width = 0, kllK = 0;
        double estHot = 0, estRare = 0;
        bool hotPar = false, rarePar = false;
        // gate 2 accounting
        uint64_t underestimates = 0;
        double withinFrac = 0;
        double eps = 0;
        bool kllOk = true;
        uint64_t kllBound = 0;
    };
    struct SkewRow
    {
        double skew = 0;
        int64_t hotKey = 0, rareKey = 0;
        uint64_t hotCnt = 0, rareCnt = 0;
        double staticEst = 0;
        bool staticHotPar = false, staticRarePar = false;
        bool oracleHotPar = false, oracleRarePar = false;
        std::vector<Cell> cells;
    };
    std::vector<SkewRow> rows;

    // Resize-curve data (gate 3), recorded at the highest skew.
    struct Rung
    {
        uint32_t width = 0;
        uint64_t bytes = 0;
        double eps = 0, mae = 0;
        bool bitIdentical = false;
    };
    std::vector<Rung> curve;
    struct KllRung
    {
        uint32_t k = 0;
        uint64_t bytes = 0, bound = 0;
    };
    std::vector<KllRung> kllCurve;

    for (double skew : skews) {
        banner("skew theta = " + std::to_string(skew));
        SkewRow row;
        row.skew = skew;

        // ---- synthesize the fact table + exact ground truth
        FactResolver resolver;
        auto &fact = resolver.add("fact",
                                  Schema({{"key", TypeId::Int64},
                                          {"val", TypeId::Double}}));
        Rng rng(0xF16'14'5EEDULL + uint64_t(skew * 1000));
        ZipfSampler zipf(uint64_t(kKeys), skew);
        std::vector<uint64_t> exact(size_t(kKeys), 0);
        std::vector<uint64_t> keyStream;
        keyStream.reserve(kRows);
        std::vector<double> vals;
        vals.reserve(kRows);
        for (size_t i = 0; i < kRows; ++i) {
            const uint64_t k = zipf(rng);
            const double v = rng.uniformReal() * 1e4;
            fact.owned->append({int64_t(k), v});
            ++exact[size_t(k)];
            keyStream.push_back(k);
            vals.push_back(v);
        }
        std::vector<double> sortedVals = vals;
        std::sort(sortedVals.begin(), sortedVals.end());

        row.hotKey = int64_t(
            std::max_element(exact.begin(), exact.end()) -
            exact.begin());
        // Rarest key that actually occurs.
        uint64_t best = ~0ull;
        for (int64_t k = 0; k < kKeys; ++k)
            if (exact[size_t(k)] > 0 && exact[size_t(k)] < best) {
                best = exact[size_t(k)];
                row.rareKey = k;
            }
        row.hotCnt = exact[size_t(row.hotKey)];
        row.rareCnt = exact[size_t(row.rareKey)];

        // ---- static heuristics and the exact-cardinality oracle
        row.staticHotPar = planParallel(resolver, threshold, nullptr,
                                        row.hotKey, &row.staticEst);
        row.staticRarePar =
            planParallel(resolver, threshold, nullptr, row.rareKey);
        {
            SketchConfig sc;
            sc.enabled = true;
            sc.cmsWidth = oracleWidth;
            SketchHub oracle(sc);
            row.oracleHotPar = planParallel(resolver, threshold,
                                            &oracle, row.hotKey);
            row.oracleRarePar = planParallel(resolver, threshold,
                                             &oracle, row.rareKey);
        }

        // ---- the budget ladder
        for (const auto &b : budgets) {
            Cell c;
            c.skew = skew;
            c.width = b.first;
            c.kllK = b.second;
            SketchConfig sc;
            sc.enabled = true;
            sc.cmsWidth = b.first;
            sc.kllK = b.second;
            SketchHub hub(sc);
            c.hotPar = planParallel(resolver, threshold, &hub,
                                    row.hotKey, &c.estHot);
            c.rarePar = planParallel(resolver, threshold, &hub,
                                     row.rareKey, &c.estRare);

            // Gate 2: every distinct key against the analytic bound.
            const auto *cs = hub.findColumn("fact", "key");
            const CountMinSketch &cms = cs->cms;
            c.eps = cms.epsilon();
            const double slack = c.eps * double(cms.total());
            uint64_t within = 0;
            for (int64_t k = 0; k < kKeys; ++k) {
                const uint64_t est = cms.estimate(uint64_t(k));
                const uint64_t tru = exact[size_t(k)];
                if (est < tru)
                    ++c.underestimates;
                if (double(est) <= double(tru) + slack)
                    ++within;
            }
            c.withinFrac = double(within) / double(kKeys);

            // ... and the value column's KLL against exact ranks.
            const auto *vs = ensureColumnStats(
                hub, resolver.find("fact"), "val", nullptr);
            c.kllBound = vs->kll.rankErrorBound();
            for (double q : {0.1, 0.5, 0.9, 0.99}) {
                const double v = vs->kll.quantile(q);
                const double lo = double(
                    std::lower_bound(sortedVals.begin(),
                                     sortedVals.end(), v) -
                    sortedVals.begin());
                const double hi = double(
                    std::upper_bound(sortedVals.begin(),
                                     sortedVals.end(), v) -
                    sortedVals.begin());
                const double target = q * double(kRows);
                const double dist =
                    target < lo ? lo - target
                                : (target > hi ? target - hi : 0.0);
                if (dist > double(c.kllBound) + 1.0)
                    c.kllOk = false;
            }
            row.cells.push_back(c);
        }

        // ---- gate 3: the fold ladder, on the highest-skew stream
        if (skew == skews.back()) {
            const uint32_t w0 = budgets.front().first;
            CountMinSketch folded(w0, 4, 0x5eed5ce7c4ULL);
            for (uint64_t k : keyStream)
                folded.update(k);
            for (;;) {
                CountMinSketch direct(folded.width(), 4,
                                      0x5eed5ce7c4ULL);
                for (uint64_t k : keyStream)
                    direct.update(k);
                Rung r;
                r.width = folded.width();
                r.bytes = folded.bytes();
                r.eps = folded.epsilon();
                r.bitIdentical =
                    folded.digest() == direct.digest();
                double abserr = 0;
                for (int64_t k = 0; k < kKeys; ++k)
                    abserr += double(folded.estimate(uint64_t(k)) -
                                     exact[size_t(k)]);
                r.mae = abserr / double(kKeys);
                curve.push_back(r);
                if (!folded.shrink(dbsens::sketch::kMinCmsWidth))
                    break;
            }
            KllSketch kll(budgets.front().second, 0x5eed5ce7c4ULL);
            for (double v : vals)
                kll.update(v);
            for (;;) {
                kllCurve.push_back(KllRung{kll.k(), kll.bytes(),
                                           kll.rankErrorBound()});
                if (!kll.shrink(dbsens::sketch::kMinKllK))
                    break;
            }
        }

        note("hot key " + std::to_string(row.hotKey) + " x" +
             std::to_string(row.hotCnt) + ", rare key " +
             std::to_string(row.rareKey) + " x" +
             std::to_string(row.rareCnt) + "; static est " +
             std::to_string(uint64_t(row.staticEst)) + " rows");
        rows.push_back(std::move(row));
    }

    // ------------------------------------------------------- summary
    banner("skew x budget: plan choice and estimate error");
    TablePrinter t({"theta", "width", "hot est/exact", "rare est/exact",
                    "hot plan", "rare plan", "oracle hot",
                    "underest", "within-bound", "kll ok"});
    for (const SkewRow &r : rows)
        for (const Cell &c : r.cells) {
            t.row()
                .cell(c.skew, 1)
                .cell(double(c.width), 0)
                .cell(std::to_string(uint64_t(c.estHot)) + "/" +
                      std::to_string(r.hotCnt))
                .cell(std::to_string(uint64_t(c.estRare)) + "/" +
                      std::to_string(r.rareCnt))
                .cell(c.hotPar ? "parallel" : "serial")
                .cell(c.rarePar ? "parallel" : "serial")
                .cell(r.oracleHotPar ? "parallel" : "serial")
                .cell(double(c.underestimates), 0)
                .cell(c.withinFrac, 3)
                .cell(c.kllOk ? "yes" : "NO");
        }
    t.print(std::cout);

    banner("resize ladder (fold vs direct build, highest skew)");
    TablePrinter rt({"width", "bytes", "epsilon", "mean abs err",
                     "fold==direct"});
    for (const Rung &r : curve)
        rt.row()
            .cell(double(r.width), 0)
            .cell(double(r.bytes), 0)
            .cell(r.eps, 5)
            .cell(r.mae, 2)
            .cell(r.bitIdentical ? "yes" : "NO");
    rt.print(std::cout);

    // ------------------------------------------------------- verdict
    bool flips_match_oracle = true;
    bool static_wrong_somewhere = false;
    bool asymmetry_somewhere = false;
    bool bounds_ok = true;
    for (const SkewRow &r : rows) {
        if (r.staticHotPar != r.oracleHotPar ||
            r.staticRarePar != r.oracleRarePar)
            static_wrong_somewhere = true;
        for (const Cell &c : r.cells) {
            flips_match_oracle = flips_match_oracle &&
                                 c.hotPar == r.oracleHotPar &&
                                 c.rarePar == r.oracleRarePar;
            asymmetry_somewhere =
                asymmetry_somewhere || (c.hotPar && !c.rarePar);
            bounds_ok = bounds_ok && c.underestimates == 0 &&
                        c.withinFrac >= 0.95 && c.kllOk;
        }
    }
    bool resize_ok = curve.size() >= 3;
    for (size_t i = 0; i < curve.size(); ++i) {
        resize_ok = resize_ok && curve[i].bitIdentical;
        if (i > 0) {
            resize_ok = resize_ok &&
                        curve[i].bytes * 2 == curve[i - 1].bytes &&
                        curve[i].mae >= curve[i - 1].mae - 1e-9;
        }
    }
    for (size_t i = 1; i < kllCurve.size(); ++i)
        resize_ok = resize_ok &&
                    kllCurve[i].bytes <= kllCurve[i - 1].bytes &&
                    kllCurve[i].bound >= kllCurve[i - 1].bound;

    const bool plan_flips = flips_match_oracle &&
                            static_wrong_somewhere &&
                            asymmetry_somewhere;
    note(std::string(plan_flips ? "PASS" : "FAIL") +
         ": sketch-driven plans match the exact-cardinality oracle "
         "at every budget, flip hot-parallel/rare-serial, and the "
         "static heuristic stays wrong somewhere in the sweep");
    note(std::string(bounds_ok ? "PASS" : "FAIL") +
         ": no underestimates, >= 95% of keys within the e/width*N "
         "bound, every KLL quantile within its exact rank-error "
         "budget");
    note(std::string(resize_ok ? "PASS" : "FAIL") +
         ": fold ladder bit-identical to direct builds, bytes halve "
         "per rung, accuracy degrades monotonically");

    const bool pass = plan_flips && bounds_ok && resize_ok;

    if (ctx.jsonRequested()) {
        Json cells = Json::array();
        for (const SkewRow &r : rows)
            for (const Cell &c : r.cells) {
                Json e = Json::object();
                e["skew"] = Json(c.skew);
                e["cms_width"] = Json(uint64_t(c.width));
                e["kll_k"] = Json(uint64_t(c.kllK));
                e["hot_key"] = Json(r.hotKey);
                e["rare_key"] = Json(r.rareKey);
                e["hot_exact"] = Json(r.hotCnt);
                e["rare_exact"] = Json(r.rareCnt);
                e["hot_est"] = Json(c.estHot);
                e["rare_est"] = Json(c.estRare);
                e["static_est"] = Json(r.staticEst);
                e["hot_parallel"] = Json(c.hotPar);
                e["rare_parallel"] = Json(c.rarePar);
                e["static_hot_parallel"] = Json(r.staticHotPar);
                e["oracle_hot_parallel"] = Json(r.oracleHotPar);
                e["oracle_rare_parallel"] = Json(r.oracleRarePar);
                e["underestimates"] = Json(c.underestimates);
                e["within_bound_frac"] = Json(c.withinFrac);
                e["epsilon"] = Json(c.eps);
                e["kll_rank_bound"] = Json(c.kllBound);
                e["kll_ok"] = Json(c.kllOk);
                cells.push(std::move(e));
            }
        ctx.results()["cells"] = std::move(cells);
        Json curveJson = Json::array();
        for (const Rung &r : curve) {
            Json e = Json::object();
            e["width"] = Json(uint64_t(r.width));
            e["bytes"] = Json(r.bytes);
            e["epsilon"] = Json(r.eps);
            e["mean_abs_err"] = Json(r.mae);
            e["fold_bit_identical"] = Json(r.bitIdentical);
            curveJson.push(std::move(e));
        }
        ctx.results()["resize_curve"] = std::move(curveJson);
        Json kllJson = Json::array();
        for (const KllRung &r : kllCurve) {
            Json e = Json::object();
            e["k"] = Json(uint64_t(r.k));
            e["bytes"] = Json(r.bytes);
            e["rank_err_bound"] = Json(r.bound);
            kllJson.push(std::move(e));
        }
        ctx.results()["kll_shrink_curve"] = std::move(kllJson);
        Json v = Json::object();
        v["plan_flips"] = Json(plan_flips);
        v["bounds_ok"] = Json(bounds_ok);
        v["resize_monotone"] = Json(resize_ok);
        v["pass"] = Json(pass);
        ctx.results()["verdict"] = std::move(v);
    }
    return pass ? 0 : 1;
}
