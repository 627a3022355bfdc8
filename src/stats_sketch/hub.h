/**
 * @file
 * SketchHub: one run's sketch-statistics backbone (DESIGN.md Section
 * 16). Owns every live sketch the engine maintains and is gated the
 * same way as fault injection / tuning / observability: a disabled
 * SketchConfig builds no hub, installs no hooks, and runs stay
 * byte-identical.
 *
 * Three consumer groups hang off the hub:
 *
 *  (a) the optimizer: per-column CountMin + KLL statistics, built
 *      lazily from table data by opt/sketch_stats.cc (per-worker
 *      partials merged in morsel order) and queried for literal
 *      selectivities in place of the static heuristics;
 *
 *  (b) hot-key detection: a per-table PartitionedCms over row ids and
 *      a page-heat sketch, both fed from the transaction path; they
 *      only observe (hot-hit counts, occupancy, digests);
 *
 *  (c) per-tenant resource-usage quantiles: KLL latency summaries
 *      registered as `sketch.*` gauges, read by the autopilot's probe
 *      baseline (latency guardrail) and mirrored per-node in the
 *      cluster fleet, whose audits check merge-equals-concatenation
 *      and partition-split exactness at the router.
 *
 * The hub never draws from workload RNG streams, never schedules
 * events, and all its updates are pure bookkeeping: an enabled hub
 * only *observes* and simulated results are unchanged.
 */

#ifndef DBSENS_STATS_SKETCH_HUB_H
#define DBSENS_STATS_SKETCH_HUB_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/stats.h"
#include "stats_sketch/kll.h"
#include "stats_sketch/sketch.h"

namespace dbsens {
namespace sketch {

/** RunConfig::sketch — everything defaults to pure observation. */
struct SketchConfig
{
    /** Master gate: false ⇒ no hub, byte-identical runs. */
    bool enabled = false;

    // --- sketch shapes (per column / tracker) ---
    uint32_t cmsWidth = 8192; ///< column frequency sketch width
    uint32_t cmsDepth = 4;    ///< rows; bound fails w.p. exp(-depth)
    uint32_t kllK = 200;      ///< quantile compaction budget
    uint32_t hotWidth = 4096; ///< hot-row/page tracker width
    uint64_t seed = 0x5eed5ce7c4ULL;

    // --- hot-key policy ---
    /** A key is hot when its estimate >= hotFraction * total. */
    double hotFraction = 0.02;
    /** ... and at least this many accesses were tracked. */
    uint64_t hotMinTotal = 512;
};

/** Harness-facing summary for OltpRunResult / reports. */
struct SketchResult
{
    bool enabled = false;
    uint32_t cmsWidth = 0;
    uint32_t cmsDepth = 0;
    double cmsEps = 0;
    uint32_t kllK = 0;
    int resizes = 0;
    int columns = 0;
    uint64_t rowAccesses = 0;
    uint64_t pageAccesses = 0;
    uint64_t hotHits = 0;
    uint64_t bytes = 0;
    double occupancy = 0;
    uint64_t latencyCount[2] = {0, 0};
    double latP50Ms[2] = {0, 0};
    double latP95Ms[2] = {0, 0};
    double latP99Ms[2] = {0, 0};
    uint64_t digest = 0;
};

/** One run's sketch backbone. */
class SketchHub
{
  public:
    static constexpr int kTenants = 2;

    explicit SketchHub(const SketchConfig &cfg);

    const SketchConfig &config() const { return cfg_; }

    // ----- (a) optimizer column statistics -----

    struct ColumnStats
    {
        ColumnStats(uint32_t width, uint32_t depth, uint32_t k,
                    uint64_t seed)
            : cms(width, depth, seed), kll(k, seed)
        {
        }
        CountMinSketch cms;
        KllSketch kll;
        uint64_t rows = 0;   ///< live rows folded in
        bool hasCms = false; ///< false for Double columns (KLL only)
    };

    /** Stats for `table.column`, or null if not built yet. */
    const ColumnStats *findColumn(const std::string &table,
                                  const std::string &column) const;

    /** Create (empty) stats for `table.column`; the builder fills
     * them. Returns the existing entry if already present. */
    ColumnStats &addColumn(const std::string &table,
                           const std::string &column);

    /** Column sketch seeded per (table, column) name — partial
     * builders must use the same seed so merges are well-formed. */
    uint64_t columnSeed(const std::string &table,
                        const std::string &column) const;

    // ----- (b) hot-key detection -----

    void noteRowAccess(uint64_t tableId, uint64_t row);
    bool isHotRow(uint64_t tableId, uint64_t row) const;
    void notePageAccess(uint64_t page);

    uint64_t rowAccesses() const { return rowAccesses_; }
    uint64_t pageAccesses() const { return pageAccesses_; }
    /** Row accesses whose key was already hot when tracked. */
    uint64_t hotHits() const { return hotHits_; }

    /** The per-table row tracker (fleet audits, tests). */
    const PartitionedCms *rowTracker(uint64_t tableId) const;

    // ----- (c) per-tenant resource-usage quantiles -----

    void noteLatency(int tenant, double ms);
    double latencyQuantile(int tenant, double q) const;
    uint64_t latencyCount(int tenant) const;
    const KllSketch &latencySketch(int tenant) const
    {
        return lat_[tenant];
    }

    // ----- grant-pressure resize ladder -----

    /**
     * Engine grant-capacity tap (autopilot + resilience actuation
     * both report through here). First call fixes the baseline. When
     * the capacity drops to kShrinkGrantFrac of it, every sketch
     * sheds one rung (CMS width and KLL budget halve, not below
     * kMinCmsWidth / kMinKllK); each further drop by the same
     * fraction sheds another. The accuracy cost is quantified:
     * epsilon doubles per rung and the KLL rank-error budget absorbs
     * the recompactions.
     */
    void noteGrantCapacity(uint64_t bytes);

    int resizes() const { return resizes_; }

    struct ResizeStep
    {
        uint64_t capacityBytes = 0; ///< grant capacity that triggered
        uint32_t hotWidth = 0;      ///< tracker width after the fold
        double eps = 0;             ///< CMS epsilon after the fold
        uint64_t bytes = 0;         ///< total sketch bytes after
    };
    const std::vector<ResizeStep> &resizeLog() const
    {
        return resizeLog_;
    }

    // ----- summaries -----

    size_t bytes() const;
    double occupancy() const; ///< hot-row tracker counter occupancy
    uint64_t digest() const;
    SketchResult result() const;

    /** Register `sketch.*` gauges (side-effect-free reads). */
    void registerStats(StatsRegistry &reg, const std::string &prefix);

  private:
    bool shrinkAll();

    SketchConfig cfg_;
    std::map<std::string, std::unique_ptr<ColumnStats>> columns_;
    std::map<uint64_t, std::unique_ptr<PartitionedCms>> rowHeat_;
    CountMinSketch pageHeat_;
    KllSketch lat_[kTenants];
    uint64_t rowAccesses_ = 0;
    uint64_t pageAccesses_ = 0;
    uint64_t hotHits_ = 0;
    uint64_t grantBaseline_ = 0;
    double nextShrinkBelow_ = 0;
    int resizes_ = 0;
    std::vector<ResizeStep> resizeLog_;
};

} // namespace sketch
} // namespace dbsens

#endif // DBSENS_STATS_SKETCH_HUB_H
