/**
 * @file
 * Fixed-capacity time-series telemetry. A RingSeries holds at most
 * `capacity` points; on overflow it downsamples in place by merging
 * adjacent pairs (doubling the sample stride), so a series covers an
 * arbitrarily long run in bounded memory while keeping full-run
 * shape. A SeriesHub maintains tagged per-tenant/per-resource series
 * fed from the StatsRegistry every simulated sampling tick, and an
 * SloTracker watches per-tenant p99 latency ceilings and throughput
 * floors, emitting structured violation events.
 *
 * Everything here is read-only with respect to the simulation: gauge
 * reads and counter reads have no side effects, so enabling telemetry
 * cannot perturb simulated results.
 */

#ifndef DBSENS_OBS_SERIES_H
#define DBSENS_OBS_SERIES_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/histogram.h"
#include "core/sim_time.h"
#include "core/stats.h"
#include "core/types.h"

namespace dbsens {
namespace obs {

/** How merged points combine when a series downsamples. */
enum class SeriesKind : uint8_t {
    Level, ///< instantaneous gauge: pairs merge by mean
    Rate,  ///< per-tick delta: pairs merge by sum (preserves totals)
};

/** One point: the tick timestamp and the (possibly merged) value. */
struct SeriesPoint
{
    SimTime t = 0;
    double value = 0;
};

/**
 * Bounded time series with pairwise-merge downsampling. After k
 * compactions each stored point covers 2^k raw ticks; `stride()`
 * exposes the current factor.
 */
class RingSeries
{
  public:
    RingSeries(std::string name, SeriesKind kind, size_t capacity);

    void add(SimTime t, double value);

    const std::string &name() const { return name_; }
    SeriesKind kind() const { return kind_; }
    size_t capacity() const { return capacity_; }
    uint64_t stride() const { return stride_; }
    uint64_t samples() const { return samples_; }
    const std::vector<SeriesPoint> &points() const { return points_; }

    /** Summary over *raw* samples (mean of rates, not of merges). */
    const Summary &summary() const { return summary_; }

  private:
    void flushPending();
    void compact();

    std::string name_;
    SeriesKind kind_;
    size_t capacity_;
    uint64_t stride_ = 1;   ///< raw ticks per stored point
    uint64_t samples_ = 0;  ///< raw ticks observed
    std::vector<SeriesPoint> points_;
    // Partial accumulation toward the next stored point.
    SimTime pendingT_ = 0;
    double pendingSum_ = 0;
    uint64_t pendingCount_ = 0;
    Summary summary_;
};

/**
 * Registry-fed collection of RingSeries. Specs bind a registry stat
 * to a series: Rate specs store per-tick deltas of a cumulative
 * counter, Level specs store the instantaneous gauge value.
 */
class SeriesHub
{
  public:
    SeriesHub(const StatsRegistry &reg, size_t capacity);

    /** Per-tick delta of cumulative `stat`, scaled by `scale`. */
    void addRate(const std::string &series, const std::string &stat,
                 double scale = 1.0);

    /** Instantaneous value of `stat`, scaled by `scale`. */
    void addLevel(const std::string &series, const std::string &stat,
                  double scale = 1.0);

    /** Re-baseline every Rate spec (call at warmup end so the first
     * measured tick doesn't include warmup accumulation). */
    void rebase();

    /** Sample every spec at simulated time `t`. */
    void sample(SimTime t);

    const std::vector<RingSeries> &series() const { return series_; }
    const RingSeries *find(const std::string &name) const;

  private:
    struct Spec
    {
        std::string stat;
        double scale = 1.0;
        bool rate = false;
        double last = 0;
        size_t index = 0; ///< into series_
    };

    const StatsRegistry &reg_;
    size_t capacity_;
    std::vector<Spec> specs_;
    std::vector<RingSeries> series_;
};

/** Per-tenant service-level objective. Zero disables the bound. */
struct SloSpec
{
    double p99LatencyMs = 0; ///< ceiling on per-tick p99 latency
};

/** Structured SLO violation event. */
struct SloViolation
{
    int tenant = 0;
    const char *metric = ""; ///< "p99_latency_ms"
    SimTime at = 0;
    double value = 0;
    double limit = 0;
};

/**
 * Watches per-tenant latency against SloSpec bounds, one evaluation
 * per sampling tick over that tick's completions.
 */
class SloTracker
{
  public:
    void setSpec(int tenant, const SloSpec &spec);

    /** Record one completed request's latency (simulated ns). */
    void recordLatency(int tenant, double latency_ns);

    /** Evaluate the tick ending at `t` and clear tick accumulators.
     * Returns violations appended. */
    size_t evaluate(SimTime t);

    const std::vector<SloViolation> &violations() const
    {
        return violations_;
    }

  private:
    struct TenantTick
    {
        SloSpec spec;
        Distribution latencies;
    };

    TenantTick tick_[kNumTenants];
    std::vector<SloViolation> violations_;
};

} // namespace obs
} // namespace dbsens

#endif // DBSENS_OBS_SERIES_H
