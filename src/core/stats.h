/**
 * @file
 * Hierarchical stats registry (gem5-style). Every simulated component
 * registers named statistics under a dotted path — e.g.
 * `bufferpool.misses`, `ssd.read_bytes`, `sched.core3.busy_ns` — so
 * harnesses and benches read one namespace instead of poking
 * component-private accessors.
 *
 * Two stat kinds:
 *  - Counter: an owned monotonically-increasing value the component
 *    bumps directly (used where no private field exists, e.g. the
 *    logging warn count).
 *  - Gauge: a callback over an existing component field. Registration
 *    is free on the hot path — the value is only read when sampled,
 *    which keeps simulated results bit-identical.
 *
 * The registry is passive: it never schedules events and reading it
 * has no simulation side effects. Readers look stats up by name:
 * `MetricSampler` (sim/sampler.h), the obs series hub and the
 * autopilot sample them during a run; benches read final values.
 */

#ifndef DBSENS_CORE_STATS_H
#define DBSENS_CORE_STATS_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace dbsens {

/** Owned cumulative counter. */
class StatCounter
{
  public:
    void add(double v) { value_ += v; }
    void inc() { value_ += 1; }
    double value() const { return value_; }

  private:
    double value_ = 0;
};

/** Hierarchical registry of named stats. */
class StatsRegistry
{
  public:
    /**
     * Register (or fetch) an owned counter. Re-registering the same
     * name returns the existing counter; registering a name already
     * used by another stat kind panics.
     */
    StatCounter &counter(const std::string &name,
                         const std::string &desc = "");

    /** Register a callback gauge. Re-registering replaces the
     * callback (a fresh SimRun re-binds its components). */
    void gauge(const std::string &name, std::function<double()> fn,
               const std::string &desc = "");

    bool has(const std::string &name) const;

    /** Current value of a counter or gauge; panics with the list of
     * registered names when `name` is unknown. */
    double value(const std::string &name) const;

    /** All registered names, sorted (deterministic iteration). */
    std::vector<std::string> names() const;

  private:
    enum class Kind { Counter, Gauge };

    struct Stat
    {
        Kind kind;
        std::string desc;
        std::unique_ptr<StatCounter> counter;
        std::function<double()> gaugeFn;
    };

    [[noreturn]] void unknownStat(const std::string &name) const;

    // Sorted by name: deterministic iteration.
    std::map<std::string, Stat> stats_;
};

/**
 * Process-wide registry for stats that exist outside any SimRun
 * (the logging warn count). SimRun owns its own registry for
 * per-experiment component stats.
 */
StatsRegistry &globalStats();

} // namespace dbsens

#endif // DBSENS_CORE_STATS_H
