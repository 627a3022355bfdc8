/**
 * @file
 * Hierarchical stats registry (gem5-style). Every simulated component
 * registers named statistics under a dotted path — e.g.
 * `bufferpool.misses`, `ssd.read_bytes`, `sched.core3.busy_ns` — so
 * harnesses and benches read one namespace instead of poking
 * component-private accessors.
 *
 * Every stat is a gauge: a callback over an existing component
 * field. Registration is free on the hot path — the value is only
 * read when sampled, which keeps simulated results bit-identical.
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
#include <string>
#include <vector>

namespace dbsens {

/** Hierarchical registry of named stats. */
class StatsRegistry
{
  public:
    /** Register a callback gauge. Re-registering replaces the
     * callback (a fresh SimRun re-binds its components). */
    void gauge(const std::string &name, std::function<double()> fn,
               const std::string &desc = "");

    bool has(const std::string &name) const;

    /** Current value of a gauge; panics with the list of registered
     * names when `name` is unknown. */
    double value(const std::string &name) const;

    /** All registered names, sorted (deterministic iteration). */
    std::vector<std::string> names() const;

  private:
    struct Stat
    {
        std::string desc;
        std::function<double()> gaugeFn;
    };

    [[noreturn]] void unknownStat(const std::string &name) const;

    // Sorted by name: deterministic iteration.
    std::map<std::string, Stat> stats_;
};

} // namespace dbsens

#endif // DBSENS_CORE_STATS_H
