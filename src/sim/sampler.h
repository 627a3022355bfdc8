/**
 * @file
 * Interval metric sampler: reads registered cumulative counters at a
 * fixed simulated interval and records the per-interval deltas,
 * mirroring the paper's iostat / PCM 1-second samples.
 *
 * Two sampling regimes are used (see core/calibration.h):
 *  - OLTP runs: per-transaction work is scale-free, so the workload
 *    behaves like the paper's in real simulated time. Interval =
 *    1 simulated second, deltas unscaled.
 *  - OLAP runs: data is scaled by 1/K, so one paper second maps to
 *    1/K simulated seconds. Interval = kSampleIntervalNs, and byte
 *    counters are registered with scale = kScaleK so the recorded
 *    rates are in paper bytes per paper second.
 */

#ifndef DBSENS_SIM_SAMPLER_H
#define DBSENS_SIM_SAMPLER_H

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/calibration.h"
#include "core/histogram.h"
#include "core/logging.h"
#include "core/stats.h"
#include "sim/event_loop.h"

namespace dbsens {

/**
 * Samples cumulative counters at fixed simulated intervals and keeps
 * the resulting per-interval rates as distributions (for averages and
 * CDFs, Figures 3 and 4).
 */
class MetricSampler
{
  public:
    MetricSampler(EventLoop &loop, SimDuration interval)
        : loop_(loop), interval_(interval)
    {
    }

    /**
     * Register a cumulative counter. Each tick records
     * (delta counter) * scale into the named series.
     */
    void
    addCounter(const std::string &name, std::function<double()> fn,
               double scale = 1.0)
    {
        counters_.push_back({name, std::move(fn), 0.0, scale});
    }

    /**
     * Register a stats-registry entry as a sampled counter: the
     * sampler is a view over the registry, reading `stat` each tick
     * and recording the delta * scale under `series_name` (defaults
     * to the stat's own name). The registry must outlive sampling.
     */
    void
    addStat(const StatsRegistry &reg, const std::string &stat,
            double scale = 1.0, const std::string &series_name = "")
    {
        if (!reg.has(stat))
            reg.value(stat); // panics with the registered-name list
        addCounter(series_name.empty() ? stat : series_name,
                   [&reg, stat] { return reg.value(stat); }, scale);
    }

    /** Begin sampling (schedules the first tick one interval out). */
    void
    start()
    {
        for (auto &c : counters_)
            c.last = c.read();
        running_ = true;
        scheduleTick();
    }

    /** Stop sampling after the current interval. */
    void stop() { running_ = false; }

    /** Sampled rate distribution for a counter. */
    const Distribution &
    series(const std::string &name) const
    {
        auto it = series_.find(name);
        if (it == series_.end()) {
            std::string known;
            for (const auto &[n, _] : series_) {
                if (!known.empty())
                    known += ", ";
                known += n;
            }
            panic("MetricSampler::series: no series '" + name +
                  "'; registered: [" + known + "]");
        }
        return it->second;
    }

    bool
    hasSeries(const std::string &name) const
    {
        return series_.count(name) != 0;
    }

  private:
    struct Counter
    {
        std::string name;
        std::function<double()> read;
        double last;
        double scale;
    };

    void
    scheduleTick()
    {
        loop_.after(interval_, [this] { tick(); });
    }

    void
    tick()
    {
        if (!running_)
            return;
        for (auto &c : counters_) {
            const double v = c.read();
            series_[c.name].add((v - c.last) * c.scale);
            c.last = v;
        }
        scheduleTick();
    }

    EventLoop &loop_;
    SimDuration interval_;
    bool running_ = false;
    std::vector<Counter> counters_;
    std::map<std::string, Distribution> series_;
};

} // namespace dbsens

#endif // DBSENS_SIM_SAMPLER_H
