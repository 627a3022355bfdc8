#include "sim/wait_stats.h"

#include "core/stats.h"

namespace dbsens {

void
WaitStats::registerStats(StatsRegistry &reg, const std::string &prefix) const
{
    for (size_t i = 0; i < size_t(WaitClass::kCount); ++i) {
        const auto c = WaitClass(i);
        const std::string base = prefix + "." + waitClassName(c) + ".";
        reg.gauge(base + "total_ns",
                  [this, i] { return double(entries_[i].totalNs); },
                  "accumulated wait time");
        reg.gauge(base + "count",
                  [this, i] { return double(entries_[i].count); },
                  "wait events");
    }
    reg.gauge(prefix + ".contention_ns",
              [this] { return double(contentionNs()); },
              "LOCK + LATCH + PAGELATCH total");
}

} // namespace dbsens
