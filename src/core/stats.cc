#include "core/stats.h"

#include "core/logging.h"

namespace dbsens {

void
StatsRegistry::gauge(const std::string &name, std::function<double()> fn,
                     const std::string &desc)
{
    auto it = stats_.find(name);
    if (it != stats_.end()) {
        it->second.gaugeFn = std::move(fn);
        if (!desc.empty())
            it->second.desc = desc;
        return;
    }
    stats_.emplace(name, Stat{desc, std::move(fn)});
}

bool
StatsRegistry::has(const std::string &name) const
{
    return stats_.count(name) != 0;
}

void
StatsRegistry::unknownStat(const std::string &name) const
{
    std::string known;
    for (const auto &[n, _] : stats_) {
        if (!known.empty())
            known += ", ";
        known += n;
    }
    panic("no stat '" + name + "'; registered: [" + known + "]");
}

double
StatsRegistry::value(const std::string &name) const
{
    auto it = stats_.find(name);
    if (it == stats_.end())
        unknownStat(name);
    return it->second.gaugeFn();
}

std::vector<std::string>
StatsRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(stats_.size());
    for (const auto &[n, _] : stats_)
        out.push_back(n);
    return out;
}

} // namespace dbsens
