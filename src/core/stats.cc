#include "core/stats.h"

#include "core/logging.h"

namespace dbsens {

StatCounter &
StatsRegistry::counter(const std::string &name, const std::string &desc)
{
    auto it = stats_.find(name);
    if (it != stats_.end()) {
        if (it->second.kind != Kind::Counter)
            panic("stat '" + name + "' already registered as non-counter");
        return *it->second.counter;
    }
    Stat s;
    s.kind = Kind::Counter;
    s.desc = desc;
    s.counter = std::make_unique<StatCounter>();
    auto [pos, _] = stats_.emplace(name, std::move(s));
    return *pos->second.counter;
}

void
StatsRegistry::gauge(const std::string &name, std::function<double()> fn,
                     const std::string &desc)
{
    auto it = stats_.find(name);
    if (it != stats_.end()) {
        if (it->second.kind != Kind::Gauge)
            panic("stat '" + name + "' already registered as non-gauge");
        it->second.gaugeFn = std::move(fn);
        if (!desc.empty())
            it->second.desc = desc;
        return;
    }
    Stat s;
    s.kind = Kind::Gauge;
    s.desc = desc;
    s.gaugeFn = std::move(fn);
    stats_.emplace(name, std::move(s));
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
    return it->second.kind == Kind::Counter ? it->second.counter->value()
                                            : it->second.gaugeFn();
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

StatsRegistry &
globalStats()
{
    static StatsRegistry reg;
    return reg;
}

} // namespace dbsens
