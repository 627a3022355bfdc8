#include "cluster/net.h"

namespace dbsens {
namespace cluster {

namespace {

/** Base one-way delay plus a uniform jitter draw per message. */
constexpr SimDuration kDelayBase = microseconds(60);
constexpr SimDuration kDelayJitter = microseconds(60);

} // namespace

void
NetModel::deliverAt(SimTime t, int to, std::function<void()> fn)
{
    // The delivery event is scheduled in whatever domain the sender
    // ran in, which would die with the sender; hop through the root
    // domain so in-flight messages outlive a sender crash, then scope
    // into the receiver's *current* incarnation at delivery time.
    DomainScope root(loop_, 0);
    loop_.at(t, [this, to, fn = std::move(fn)] {
        if (!peers_.up || !peers_.up(to)) {
            ++deadDest_;
            return;
        }
        ++delivered_;
        DomainScope scope(loop_, peers_.domain(to));
        fn();
    });
}

void
NetModel::send(int from, int to, std::function<void()> fn)
{
    ++sent_;
    if (from == to) {
        deliverAt(loop_.now(), to, std::move(fn));
        return;
    }
    if (cfg_.lossRate > 0 && rng_.chance(cfg_.lossRate)) {
        ++dropped_;
        return;
    }
    const SimDuration jitter =
        SimDuration(rng_.uniform(uint64_t(kDelayJitter)));
    const SimTime t = loop_.now() + kDelayBase + jitter;
    if (cfg_.dupRate > 0 && rng_.chance(cfg_.dupRate)) {
        ++duplicated_;
        const SimDuration jitter2 =
            SimDuration(rng_.uniform(uint64_t(kDelayJitter)));
        deliverAt(t + kDelayBase + jitter2, to, fn);
    }
    deliverAt(t, to, std::move(fn));
}

} // namespace cluster
} // namespace dbsens
