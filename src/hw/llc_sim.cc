#include "hw/llc_sim.h"

#include <algorithm>
#include <vector>

#include "core/logging.h"
#include "core/worker_pool.h"
#include "hw/cache_feed.h"

namespace dbsens {

LlcSim::LlcSim()
{
    // Way is an implicit-lifetime aggregate: access() assigns a row's
    // ways before it first reads them.
    for (auto &s : sockets_)
        s.ways.reset(static_cast<Way *>(
            ::operator new(sizeof(Way) * size_t(kSets) * kWays)));
}

void
LlcSim::setWayMask(uint32_t mask)
{
    for (int cos = 0; cos < kMaxCos; ++cos)
        setCosWayMask(cos, mask);
}

void
LlcSim::setCosWayMask(int cos, uint32_t mask)
{
    if (cos < 0 || cos >= kMaxCos)
        fatal("COS id must be in [0, " + std::to_string(kMaxCos) +
              "), got " + std::to_string(cos));
    mask &= (1u << kWays) - 1;
    if (mask == 0)
        fatal("CAT way mask must allow at least one way");
    cosMask_[cos] = mask;
    allowedWays_[cos] = __builtin_popcount(mask);
}

int
LlcSim::waysForAllocationMb(int mb)
{
    const int ways_per_socket = mb / 2; // 1 MB per way per socket
    if (ways_per_socket < 1 || ways_per_socket > kWays)
        fatal("LLC allocation must be 2..40 MB in steps of 2, got " +
              std::to_string(mb));
    return ways_per_socket;
}

void
LlcSim::setTotalAllocationMb(int mb)
{
    setWayMask((1u << waysForAllocationMb(mb)) - 1);
}

bool
LlcSim::access(int socket, uint64_t addr, int cos)
{
    ++accesses_;
    ++clock_;
    auto &cache = sockets_[socket & 1];
    const uint64_t line = addr / kCacheLineSize;
    const auto set = size_t(line % kSets);
    Way *row = &cache.ways[set * kWays];
    if (!cache.live[set]) {
        // First touch of this row since construction or reset().
        std::fill_n(row, kWays, Way{});
        cache.live[set] = true;
    }
    // Hit check across *all* ways: CAT restricts allocation, not
    // lookup. A miss fills into the oldest way allowed for this COS.
    if (accessRow(row, kWays,
                  cosMask_[cos & (kMaxCos - 1)], line / kSets,
                  int64_t(clock_)))
        return true;
    ++misses_;
    return false;
}

double
AccessTrace::replayMissRate(int llc_mb, WorkerPool *pool) const
{
    // Equal, bit for bit, to replaying the trace through a fresh LlcSim
    // set to llc_mb, for any shard or worker count (DESIGN.md, LLC):
    //  - an access reads and writes only its own (socket, set) row,
    //    and recency is compared only within a row, so disjoint set
    //    ranges replay independently on the global clock i + 1;
    //  - under a contiguous low mask a fresh row only ever fills ways
    //    0..ways-1; the rest keep the empty tag ~0, which no real tag
    //    (addr >> 20 < 2^44) matches, so scanning `ways` ways suffices;
    //  - accessRow is the same policy code LlcSim::access runs.
    const int ways = LlcSim::waysForAllocationMb(llc_mb);
    const size_t n = addrs_.size();
    if (n == 0)
        return 0.0;
    const auto warm = size_t(double(n) * 0.1);
    const uint32_t mask = (1u << ways) - 1;
    constexpr size_t kSets = LlcSim::kSets;
    constexpr size_t kSockets = calib::kSockets;

    // About two set ranges per worker, so a slow shard is not the
    // whole tail. Each shard gets private rows per socket over its set
    // range: together at most one LlcSim's state, in pieces no larger
    // than LlcSim's, so freeing them raises malloc's mmap threshold no
    // higher than a serial replay through LlcSim did (a larger piece
    // makes later allocations stay resident in the heap).
    const size_t shards = pool ? 2 * size_t(pool->workers()) : 1;
    auto firstSet = [shards](size_t s) { return kSets * s / shards; };
    std::vector<std::vector<LlcSim::Way>> rows(shards * kSockets);
    for (size_t s = 0; s < shards; ++s)
        for (size_t k = 0; k < kSockets; ++k)
            rows[s * kSockets + k].resize(
                (firstSet(s + 1) - firstSet(s)) * size_t(ways));
    std::vector<uint64_t> misses(shards, 0);
    auto replayShard = [&](size_t s) {
        const size_t lo = firstSet(s);
        const size_t span = firstSet(s + 1) - lo;
        LlcSim::Way *base[kSockets];
        for (size_t k = 0; k < kSockets; ++k)
            base[k] = rows[s * kSockets + k].data();
        uint64_t m = 0;
        for (size_t i = 0; i < n; ++i) {
            const uint64_t addr = addrs_[i];
            const uint64_t line = addr / kCacheLineSize;
            const auto set = size_t(line % kSets);
            if (set - lo >= span)
                continue;
            LlcSim::Way *row =
                base[socketOfAddr(addr)] + (set - lo) * size_t(ways);
            if (!LlcSim::accessRow(row, ways, mask, line / kSets,
                                   int64_t(i + 1)) &&
                i >= warm)
                ++m;
        }
        misses[s] = m;
    };
    if (pool)
        pool->runTasks(shards, replayShard);
    else
        replayShard(0);

    uint64_t total = 0;
    for (uint64_t m : misses)
        total += m;
    return double(total) / double(n - warm);
}

void
LlcSim::reset()
{
    for (auto &s : sockets_)
        s.live.reset();
    clock_ = 0;
    accesses_ = 0;
    misses_ = 0;
}

} // namespace dbsens
