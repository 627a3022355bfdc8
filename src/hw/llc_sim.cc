#include "hw/llc_sim.h"

#include <algorithm>
#include <vector>

#include "core/logging.h"
#include "core/worker_pool.h"
#include "hw/cache_feed.h"

namespace dbsens {

LlcSim::LlcSim()
{
    // One block per socket for tags and ages: freeing a block lifts
    // malloc's mmap threshold to its size, so with a separate, smaller
    // tag block the next LlcSim's tags would join the heap instead of
    // being mapped afresh. Tags and ages are trivial types: access()
    // assigns a row's ways before it first reads them.
    constexpr size_t kLines = size_t(kSets) * kWays;
    for (auto &s : sockets_) {
        s.block.reset(static_cast<std::byte *>(
            ::operator new(kLines * (sizeof(Tag) + sizeof(int64_t)))));
        s.tags = reinterpret_cast<Tag *>(s.block.get());
        s.ages = reinterpret_cast<int64_t *>(s.block.get() +
                                             kLines * sizeof(Tag));
    }
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

void
LlcSim::refuseAddr(uint64_t addr)
{
    fatal("cache-model address " + std::to_string(addr) +
          " is not below 2^51");
}

bool
LlcSim::access(int socket, uint64_t addr, int cos)
{
    checkAddr(addr);
    ++accesses_;
    ++clock_;
    auto &cache = sockets_[socket & 1];
    const size_t set = rowOf(addr);
    Tag *tags = &cache.tags[set * kWays];
    int64_t *ages = &cache.ages[set * kWays];
    if (!cache.live[set]) {
        // First touch of this row since construction or reset().
        std::fill_n(tags, kWays, kEmptyTag);
        std::fill_n(ages, kWays, kEmptyAge);
        cache.live[set] = true;
    }
    // Hit check across *all* ways: CAT restricts allocation, not
    // lookup. A miss fills into the oldest way allowed for this COS.
    if (accessRow(tags, ages, kWays, cosMask_[cos & (kMaxCos - 1)],
                  Tag(addr / kCacheLineSize / kSets), int64_t(clock_)))
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
    //    0..ways-1; the rest keep the empty tag, which no real tag
    //    matches (AccessTrace::add keeps addresses below kAddrLimit),
    //    so scanning `ways` ways suffices;
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
    // range, `ways` ways each: together at most one LlcSim's state, in
    // pieces no larger than LlcSim's blocks, so freeing them raises
    // malloc's mmap threshold no higher than a serial replay through
    // LlcSim did (a larger piece makes later allocations stay resident
    // in the heap). accessRow reads tags in groups of kTagLanes, so
    // each tag array carries kTagLanes - 1 padding tags past its last
    // row; they stay empty.
    const size_t shards = pool ? 2 * size_t(pool->workers()) : 1;
    auto firstSet = [shards](size_t s) { return kSets * s / shards; };
    std::vector<std::vector<LlcSim::Tag>> tags(shards * kSockets);
    std::vector<std::vector<int64_t>> ages(shards * kSockets);
    for (size_t s = 0; s < shards; ++s)
        for (size_t k = 0; k < kSockets; ++k) {
            const size_t lines = (firstSet(s + 1) - firstSet(s)) * size_t(ways);
            tags[s * kSockets + k].assign(lines + LlcSim::kTagLanes - 1,
                                          LlcSim::kEmptyTag);
            ages[s * kSockets + k].assign(lines, LlcSim::kEmptyAge);
        }
    std::vector<uint64_t> misses(shards, 0);
    auto replayShard = [&](size_t s) {
        const size_t lo = firstSet(s);
        const size_t span = firstSet(s + 1) - lo;
        LlcSim::Tag *tagBase[kSockets];
        int64_t *ageBase[kSockets];
        for (size_t k = 0; k < kSockets; ++k) {
            tagBase[k] = tags[s * kSockets + k].data();
            ageBase[k] = ages[s * kSockets + k].data();
        }
        uint64_t m = 0;
        for (size_t i = 0; i < n; ++i) {
            const uint64_t addr = addrs_[i];
            const uint64_t line = addr / kCacheLineSize;
            const auto set = size_t(line % kSets);
            if (set - lo >= span)
                continue;
            const int k = socketOfAddr(addr);
            const size_t first = (set - lo) * size_t(ways);
            if (!LlcSim::accessRow(tagBase[k] + first, ageBase[k] + first,
                                   ways, mask, LlcSim::Tag(line / kSets),
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
