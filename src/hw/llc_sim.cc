#include "hw/llc_sim.h"

#include <algorithm>

#include "core/logging.h"

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
