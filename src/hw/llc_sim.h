/**
 * @file
 * Last-level-cache simulator with Intel CAT-style way allocation.
 *
 * Geometry copies the paper's testbed: per socket, 20 MB, 20 ways,
 * 64 B lines => 16384 sets. A Class-of-Service way mask restricts
 * which ways a fill may allocate into or evict from; accesses that hit
 * in ways *outside* the mask still count as hits, exactly matching CAT
 * semantics (paper Section 5). The paper assigns all cores one COS and
 * splits the allocation equally between sockets, so the simulator
 * exposes a single mask applied to both sockets.
 *
 * A socket keeps its rows' 32-bit tags in one array and their 64-bit
 * ages in another (7.5 MB for both sockets), so a hit reads one row's
 * 80 B of tags and writes one age. Rows are emptied lazily: each
 * (socket, set) row has a bit that says whether it was emptied since
 * construction or the last reset(), and reset() just clears the bits.
 * A run thus pays only for the rows it touches, not for a full fill.
 */

#ifndef DBSENS_HW_LLC_SIM_H
#define DBSENS_HW_LLC_SIM_H

#include <bitset>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>

#include "core/calibration.h"
#include "core/types.h"

namespace dbsens {

/** Per-socket set-associative LLC with CAT way masks and LRU. */
class LlcSim
{
  public:
    LlcSim();

    /** Classes of service (CAT COS) with independent way masks. */
    static constexpr int kMaxCos = 2;

    /**
     * Set the way mask of every COS at once, applied on both sockets.
     * Bit i allows way i. The paper grows allocations as supersets:
     * 0x1 for 1 way/socket (2 MB total), 0x3 for 2 ways (4 MB), ...
     * This is the single-COS mode every sweep uses.
     */
    void setWayMask(uint32_t mask);

    /**
     * Multi-tenant partitioning: set one COS's way mask (both
     * sockets) without touching the others. The autopilot assigns
     * disjoint masks per tenant mid-run; lines already resident in
     * ways a COS lost stay readable (CAT restricts allocation, not
     * lookup) and age out naturally.
     */
    void setCosWayMask(int cos, uint32_t mask);

    /**
     * Convenience: set a total allocation in MB across both sockets
     * (even values 2..40); allocates mb/2 ways per socket as a
     * contiguous low mask (all COS).
     */
    void setTotalAllocationMb(int mb);

    /** Ways per socket that setTotalAllocationMb(mb) allows. */
    static int waysForAllocationMb(int mb);

    /** Number of ways allowed per socket for one COS. */
    int allowedWays(int cos = 0) const { return allowedWays_[cos]; }

    /**
     * Simulate one line access on a socket under a COS. Returns true
     * on hit. Misses allocate into the LRU way among the COS's
     * allowed ways.
     *
     * The live feed's hottest function: it starts on a host cache
     * line, so its loops sit at the same offsets whatever code the
     * linker places before it (unpinned, a change elsewhere in the
     * library moved htap's wall time by 3%).
     */
    __attribute__((aligned(64))) bool access(int socket, uint64_t addr,
                                             int cos = 0);

    /** Flush all contents (the paper reboots between sweeps). */
    void reset();

    uint64_t accesses() const { return accesses_; }
    uint64_t misses() const { return misses_; }

    /** Reset counters but keep cache contents (end of warmup). */
    void resetCounters() { accesses_ = 0; misses_ = 0; }

    static constexpr int kWays = calib::kLlcWays;
    static constexpr int kSets =
        int(calib::kLlcBytesPerSocket / (kCacheLineSize * kWays));

    /**
     * Scan-resistant insertion: newly filled lines enter with an aged
     * timestamp (RRIP-style), so streaming lines that are never
     * re-referenced become the next victims instead of flushing the
     * re-used working set. Modern server LLC replacement (including
     * the paper's Broadwell) behaves this way.
     */
    static constexpr uint64_t kInsertAge = 1u << 20;

    /** A line's tag, addr >> 20. */
    using Tag = uint32_t;
    /** Tag of an empty way; no address below kAddrLimit has it. */
    static constexpr Tag kEmptyTag = ~Tag{0};
    /** Age of an empty way: the most-preferred victim. Ages are
     * signed so aged insertion stays ordered from clock zero. */
    static constexpr int64_t kEmptyAge = INT64_MIN;
    /**
     * Cache-model addresses must lie below 2^51, so that a tag fits
     * in 31 bits and never equals kEmptyTag. access() and
     * AccessTrace::add refuse larger ones; VirtualSpace never hands
     * them out.
     */
    static constexpr uint64_t kAddrLimit = 1ull << 51;
    static_assert((kAddrLimit - 1) / (kCacheLineSize * uint64_t(kSets)) <
                  kEmptyTag);

    /** fatal() unless `addr` is below kAddrLimit. */
    static void
    checkAddr(uint64_t addr)
    {
        if (addr >= kAddrLimit) [[unlikely]]
            refuseAddr(addr);
    }

    /** Tags accessRow compares at once; a row's tag array may be read
     * up to kTagLanes - 1 tags past its end. */
    static constexpr int kTagLanes = 4;

    /**
     * The replacement policy of one (socket, set) row of `nways` ways
     * (at most 32): look `tag` up in tags[0..nways) and stamp a hit's
     * age with `clock`; on a miss, fill the oldest way `mask` allows
     * with an aged stamp. The strict `<` keeps the lowest-numbered way
     * on ties. Returns true on a hit.
     *
     * The lookup compares kTagLanes tags per step without branches, so
     * it reads tags up to the next multiple of kTagLanes: that padding
     * must be readable, and any tag it holds is masked off.
     */
    static bool
    accessRow(Tag *tags, int64_t *ages, int nways, uint32_t mask, Tag tag,
              int64_t clock)
    {
        typedef Tag Lanes __attribute__((vector_size(sizeof(Tag) * kTagLanes)));
        const Lanes want = {tag, tag, tag, tag};
        Lanes bits = {};
        for (int w = 0; w < nways; w += kTagLanes) {
            Lanes v;
            std::memcpy(&v, tags + w, sizeof v);
            bits |= Lanes(v == want) & (Lanes{1, 2, 4, 8} << w);
        }
        const auto row = uint32_t((uint64_t{1} << nways) - 1);
        // Tags are unique within a row, so at most one way matches.
        const uint32_t hits = (bits[0] | bits[1] | bits[2] | bits[3]) & row;
        if (hits) {
            ages[__builtin_ctz(hits)] = clock;
            return true;
        }
        // Selects rather than branches: which way is older is
        // unpredictable, and a mispredict stalls the next access too.
        int victim = -1;
        int64_t oldest = INT64_MAX;
        for (uint32_t m = mask & row; m; m &= m - 1) {
            const int w = __builtin_ctz(m);
            const int64_t age = ages[w];
            const bool older = age < oldest;
            oldest = older ? age : oldest;
            victim = older ? w : victim;
        }
        tags[victim] = tag;
        ages[victim] = clock - int64_t(kInsertAge);
        return false;
    }

    /**
     * Hint the host to fetch the row `addr` maps to on `socket` (both
     * host lines of its 80 B of tags and the first line of its ages),
     * so a later access() finds it in the host cache. Changes no state.
     */
    void
    prefetch(int socket, uint64_t addr) const
    {
        const SocketCache &cache = sockets_[socket & 1];
        const size_t first = rowOf(addr) * kWays;
        __builtin_prefetch(&cache.tags[first]);
        __builtin_prefetch(&cache.tags[first + kWays - 1]);
        __builtin_prefetch(&cache.ages[first]);
    }

  private:
    [[noreturn]] static void refuseAddr(uint64_t addr);

    /** Frees raw storage whose rows are constructed on first touch. */
    struct RawDelete
    {
        void operator()(void *p) const { ::operator delete(p); }
    };

    struct SocketCache
    {
        /** One raw block: kSets * kWays tags, then as many ages, both
         * row-major by set. A row is valid only when its `live` bit is
         * set. */
        std::unique_ptr<std::byte[], RawDelete> block;
        Tag *tags = nullptr;
        int64_t *ages = nullptr;
        std::bitset<kSets> live;
    };

    static size_t
    rowOf(uint64_t addr)
    {
        return size_t(addr / kCacheLineSize % kSets);
    }

    SocketCache sockets_[calib::kSockets];
    uint32_t cosMask_[kMaxCos] = {(1u << kWays) - 1, (1u << kWays) - 1};
    int allowedWays_[kMaxCos] = {kWays, kWays};
    uint64_t clock_ = 0;
    uint64_t accesses_ = 0;
    uint64_t misses_ = 0;
};

} // namespace dbsens

#endif // DBSENS_HW_LLC_SIM_H
