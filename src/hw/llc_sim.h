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
 * Rows are emptied lazily: each (socket, set) row has a bit that says
 * whether it was emptied since construction or the last reset(), and
 * reset() just clears the bits. A run thus pays only for the rows it
 * touches, not for a 10.5 MB fill.
 */

#ifndef DBSENS_HW_LLC_SIM_H
#define DBSENS_HW_LLC_SIM_H

#include <bitset>
#include <cstdint>
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
     */
    bool access(int socket, uint64_t addr, int cos = 0);

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

    struct Way
    {
        uint64_t tag = ~uint64_t{0};
        /** Signed so aged insertion stays ordered from clock zero;
         * empty ways are the most-preferred victims. */
        int64_t lastUse = INT64_MIN;
    };

    /**
     * The replacement policy of one (socket, set) row: look `tag` up in
     * ways 0..nways-1 and stamp a hit with `clock`; on a miss, fill the
     * oldest way `mask` allows with an aged stamp. The strict `<` keeps
     * the lowest-numbered way on ties. Returns true on a hit.
     */
    static bool
    accessRow(Way *row, int nways, uint32_t mask, uint64_t tag,
              int64_t clock)
    {
        for (int w = 0; w < nways; ++w) {
            if (row[w].tag == tag) {
                row[w].lastUse = clock;
                return true;
            }
        }
        int victim = -1;
        int64_t oldest = INT64_MAX;
        for (int w = 0; w < nways; ++w) {
            if (!(mask & (1u << w)))
                continue;
            if (row[w].lastUse < oldest) {
                oldest = row[w].lastUse;
                victim = w;
            }
        }
        row[victim].tag = tag;
        row[victim].lastUse = clock - int64_t(kInsertAge);
        return false;
    }

  private:
    /** Frees raw storage whose rows are constructed on first touch. */
    struct RawDelete
    {
        void operator()(Way *p) const { ::operator delete(p); }
    };

    struct SocketCache
    {
        /** kSets * kWays, row-major by set; a row is valid only when
         * its `live` bit is set. */
        std::unique_ptr<Way[], RawDelete> ways;
        std::bitset<kSets> live;
    };

    SocketCache sockets_[calib::kSockets];
    uint32_t cosMask_[kMaxCos] = {(1u << kWays) - 1, (1u << kWays) - 1};
    int allowedWays_[kMaxCos] = {kWays, kWays};
    uint64_t clock_ = 0;
    uint64_t accesses_ = 0;
    uint64_t misses_ = 0;
};

} // namespace dbsens

#endif // DBSENS_HW_LLC_SIM_H
