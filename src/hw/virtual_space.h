/**
 * @file
 * Full-scale virtual address space for cache modelling.
 *
 * Generated data is 1/K the paper's size, but the LLC is not scaled
 * (2..40 MB against 50..150 GB in the paper). Cache-model addresses
 * are therefore formed in a virtual address space sized as if the
 * data were full scale: each data structure registers a region whose
 * size is its real byte size multiplied by K, and element addresses
 * are spread across that region. Footprints and reuse distances then
 * match the paper's, while access counts stay at generated scale.
 */

#ifndef DBSENS_HW_VIRTUAL_SPACE_H
#define DBSENS_HW_VIRTUAL_SPACE_H

#include <cstdint>

#include "core/calibration.h"
#include "hw/llc_sim.h"

namespace dbsens {

/** A full-scale region of the cache-model address space. */
struct VirtualRegion
{
    uint64_t base = 0;
    uint64_t size = 0; // full-scale bytes

    bool valid() const { return size > 0; }

    /**
     * Address of element `index` out of `count` equally spaced
     * elements in the region (e.g. row i of a table with n rows).
     */
    uint64_t
    elementAddr(uint64_t index, uint64_t count) const
    {
        if (count == 0)
            return base;
        // Spread elements over the region; stride in whole bytes.
        const uint64_t stride = size / count ? size / count : 1;
        return base + (index % count) * stride;
    }

    /** Address at a fraction [0,1) into the region. */
    uint64_t
    fractionAddr(double f) const
    {
        if (f < 0)
            f = 0;
        if (f >= 1.0)
            f = 0.999999999;
        return base + uint64_t(f * double(size));
    }
};

/**
 * Bump allocator for virtual regions. One instance per database; 4 KB
 * alignment keeps regions line-disjoint.
 */
class VirtualSpace
{
  public:
    /**
     * Allocate a region for a structure of `real_bytes` generated
     * bytes; the region is real_bytes * K full-scale bytes.
     */
    VirtualRegion
    allocateScaled(uint64_t real_bytes)
    {
        return allocateFullScale(real_bytes * calib::kScaleK);
    }

    /** Allocate a region already sized in full-scale bytes; every
     * address in it must stay below LlcSim::kAddrLimit. */
    VirtualRegion
    allocateFullScale(uint64_t full_bytes)
    {
        if (full_bytes == 0)
            full_bytes = 1;
        const uint64_t aligned = (full_bytes + 4095) & ~uint64_t{4095};
        VirtualRegion r{next_, aligned};
        next_ += aligned;
        LlcSim::checkAddr(next_ - 1);
        return r;
    }

    uint64_t bytesAllocated() const { return next_; }

    /**
     * Session working memory shared by all queries of this database:
     * batch buffers and operator scratch are recycled across queries,
     * so their cache lines are not compulsory-missed per query. Sized
     * once on first use.
     */
    const VirtualRegion &
    sharedWorkBuf(uint64_t bytes)
    {
        if (!workBuf_.valid())
            workBuf_ = allocateFullScale(bytes);
        return workBuf_;
    }

  private:
    uint64_t next_ = 1 << 20; // keep address 0 unused
    VirtualRegion workBuf_;
};

} // namespace dbsens

#endif // DBSENS_HW_VIRTUAL_SPACE_H
