/**
 * @file
 * Buffer pool with object granularity.
 *
 * Resident units ("objects") are row-store 8 KB pages, B-tree node
 * pages, or column-store segments (variable size). The pool tracks
 * residency, LRU eviction, and dirty write-back against the simulated
 * SSD. Two access modes:
 *
 *  - fix(): coroutine path used inside the discrete-event simulation
 *    (OLTP). A miss issues an SSD read and charges PAGEIOLATCH wait to
 *    every session that needs the page while the read is in flight;
 *    eviction of dirty objects issues SSD writes.
 *
 *  - touch(): synchronous path used while profiling analytical queries
 *    outside the DES. It evolves residency identically and returns
 *    the read/write bytes the access generated so the profile can
 *    replay the I/O later.
 */

#ifndef DBSENS_STORAGE_BUFFER_POOL_H
#define DBSENS_STORAGE_BUFFER_POOL_H

#include <coroutine>
#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <vector>

#include "core/types.h"
#include "sim/event_loop.h"
#include "sim/ssd_model.h"
#include "sim/task.h"
#include "txn/wait_stats.h"

namespace dbsens {

class FaultInjector;
class StatsRegistry;

/** Buffer pool over variably-sized storage objects. */
class BufferPool
{
  public:
    /** Pool over `loop`/`ssd` with `capacity_bytes` of memory. */
    BufferPool(EventLoop &loop, SsdModel &ssd, uint64_t capacity_bytes);

    /** Enable fault injection (null = no faults, bit-identical off). */
    void setFaultInjector(FaultInjector *f) { faults_ = f; }

    /**
     * Page checksum covering identity and version (a stand-in for a
     * CRC over page contents: every logical modification bumps the
     * version, so a stale or partial on-disk image yields a mismatch).
     */
    static uint64_t pageChecksum(PageId id, uint64_t bytes,
                                 uint64_t version);

    /** Stored checksum / version of an object (testing). */
    uint64_t objectChecksum(PageId id) const;
    uint64_t objectVersion(PageId id) const;

    /** Verify an object's stored checksum against its identity. */
    bool verifyObject(PageId id) const;

    /** Every registered object, in registration order (audit sweep). */
    const std::vector<PageId> &registeredObjects() const
    {
        return registrationOrder_;
    }

    /** Torn pages detected (checksum mismatches on load). */
    uint64_t tornPagesDetected() const { return tornDetected_; }

    /** Declare a storage object (page or segment). Starts on disk. */
    void registerObject(PageId id, uint64_t bytes);

    /** Change an object's size (e.g. a growing delta segment). */
    void resizeObject(PageId id, uint64_t bytes);

    /** True if the object is currently resident. */
    bool isResident(PageId id) const;

    /**
     * DES path: ensure the object is resident, waiting on SSD reads.
     * Charges PageIoLatch wait to `stats` when the access had to wait
     * for I/O.
     */
    Task<void> fix(PageId id, WaitStats *stats);

    /** Result of a functional-mode access. */
    struct TouchResult
    {
        uint64_t readBytes = 0;  ///< bytes read from SSD (0 on hit)
        uint64_t writeBytes = 0; ///< dirty write-back bytes triggered
        bool hit = false;
    };

    /** Functional path: evolve residency; report generated I/O. */
    TouchResult touch(PageId id);

    /** Mark an object dirty (written by a transaction). */
    void markDirty(PageId id);

    /**
     * Make objects resident in registration order until the pool is
     * full (used to start runs warm, like the paper's loaded DB).
     */
    void prewarm();

    /**
     * Write back up to `max_bytes` of dirty objects (checkpoint /
     * lazy-writer behaviour). Returns bytes queued for write.
     */
    uint64_t flushDirty(uint64_t max_bytes);

    uint64_t capacityBytes() const { return capacity_; }
    uint64_t usedBytes() const { return used_; }
    uint64_t hits() const { return hits_; }
    uint64_t missCount() const { return misses_; }
    uint64_t diskReadBytes() const { return diskReadBytes_; }
    uint64_t writebackBytes() const { return writebackBytes_; }
    uint64_t dirtyBytes() const { return dirtyBytes_; }

    void
    resetCounters()
    {
        hits_ = 0;
        misses_ = 0;
        diskReadBytes_ = 0;
        writebackBytes_ = 0;
    }

    /** Register gauges under `prefix` (e.g. "bufferpool"). */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const;

  private:
    struct Object
    {
        uint64_t bytes = 0;
        bool resident = false;
        bool dirty = false;
        bool loading = false;
        /** Logical modification count (bumped by markDirty). */
        uint64_t version = 0;
        /** Checksum of the last consistent image. */
        uint64_t checksum = 0;
        std::list<PageId>::iterator lruPos;
        std::vector<std::coroutine_handle<>> loadWaiters;
    };

    Object &obj(PageId id);

    /** Move to MRU position. */
    void touchLru(PageId id, Object &o);

    /** Evict LRU objects until `needed` bytes fit. Returns writeback
     * bytes generated by evicting dirty objects. */
    uint64_t makeRoom(uint64_t needed);

    void admit(PageId id, Object &o);

    EventLoop &loop_;
    SsdModel &ssd_;
    FaultInjector *faults_ = nullptr;
    uint64_t capacity_;
    uint64_t used_ = 0;
    uint64_t dirtyBytes_ = 0;
    std::unordered_map<PageId, Object> objects_;
    std::vector<PageId> registrationOrder_;
    std::list<PageId> lru_; // front = LRU, back = MRU
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t diskReadBytes_ = 0;
    uint64_t writebackBytes_ = 0;
    uint64_t tornDetected_ = 0;
};

} // namespace dbsens

#endif // DBSENS_STORAGE_BUFFER_POOL_H
