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
 *
 * Objects live in a dense table indexed by PageId (the database hands
 * out dense ids from 1). Residency is an intrusive doubly-linked LRU
 * threaded through the table, so a touch is a splice. Resident dirty
 * objects are threaded on a second list whose order always equals
 * their LRU order, so flushDirty() visits only dirty objects yet
 * flushes exactly the ones, in exactly the order, a walk of the whole
 * LRU would.
 */

#ifndef DBSENS_STORAGE_BUFFER_POOL_H
#define DBSENS_STORAGE_BUFFER_POOL_H

#include <coroutine>
#include <cstdint>
#include <vector>

#include "core/types.h"
#include "sim/event_loop.h"
#include "sim/ssd_model.h"
#include "sim/task.h"
#include "sim/wait_stats.h"

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

    /**
     * Size the object table for ids below `id_end` (rounded up to a
     * whole table step) and the registration list for `count` objects,
     * in one allocation each (Database::bindPool, before registering
     * its pages).
     */
    void reserveObjects(PageId id_end, size_t count);

    /** Declare a storage object (page or segment). Starts on disk. */
    void registerObject(PageId id, uint64_t bytes);

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
    /** Null link / empty list end in the intrusive lists. */
    static constexpr uint32_t kNil = ~uint32_t{0};

    /** A session parked on an in-flight load (buffer_pool.cc). */
    class LoadWait;

    struct Links
    {
        uint32_t prev = kNil;
        uint32_t next = kNil;
    };

    struct List
    {
        uint32_t head = kNil; ///< LRU end
        uint32_t tail = kNil; ///< MRU end
    };

    struct Object
    {
        uint64_t bytes = 0;
        /** Logical modification count (bumped by markDirty). */
        uint64_t version = 0;
        /** Checksum of the last consistent image. */
        uint64_t checksum = 0;
        /** Sessions waiting on this object's load, newest first. */
        LoadWait *waiters = nullptr;
        Links lruLinks;
        Links dirtyLinks;
        bool registered = false;
        bool resident = false;
        bool dirty = false;
        bool loading = false;
    };
    static_assert(sizeof(Object) <= 56, "one table slot per page");

    Object &obj(PageId id);
    const Object *find(PageId id) const;

    void unlink(List &list, Links Object::*links, uint32_t i);
    /** Link `i` before `next` (kNil = at the tail). */
    void linkBefore(List &list, Links Object::*links, uint32_t i,
                    uint32_t next);

    /** Move to the MRU position (and to the dirty list's tail). */
    void touchLru(uint32_t i);

    /** Evict LRU objects until `needed` bytes fit. Returns writeback
     * bytes generated by evicting dirty objects. */
    uint64_t makeRoom(uint64_t needed);

    void admit(uint32_t i);

    EventLoop &loop_;
    SsdModel &ssd_;
    FaultInjector *faults_ = nullptr;
    uint64_t capacity_;
    uint64_t used_ = 0;
    uint64_t dirtyBytes_ = 0;
    std::vector<Object> objects_; // indexed by PageId
    std::vector<PageId> registrationOrder_;
    List lru_;
    /** Resident dirty objects, in LRU order. */
    List dirty_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t diskReadBytes_ = 0;
    uint64_t writebackBytes_ = 0;
    uint64_t tornDetected_ = 0;
};

} // namespace dbsens

#endif // DBSENS_STORAGE_BUFFER_POOL_H
