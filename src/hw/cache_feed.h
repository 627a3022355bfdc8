/**
 * @file
 * Cache access plumbing between the execution engine and the LLC
 * simulator.
 *
 * Functional code (operators, B-tree, buffer pool) emits *sampled*
 * memory accesses — full-scale virtual addresses (see
 * virtual_space.h) — into a CacheFeed. Two feeds exist:
 *
 *  - LiveCacheFeed: drives an LlcSim immediately; used by OLTP runs,
 *    where execution happens inside the discrete-event simulation and
 *    per-burst miss counts set the burst's stall time.
 *
 *  - RecordingFeed: appends to an AccessTrace; used when profiling
 *    analytical queries once, so that core/cache sweeps can replay the
 *    trace against any CAT allocation without re-executing the query.
 */

#ifndef DBSENS_HW_CACHE_FEED_H
#define DBSENS_HW_CACHE_FEED_H

#include <cstdint>
#include <vector>

#include "hw/llc_sim.h"

namespace dbsens {

class WorkerPool;

/** Destination for sampled cache-model accesses. */
class CacheFeed
{
  public:
    virtual ~CacheFeed() = default;

    /** Emit one sampled access at a full-scale virtual address. */
    virtual void touch(uint64_t addr) = 0;

    /** Cumulative sampled accesses emitted. */
    virtual uint64_t accesses() const = 0;

    /** Cumulative misses (0 for feeds that do not simulate). */
    virtual uint64_t misses() const = 0;
};

/** Feed that discards accesses (counts only). */
class NullCacheFeed : public CacheFeed
{
  public:
    void touch(uint64_t) override { ++count_; }
    uint64_t accesses() const override { return count_; }
    uint64_t misses() const override { return 0; }

  private:
    uint64_t count_ = 0;
};

/** Socket assignment for an address: page-interleaved across sockets. */
inline int
socketOfAddr(uint64_t addr)
{
    return int((addr >> 12) & 1);
}

/**
 * Feed that drives an LlcSim as accesses arrive. `cos` selects the
 * CAT class of service charged for fills (0 unless a multi-tenant
 * partition is active — see src/tune/).
 */
class LiveCacheFeed : public CacheFeed
{
  public:
    explicit LiveCacheFeed(LlcSim &llc, int cos = 0)
        : llc_(llc), cos_(cos)
    {
    }

    void
    touch(uint64_t addr) override
    {
        ++accesses_;
        if (!llc_.access(socketOfAddr(addr), addr, cos_))
            ++misses_;
    }

    uint64_t accesses() const override { return accesses_; }
    uint64_t misses() const override { return misses_; }

  private:
    LlcSim &llc_;
    int cos_ = 0;
    uint64_t accesses_ = 0;
    uint64_t misses_ = 0;
};

/**
 * A recorded sampled-access trace. To bound memory, recording keeps
 * every k-th access once the trace exceeds a cap, doubling k each
 * time; `keepRatio()` reports the retained fraction so replays can
 * scale counts back up.
 */
class AccessTrace
{
  public:
    explicit AccessTrace(size_t cap = 1u << 24) : cap_(cap) {}

    void
    add(uint64_t addr)
    {
        ++total_;
        if (total_ % stride_ == 0) {
            addrs_.push_back(addr);
            if (addrs_.size() >= cap_)
                thin();
        }
    }

    /** Total accesses observed (before downsampling). */
    uint64_t total() const { return total_; }

    /** Retained addresses. */
    const std::vector<uint64_t> &addrs() const { return addrs_; }

    /**
     * Move every retained address in [lo, hi) up by `delta` (the
     * steady-state pass relocates its temp regions; see
     * TpchDriver::steadyStatePass).
     */
    void
    relocate(uint64_t lo, uint64_t hi, uint64_t delta)
    {
        for (uint64_t &a : addrs_)
            if (a >= lo && a < hi)
                a += delta;
    }

    /** Fraction of observed accesses retained. */
    double
    keepRatio() const
    {
        return total_ ? double(addrs_.size()) / double(total_) : 1.0;
    }

    /**
     * Replay into a fresh LLC at a total CAT allocation of `llc_mb`
     * (LlcSim::setTotalAllocationMb) and return the miss *rate*
     * (misses per access); the first tenth of the trace primes the
     * cache without counting. With a pool, disjoint set ranges replay
     * in parallel; the result is identical for any pool, or none.
     * Defined in llc_sim.cc.
     */
    double replayMissRate(int llc_mb, WorkerPool *pool = nullptr) const;

  private:
    void
    thin()
    {
        // Keep every other retained element; double the stride.
        std::vector<uint64_t> kept;
        kept.reserve(addrs_.size() / 2 + 1);
        for (size_t i = 0; i < addrs_.size(); i += 2)
            kept.push_back(addrs_[i]);
        addrs_.swap(kept);
        stride_ *= 2;
    }

    size_t cap_;
    uint64_t stride_ = 1;
    uint64_t total_ = 0;
    std::vector<uint64_t> addrs_;
};

/** Feed that records into an AccessTrace. */
class RecordingFeed : public CacheFeed
{
  public:
    explicit RecordingFeed(AccessTrace &trace) : trace_(trace) {}

    void touch(uint64_t addr) override { trace_.add(addr); }
    uint64_t accesses() const override { return trace_.total(); }
    uint64_t misses() const override { return 0; }

  private:
    AccessTrace &trace_;
};

} // namespace dbsens

#endif // DBSENS_HW_CACHE_FEED_H
