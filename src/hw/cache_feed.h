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
 *    analytical queries once. The trace is then sealed into a
 *    ShardedTrace, so that core/cache sweeps can replay it against
 *    any CAT allocation without re-executing the query.
 */

#ifndef DBSENS_HW_CACHE_FEED_H
#define DBSENS_HW_CACHE_FEED_H

#include <array>
#include <cstdint>
#include <memory>
#include <span>
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

    /** Emit sampled accesses in order; the same as touching each. */
    virtual void
    touch(std::span<const uint64_t> addrs)
    {
        for (uint64_t a : addrs)
            touch(a);
    }

    /** Cumulative sampled accesses emitted. */
    virtual uint64_t accesses() const = 0;

    /** Cumulative misses (0 for feeds that do not simulate). */
    virtual uint64_t misses() const = 0;
};

/** Feed that discards accesses (counts only). */
class NullCacheFeed : public CacheFeed
{
  public:
    using CacheFeed::touch;
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
class LiveCacheFeed final : public CacheFeed
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

    /**
     * Prefetch every address's row first, then access them in order:
     * the host fetches the rows in parallel, while the accesses, their
     * order and the clock are those of touching one at a time.
     */
    void
    touch(std::span<const uint64_t> addrs) override
    {
        for (uint64_t a : addrs)
            llc_.prefetch(socketOfAddr(a), a);
        for (uint64_t a : addrs)
            touch(a);
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
 * scale counts back up. An AccessTrace only records: seal it into a
 * ShardedTrace to replay it.
 */
class AccessTrace
{
  public:
    /** The largest cap: a sealed entry keeps the index in 24 bits. */
    static constexpr size_t kMaxCap = size_t{1} << 24;

    /** fatal() unless `cap` is at most kMaxCap. */
    explicit AccessTrace(size_t cap = kMaxCap);

    /** Record one access; `addr` must be below LlcSim::kAddrLimit. */
    void
    add(uint64_t addr)
    {
        LlcSim::checkAddr(addr);
        ++total_;
        if (total_ % stride_ == 0) {
            addrs_.push_back(addr);
            if (addrs_.size() >= cap_)
                thin();
        }
    }

    /** Total accesses observed (before downsampling). */
    uint64_t total() const { return total_; }

    /** Retained addresses; fewer than the cap. */
    const std::vector<uint64_t> &addrs() const { return addrs_; }

    /** Fraction of observed accesses retained. */
    double
    keepRatio() const
    {
        return total_ ? double(addrs_.size()) / double(total_) : 1.0;
    }

  private:
    friend class ShardedTrace;

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

/**
 * An AccessTrace sealed for replay. Its accesses are sorted, stably,
 * into kShards fixed ranges of kShardSets LLC sets each, so a range
 * replays from its own entries alone. An entry is one 8-byte word:
 * the trace index in bits 0-23 (AccessTrace::kMaxCap), the set's
 * offset in its range in bits 24-31 and the tag (addr >> 20, below
 * 2^31 by LlcSim::kAddrLimit) in bits 32-62. A set fixes its socket,
 * since set bit 6 is address bit 12 (socketOfAddr), so a range keeps
 * one row per set. The byte offset within a line is dropped: the LLC
 * model sees only lines.
 */
class ShardedTrace
{
  public:
    static constexpr size_t kShardSets = 256;
    static constexpr size_t kShards = size_t(LlcSim::kSets) / kShardSets;

    /**
     * Addresses in [lo, hi) move up by `delta` as a trace is sealed;
     * `{}` moves none.
     */
    struct Relocation
    {
        uint64_t lo, hi, delta;
    };

    ShardedTrace() = default;

    /**
     * Seal `trace`, relocating its addresses by `moved`; `trace` is
     * left with no retained addresses. The counting sort runs on
     * `pool` if one is given; the result is the same for any pool, or
     * none. fatal() if a relocated address reaches LlcSim::kAddrLimit.
     */
    explicit ShardedTrace(AccessTrace &&trace, WorkerPool *pool = nullptr,
                          Relocation moved = {});

    /** Total accesses the trace observed (before downsampling). */
    uint64_t total() const { return total_; }

    /** The retained accesses' line addresses, in trace order. */
    std::vector<uint64_t> lineAddrs() const;

    /**
     * Replay into a fresh LLC at a total CAT allocation of `llc_mb`
     * (LlcSim::setTotalAllocationMb) and return the miss *rate*
     * (misses per access); the first tenth of the trace primes the
     * cache without counting. With a pool, the shards replay in
     * parallel; the result is identical for any pool, or none.
     */
    double replayMissRate(int llc_mb, WorkerPool *pool = nullptr) const;

    /** The shard of the set `addr` maps to. */
    static size_t
    shardOf(uint64_t addr)
    {
        return size_t(addr / kCacheLineSize % LlcSim::kSets) / kShardSets;
    }

    /** The entry of access `index` at `addr` (below kAddrLimit). */
    static uint64_t
    pack(size_t index, uint64_t addr)
    {
        const uint64_t line = addr / kCacheLineSize;
        const uint64_t offset = line % LlcSim::kSets % kShardSets;
        return (line / LlcSim::kSets) << 32 | offset << 24 | index;
    }

    /** The trace index of an entry. */
    static size_t indexOf(uint64_t entry) { return entry & kIndexMask; }

    /** The line address of an entry in shard `shard`. */
    static uint64_t
    lineAddrOf(uint64_t entry, size_t shard)
    {
        const uint64_t set = shard * kShardSets + (entry >> 24 & 0xff);
        return ((entry >> 32) * LlcSim::kSets + set) * kCacheLineSize;
    }

  private:
    static constexpr uint64_t kIndexMask = AccessTrace::kMaxCap - 1;
    static_assert(kShards * kShardSets == size_t(LlcSim::kSets) &&
                  kShardSets == 256);
    static_assert((LlcSim::kAddrLimit - 1) / kCacheLineSize / LlcSim::kSets <
                  1ull << 31);

    uint64_t total_ = 0;
    size_t size_ = 0;
    /** Entries by shard; within a shard, in trace order. */
    std::unique_ptr<uint64_t[]> entries_;
    /** Shard s holds entries_[first_[s], first_[s + 1]). */
    std::array<size_t, kShards + 1> first_{};
};

/** Feed that records into an AccessTrace. */
class RecordingFeed : public CacheFeed
{
  public:
    explicit RecordingFeed(AccessTrace &trace) : trace_(trace) {}

    using CacheFeed::touch;
    void touch(uint64_t addr) override { trace_.add(addr); }
    uint64_t accesses() const override { return trace_.total(); }
    uint64_t misses() const override { return 0; }

  private:
    AccessTrace &trace_;
};

} // namespace dbsens

#endif // DBSENS_HW_CACHE_FEED_H
