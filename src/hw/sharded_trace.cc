#include <functional>
#include <string>
#include <vector>

#include "core/logging.h"
#include "core/worker_pool.h"
#include "hw/cache_feed.h"

namespace dbsens {

namespace {

/** fn(0..n-1) on `pool`, or in order on this thread without one. */
void
forEachTask(WorkerPool *pool, size_t n,
            const std::function<void(size_t)> &fn)
{
    if (pool)
        pool->runTasks(n, fn);
    else
        for (size_t i = 0; i < n; ++i)
            fn(i);
}

} // namespace

AccessTrace::AccessTrace(size_t cap) : cap_(cap)
{
    if (cap > kMaxCap)
        fatal("access trace cap " + std::to_string(cap) +
              " is above 2^24");
}

ShardedTrace::ShardedTrace(AccessTrace &&trace, WorkerPool *pool,
                           Relocation moved)
    : total_(trace.total_), size_(trace.addrs_.size()),
      entries_(std::make_unique_for_overwrite<uint64_t[]>(size_))
{
    // A parallel, stable counting sort: each chunk of the trace counts
    // its accesses per shard, then writes them, in order, after those
    // of every earlier chunk. The order within a shard is trace order
    // whatever the chunking, so the pool does not change the result.
    const std::vector<uint64_t> addrs = std::move(trace.addrs_);
    const size_t chunks = pool ? pool->workers() : 1;
    auto chunkBegin = [&](size_t c) { return size_ * c / chunks; };
    auto addrAt = [&](size_t i) {
        const uint64_t a = addrs[i];
        return a >= moved.lo && a < moved.hi ? a + moved.delta : a;
    };
    std::vector<std::array<size_t, kShards>> next(chunks);
    auto count = [&](size_t c) {
        std::array<size_t, kShards> &n = next[c];
        n.fill(0);
        for (size_t i = chunkBegin(c); i < chunkBegin(c + 1); ++i) {
            const uint64_t a = addrAt(i);
            LlcSim::checkAddr(a);
            ++n[shardOf(a)];
        }
    };
    auto scatter = [&](size_t c) {
        std::array<size_t, kShards> &at = next[c];
        for (size_t i = chunkBegin(c); i < chunkBegin(c + 1); ++i) {
            const uint64_t a = addrAt(i);
            entries_[at[shardOf(a)]++] = pack(i, a);
        }
    };
    forEachTask(pool, chunks, count);
    // Turn the counts into each chunk's first slot in each shard.
    size_t slot = 0;
    for (size_t s = 0; s < kShards; ++s) {
        first_[s] = slot;
        for (auto &n : next) {
            const size_t k = n[s];
            n[s] = slot;
            slot += k;
        }
    }
    first_[kShards] = slot;
    forEachTask(pool, chunks, scatter);
}

std::vector<uint64_t>
ShardedTrace::lineAddrs() const
{
    std::vector<uint64_t> lines(size_);
    for (size_t s = 0; s < kShards; ++s)
        for (size_t j = first_[s]; j < first_[s + 1]; ++j)
            lines[indexOf(entries_[j])] = lineAddrOf(entries_[j], s);
    return lines;
}

double
ShardedTrace::replayMissRate(int llc_mb, WorkerPool *pool) const
{
    // Equal, bit for bit, to replaying the trace through a fresh LlcSim
    // set to llc_mb, for any pool (DESIGN.md, LLC):
    //  - an access reads and writes only its own (socket, set) row,
    //    and recency is compared only within a row, so shards replay
    //    independently; a shard holds its accesses in trace order, each
    //    on the global clock index + 1;
    //  - under a contiguous low mask a fresh row only ever fills ways
    //    0..ways-1; the rest keep the empty tag, which no real tag
    //    matches (addresses stay below kAddrLimit), so scanning `ways`
    //    ways suffices;
    //  - accessRow is the same policy code LlcSim::access runs.
    const int ways = LlcSim::waysForAllocationMb(llc_mb);
    if (size_ == 0)
        return 0.0;
    const auto warm = size_t(double(size_) * 0.1);
    const uint32_t mask = (1u << ways) - 1;
    const size_t lines = kShardSets * size_t(ways);

    std::array<uint64_t, kShards> misses{};
    auto replayShard = [&](size_t s) {
        // Private rows, `ways` ways per set of the shard. accessRow
        // reads tags in groups of kTagLanes, so the tag array carries
        // kTagLanes - 1 padding tags past its last row; they stay empty.
        std::vector<LlcSim::Tag> tags(lines + LlcSim::kTagLanes - 1,
                                      LlcSim::kEmptyTag);
        std::vector<int64_t> ages(lines, LlcSim::kEmptyAge);
        uint64_t m = 0;
        for (size_t j = first_[s]; j < first_[s + 1]; ++j) {
            const uint64_t e = entries_[j];
            const size_t i = indexOf(e);
            const size_t row = size_t(e >> 24 & 0xff) * size_t(ways);
            if (!LlcSim::accessRow(tags.data() + row, ages.data() + row,
                                   ways, mask, LlcSim::Tag(e >> 32),
                                   int64_t(i + 1)) &&
                i >= warm)
                ++m;
        }
        misses[s] = m;
    };
    forEachTask(pool, kShards, replayShard);

    uint64_t total = 0;
    for (uint64_t m : misses)
        total += m;
    return double(total) / double(size_ - warm);
}

} // namespace dbsens
