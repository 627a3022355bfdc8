/**
 * @file
 * The LLC policy as it was with interleaved rows, kept as a reference:
 * each way a {64-bit tag, 64-bit lastUse} pair, matched one way at a
 * time, rows emptied on first touch, access() out of line. The tests
 * hold LlcSim and the trace replay to it bit for bit; the wall-clock
 * bench divides its LLC kernels by a loop over it, so their ratios do
 * not move when LlcSim does.
 */

#ifndef DBSENS_BENCH_REFERENCE_LLC_H
#define DBSENS_BENCH_REFERENCE_LLC_H

#include <algorithm>
#include <bitset>
#include <cstdint>
#include <memory>

#include "hw/llc_sim.h"

namespace dbsens {

class ReferenceLlc
{
  public:
    struct Way
    {
        uint64_t tag = ~uint64_t{0};
        int64_t lastUse = INT64_MIN;
    };

    ReferenceLlc()
    {
        for (auto &w : ways_)
            w.reset(static_cast<Way *>(::operator new(sizeof(Way) * kLines)));
    }

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
        row[victim].lastUse = clock - int64_t(LlcSim::kInsertAge);
        return false;
    }

    void
    setWayMask(uint32_t mask)
    {
        for (int cos = 0; cos < LlcSim::kMaxCos; ++cos)
            setCosWayMask(cos, mask);
    }

    void
    setCosWayMask(int cos, uint32_t mask)
    {
        cosMask_[cos] = mask & ((1u << LlcSim::kWays) - 1);
    }

    void
    setTotalAllocationMb(int mb)
    {
        setWayMask((1u << LlcSim::waysForAllocationMb(mb)) - 1);
    }

    __attribute__((noinline)) bool
    access(int socket, uint64_t addr, int cos = 0)
    {
        ++accesses_;
        ++clock_;
        const uint64_t line = addr / kCacheLineSize;
        const auto set = size_t(line % LlcSim::kSets);
        Way *row = &ways_[socket & 1][set * LlcSim::kWays];
        if (!live_[socket & 1][set]) {
            std::fill_n(row, LlcSim::kWays, Way{});
            live_[socket & 1][set] = true;
        }
        if (accessRow(row, LlcSim::kWays, cosMask_[cos & 1],
                      line / LlcSim::kSets, int64_t(clock_)))
            return true;
        ++misses_;
        return false;
    }

    void
    reset()
    {
        for (auto &l : live_)
            l.reset();
        clock_ = accesses_ = misses_ = 0;
    }

    void resetCounters() { accesses_ = misses_ = 0; }
    uint64_t accesses() const { return accesses_; }
    uint64_t misses() const { return misses_; }

  private:
    struct RawDelete
    {
        void operator()(Way *p) const { ::operator delete(p); }
    };
    static constexpr size_t kLines = size_t(LlcSim::kSets) * LlcSim::kWays;

    std::unique_ptr<Way[], RawDelete> ways_[2];
    std::bitset<LlcSim::kSets> live_[2];
    uint32_t cosMask_[LlcSim::kMaxCos] = {(1u << LlcSim::kWays) - 1,
                                          (1u << LlcSim::kWays) - 1};
    uint64_t clock_ = 0;
    uint64_t accesses_ = 0;
    uint64_t misses_ = 0;
};

} // namespace dbsens

#endif // DBSENS_BENCH_REFERENCE_LLC_H
