/**
 * @file
 * Wait-time accounting by wait class, mirroring the SQL Server wait
 * types the paper reports in Table 3: LOCK, LATCH, PAGELATCH (buffer
 * latch, non-I/O), PAGEIOLATCH (buffer latch during I/O), plus
 * WRITELOG (commit waiting for the log flush).
 */

#ifndef DBSENS_SIM_WAIT_STATS_H
#define DBSENS_SIM_WAIT_STATS_H

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "core/sim_time.h"

namespace dbsens {

class StatsRegistry;

/** Wait classes tracked per run. */
enum class WaitClass : uint8_t {
    Lock,        ///< row/table lock waits (LOCK_M_*)
    Latch,       ///< non-buffer latches (index structure latches)
    PageLatch,   ///< buffer page latch, page already in memory
    PageIoLatch, ///< buffer page latch while the page is read from SSD
    WriteLog,    ///< commit waiting for WAL flush
    Recovery,    ///< crash recovery (WAL analysis/redo/undo replay)
    Deadlock,    ///< blocked in a detected deadlock until victimized
    kCount,
};

/** Name used in reports. */
inline const char *
waitClassName(WaitClass c)
{
    switch (c) {
      case WaitClass::Lock: return "LOCK";
      case WaitClass::Latch: return "LATCH";
      case WaitClass::PageLatch: return "PAGELATCH";
      case WaitClass::PageIoLatch: return "PAGEIOLATCH";
      case WaitClass::WriteLog: return "WRITELOG";
      case WaitClass::Recovery: return "RECOVERY";
      case WaitClass::Deadlock: return "DEADLOCK";
      default: return "?";
    }
}

/** Accumulated wait time and counts by class. */
class WaitStats
{
  public:
    void
    add(WaitClass c, SimDuration ns)
    {
        auto &e = entries_[size_t(c)];
        e.totalNs += ns;
        e.count += 1;
        if (blameHook_)
            blameHook_(c, ns);
    }

    /**
     * Observability tap: invoked on every add() (but not merge()) so
     * the blame ledger sees individual waits as they finish. Empty by
     * default — wait accounting costs one extra bool test.
     */
    void
    setBlameHook(std::function<void(WaitClass, SimDuration)> hook)
    {
        blameHook_ = std::move(hook);
    }

    SimDuration totalNs(WaitClass c) const
    {
        return entries_[size_t(c)].totalNs;
    }

    uint64_t count(WaitClass c) const { return entries_[size_t(c)].count; }

    /** Sum of LOCK + LATCH + PAGELATCH (the paper's Sigma-L row). */
    SimDuration
    contentionNs() const
    {
        return totalNs(WaitClass::Lock) + totalNs(WaitClass::Latch) +
               totalNs(WaitClass::PageLatch);
    }

    void
    reset()
    {
        for (auto &e : entries_)
            e = {};
    }

    /** Accumulate another run phase's waits (crash–recovery runs). */
    void
    merge(const WaitStats &o)
    {
        for (size_t i = 0; i < entries_.size(); ++i) {
            entries_[i].totalNs += o.entries_[i].totalNs;
            entries_[i].count += o.entries_[i].count;
        }
    }

    /**
     * Register this accumulator as a registry view: per-class gauges
     * `<prefix>.<CLASS>.total_ns` / `.count` plus the contention sum,
     * so wait breakdowns read like any other stat
     * (e.g. `waits.PAGEIOLATCH.total_ns`).
     */
    void registerStats(StatsRegistry &reg, const std::string &prefix) const;

  private:
    struct Entry
    {
        SimDuration totalNs = 0;
        uint64_t count = 0;
    };

    std::array<Entry, size_t(WaitClass::kCount)> entries_{};
    std::function<void(WaitClass, SimDuration)> blameHook_;
};

} // namespace dbsens

#endif // DBSENS_SIM_WAIT_STATS_H
