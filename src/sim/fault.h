/**
 * @file
 * Deterministic, seeded fault injection.
 *
 * The paper sweeps *healthy* resource allocations; production engines
 * must also survive the same resources failing or browning out
 * mid-run. The FaultInjector is the single source of fault decisions:
 * it owns its own RNG streams (decoupled from workload RNGs, so fault
 * draws never perturb transaction behaviour), schedules timed events
 * (brownout windows, degradation points, an injected crash) onto the
 * run's EventLoop, and answers
 * per-operation probabilistic draws (transient SSD errors/stalls,
 * torn pages) from components that hold a pointer to it.
 *
 * Every consumer gates on a null injector pointer, so with fault
 * injection disabled no draw happens, no event is scheduled, and the
 * simulation is byte-identical to a build without this subsystem.
 */

#ifndef DBSENS_SIM_FAULT_H
#define DBSENS_SIM_FAULT_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/random.h"
#include "core/sim_time.h"

namespace dbsens {

class EventLoop;
class StatsRegistry;

/** One scripted fault event (in addition to probabilistic streams). */
struct FaultEvent
{
    enum class Kind : uint8_t {
        BrownoutStart, ///< SSD bandwidth x value (factor in (0,1])
        BrownoutEnd,   ///< restore full SSD bandwidth
        OfflineCores,  ///< take `value` logical cores offline
        RevokeLlcMb,   ///< revoke `value` MB of the LLC allocation
        Crash,         ///< crash the server (volatile state lost)
        CorruptRow,    ///< test hook: silently flip a stored value
    };

    SimTime at = 0;
    Kind kind = Kind::Crash;
    double value = 0;
};

/** Knobs for one run's fault regime. All rates default to zero. */
struct FaultConfig
{
    bool enabled = false;
    /** Seed for the injector's own RNG streams. */
    uint64_t seed = 0xFA151D5EEDULL;

    // Transient SSD faults (drawn per I/O request).
    double ssdErrorRate = 0; ///< P(request fails and must be retried)
    double ssdStallRate = 0; ///< P(request hiccups for 2 ms)

    /** P(a buffer-pool miss returns a torn page, forcing a re-read). */
    double tornPageRate = 0;

    // Periodic bandwidth brownouts: every `brownoutPeriod` the SSD
    // runs at `brownoutFactor` x bandwidth for `brownoutDuration`.
    SimDuration brownoutPeriod = 0;
    SimDuration brownoutDuration = 0;
    double brownoutFactor = 0.25;

    // One-shot graceful degradation at `degradeAt` (0 = never).
    SimTime degradeAt = 0;
    int offlineCores = 0;
    int revokeLlcMb = 0;

    /** Grant-queue wait budget before load-shedding (0 = no shedding). */
    SimDuration grantTimeout = 0;

    /** Injected crash point, absolute sim time (0 = never). Must land
     * inside the measured window (after warmup). */
    SimTime crashAt = 0;

    /** Scripted events, run in addition to everything above. */
    std::vector<FaultEvent> script;

    /** True when any crash is scheduled — via crashAt or the script —
     * so the harness knows to set up a crash–recovery run. */
    bool
    hasCrash() const
    {
        if (crashAt > 0)
            return true;
        for (const FaultEvent &ev : script)
            if (ev.kind == FaultEvent::Kind::Crash)
                return true;
        return false;
    }
};

/**
 * Expand a base fault seed into an independent per-node stream: each
 * node's injector seeds from (base, node id) alone, so adding or
 * removing a node never shifts another node's fault draws. The
 * SplitMix64 pass decorrelates adjacent node ids.
 */
inline uint64_t
deriveNodeFaultSeed(uint64_t base, int node)
{
    SplitMix64 sm(base ^ (0x9e3779b97f4a7c15ULL * (uint64_t(node) + 1)));
    sm.next();
    return sm.next();
}

/** Cumulative fault/recovery counters (the `fault.*` stats). */
struct FaultCounters
{
    uint64_t injected = 0;     ///< total fault events injected
    uint64_t ssdErrors = 0;    ///< transient I/O errors drawn
    uint64_t ssdStalls = 0;    ///< transient device stalls drawn
    uint64_t ssdRetries = 0;   ///< I/O retry attempts issued
    uint64_t ssdRecovered = 0; ///< errored I/Os that finally succeeded
    uint64_t ssdExhausted = 0; ///< I/Os that ran out of retry budget
    uint64_t tornPages = 0;    ///< checksum mismatches on page loads
    uint64_t pageRereads = 0;  ///< torn-page re-read retries
    uint64_t pageRecovered = 0; ///< torn pages healed by re-read
    uint64_t brownouts = 0;     ///< brownout windows entered
    uint64_t coresOfflined = 0; ///< cores taken offline mid-run
    uint64_t llcRevokedMb = 0;  ///< LLC MB revoked mid-run
    uint64_t grantSheds = 0;    ///< queries shed at the grant gate
    uint64_t crashes = 0;       ///< injected crashes
    uint64_t checkpoints = 0;   ///< fuzzy checkpoints taken
    uint64_t redoRecords = 0;   ///< WAL records redone at recovery
    uint64_t undoRecords = 0;   ///< WAL records undone at recovery
    uint64_t corruptions = 0;   ///< rows silently corrupted (test hook)

    /** Accumulate another phase's counters (crash–recovery runs). */
    void
    merge(const FaultCounters &o)
    {
        injected += o.injected;
        ssdErrors += o.ssdErrors;
        ssdStalls += o.ssdStalls;
        ssdRetries += o.ssdRetries;
        ssdRecovered += o.ssdRecovered;
        ssdExhausted += o.ssdExhausted;
        tornPages += o.tornPages;
        pageRereads += o.pageRereads;
        pageRecovered += o.pageRecovered;
        brownouts += o.brownouts;
        coresOfflined += o.coresOfflined;
        llcRevokedMb += o.llcRevokedMb;
        grantSheds += o.grantSheds;
        crashes += o.crashes;
        checkpoints += o.checkpoints;
        redoRecords += o.redoRecords;
        undoRecords += o.undoRecords;
        corruptions += o.corruptions;
    }
};

/**
 * Seeded fault-event source for one run. Created only when
 * FaultConfig::enabled; components see a null pointer otherwise.
 */
class FaultInjector
{
  public:
    /** Degradation callbacks into the run's components. */
    struct Hooks
    {
        std::function<void(double)> setSsdBrownout; ///< factor; 1.0 = off
        std::function<void(int)> offlineCores;
        std::function<void(int)> revokeLlcMb;
        std::function<void()> crash;
        /** Test hook: corrupt the stored row selected by an ordinal
         * (bypassing the WAL), so auditors have something to catch. */
        std::function<void(uint64_t)> corruptRow;
    };

    explicit FaultInjector(const FaultConfig &cfg);

    /** Schedule brownouts, scripted events, degradation, and the
     * crash point. Call once after the run's components are wired. */
    void start(EventLoop &loop, Hooks hooks);

    // ----- probabilistic draws (hot paths; each uses its own stream)

    /** Draw a transient I/O error for one SSD request. */
    bool drawSsdError();

    /** Draw a transient device stall for one SSD request. */
    bool drawSsdStall();

    /** Draw a torn page for one buffer-pool miss load. */
    bool drawTornPage();

    /** Capped exponential backoff with seeded jitter, attempt >= 1. */
    SimDuration ioRetryBackoff(int attempt);

    // ----- event notes from components

    void noteSsdRetry() { ++c_.ssdRetries; }
    void noteSsdRecovered() { ++c_.ssdRecovered; }
    void noteSsdExhausted() { ++c_.ssdExhausted; }
    void notePageReread() { ++c_.pageRereads; }
    void notePageRecovered() { ++c_.pageRecovered; }
    void noteGrantShed() { ++c_.grantSheds; ++c_.injected; }
    void noteCheckpoint() { ++c_.checkpoints; }

    const FaultCounters &counters() const { return c_; }

    /** Register the `fault.*` gauges (prefix is typically "fault"). */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const;

  private:
    void fire(const FaultEvent &ev);
    void scheduleBrownoutWindow(SimTime start);

    FaultConfig cfg_;
    Rng rngIo_;     ///< SSD error/stall draws
    Rng rngTorn_;   ///< torn-page draws
    Rng rngJitter_; ///< backoff jitter
    FaultCounters c_;
    EventLoop *loop_ = nullptr;
    Hooks hooks_;
};

} // namespace dbsens

#endif // DBSENS_SIM_FAULT_H
