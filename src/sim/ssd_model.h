/**
 * @file
 * Non-volatile storage model: an NVMe SSD with separate sequential
 * read and write bandwidth channels, a base device latency, and
 * cgroup-style configurable bandwidth limits
 * (BlockIOReadBandwidth/BlockIOWriteBandwidth in the paper).
 *
 * Each direction is a token-bucket/virtual-clock channel: a request of
 * B bytes occupies the channel for B / effective_bandwidth, requests
 * queue FIFO, and completion additionally incurs the base latency.
 * Throttling the limit therefore lengthens queues and I/O waits, which
 * is the first-order effect the paper measures (Figures 4, 5).
 */

#ifndef DBSENS_SIM_SSD_MODEL_H
#define DBSENS_SIM_SSD_MODEL_H

#include <cstdint>
#include <string>

#include "core/calibration.h"
#include "core/sim_time.h"
#include "sim/event_loop.h"
#include "sim/task.h"

namespace dbsens {

class FaultInjector;
class StatsRegistry;

/** SSD bandwidth/latency model with cgroup-style limits. */
class SsdModel
{
  public:
    /** Re-issues of a transiently failed I/O before it is given up
     * (`fault.ssd.exhausted`). */
    static constexpr int kMaxIoRetries = 5;

    explicit SsdModel(EventLoop &loop) : loop_(loop) {}

    /** Set a read-bandwidth limit in bytes/sec (0 = device limit). */
    void setReadLimit(double bytes_per_sec) { readLimit_ = bytes_per_sec; }

    /** Set a write-bandwidth limit in bytes/sec (0 = device limit). */
    void setWriteLimit(double bytes_per_sec) { writeLimit_ = bytes_per_sec; }

    /** Enable fault injection (null = no faults, bit-identical off). */
    void setFaultInjector(FaultInjector *f) { faults_ = f; }

    /**
     * Brownout: scale device bandwidth by `factor` (1.0 restores full
     * speed). Only the FaultInjector drives this.
     */
    void setBrownoutFactor(double factor) { brownout_ = factor; }

    double
    effectiveReadBw() const
    {
        const double bw =
            readLimit_ > 0 && readLimit_ < calib::kSsdReadBw
                ? readLimit_ : calib::kSsdReadBw;
        return brownout_ < 1.0 ? bw * brownout_ : bw;
    }

    double
    effectiveWriteBw() const
    {
        const double bw =
            writeLimit_ > 0 && writeLimit_ < calib::kSsdWriteBw
                ? writeLimit_ : calib::kSsdWriteBw;
        return brownout_ < 1.0 ? bw * brownout_ : bw;
    }

    /** Issue a read of `bytes`; completes when the device finishes. */
    Task<void> read(uint64_t bytes);

    /** Issue a write of `bytes`. */
    Task<void> write(uint64_t bytes);

    /** Cumulative bytes read/written (for bandwidth sampling). */
    uint64_t bytesRead() const { return bytesRead_; }
    uint64_t bytesWritten() const { return bytesWritten_; }
    uint64_t readOps() const { return readOps_; }

    /** Register gauges over this device under `prefix` (e.g. "ssd"). */
    void registerStats(StatsRegistry &reg, const std::string &prefix) const;

  private:
    SimDuration reserve(SimTime &channel_free, double bw, uint64_t bytes);

    /** Post-transfer fault handling: transient stalls and errors with
     * capped exponential-backoff retries (re-occupying the channel). */
    Task<void> injectIoFaults(bool is_read, uint64_t bytes);

    EventLoop &loop_;
    FaultInjector *faults_ = nullptr;
    double brownout_ = 1.0;
    double readLimit_ = 0;
    double writeLimit_ = 0;
    SimTime readFree_ = 0;
    SimTime writeFree_ = 0;
    uint64_t bytesRead_ = 0;
    uint64_t bytesWritten_ = 0;
    uint64_t readOps_ = 0;
    uint64_t writeOps_ = 0;
};

} // namespace dbsens

#endif // DBSENS_SIM_SSD_MODEL_H
