#include "sim/ssd_model.h"

#include <algorithm>

#include "core/stats.h"
#include "core/trace.h"
#include "sim/fault.h"

namespace dbsens {

namespace {

/** Length of one transient device stall (firmware hiccup). */
constexpr SimDuration kSsdStall = milliseconds(2);

} // namespace

SimDuration
SsdModel::reserve(SimTime &channel_free, double bw, uint64_t bytes)
{
    const SimTime start = std::max(loop_.now(), channel_free);
    const auto xfer = SimDuration(double(bytes) / bw * 1e9);
    channel_free = start + xfer;
    const SimTime done =
        channel_free + SimDuration(calib::kSsdBaseLatencyNs);
    return done - loop_.now();
}

Task<void>
SsdModel::read(uint64_t bytes)
{
    bytesRead_ += bytes;
    ++readOps_;
    const SimDuration wait = reserve(readFree_, effectiveReadBw(), bytes);
    if (auto *tr = TraceRecorder::active())
        tr->complete(TraceRecorder::kIoTrack, "io", "ssd.read",
                     loop_.now(), loop_.now() + wait, "bytes",
                     double(bytes));
    co_await SimDelay(loop_, wait);
    if (faults_)
        co_await injectIoFaults(true, bytes);
}

Task<void>
SsdModel::write(uint64_t bytes)
{
    bytesWritten_ += bytes;
    ++writeOps_;
    const SimDuration wait = reserve(writeFree_, effectiveWriteBw(), bytes);
    if (auto *tr = TraceRecorder::active())
        tr->complete(TraceRecorder::kIoTrack, "io", "ssd.write",
                     loop_.now(), loop_.now() + wait, "bytes",
                     double(bytes));
    co_await SimDelay(loop_, wait);
    if (faults_)
        co_await injectIoFaults(false, bytes);
}

Task<void>
SsdModel::injectIoFaults(bool is_read, uint64_t bytes)
{
    // Transient device stall (firmware hiccup): pure extra latency.
    if (faults_->drawSsdStall())
        co_await SimDelay(loop_, kSsdStall);

    // Transient error detected at completion: back off (capped
    // exponential + seeded jitter) and re-issue the transfer, which
    // re-occupies the bandwidth channel. Each re-issue can fail again.
    int attempt = 0;
    bool errored = false;
    while (faults_->drawSsdError()) {
        errored = true;
        if (attempt >= kMaxIoRetries) {
            // Retry budget exhausted: surface the loss and move on
            // (graceful degradation; upper layers see the counter).
            faults_->noteSsdExhausted();
            co_return;
        }
        ++attempt;
        faults_->noteSsdRetry();
        co_await SimDelay(loop_, faults_->ioRetryBackoff(attempt));
        SimTime &channel = is_read ? readFree_ : writeFree_;
        const double bw =
            is_read ? effectiveReadBw() : effectiveWriteBw();
        if (is_read)
            bytesRead_ += bytes;
        else
            bytesWritten_ += bytes;
        const SimDuration rewait = reserve(channel, bw, bytes);
        if (auto *tr = TraceRecorder::active())
            tr->complete(TraceRecorder::kIoTrack, "io",
                         is_read ? "ssd.read.retry" : "ssd.write.retry",
                         loop_.now(), loop_.now() + rewait, "bytes",
                         double(bytes));
        co_await SimDelay(loop_, rewait);
    }
    if (errored)
        faults_->noteSsdRecovered();
}

void
SsdModel::registerStats(StatsRegistry &reg, const std::string &prefix) const
{
    reg.gauge(prefix + ".read_bytes",
              [this] { return double(bytesRead_); },
              "cumulative bytes read");
    reg.gauge(prefix + ".write_bytes",
              [this] { return double(bytesWritten_); },
              "cumulative bytes written");
    reg.gauge(prefix + ".read_ops",
              [this] { return double(readOps_); }, "read requests");
    reg.gauge(prefix + ".write_ops",
              [this] { return double(writeOps_); }, "write requests");
    reg.gauge(prefix + ".brownout_factor",
              [this] { return brownout_; },
              "current bandwidth brownout factor (1 = healthy)");
    // Channel backlog: how far the virtual clock is ahead of now, i.e.
    // the queueing delay a request issued this instant would see.
    reg.gauge(prefix + ".read_backlog_ns",
              [this] {
                  return double(std::max<SimTime>(
                      0, readFree_ - loop_.now()));
              },
              "read-channel queueing delay for a new request");
    reg.gauge(prefix + ".write_backlog_ns",
              [this] {
                  return double(std::max<SimTime>(
                      0, writeFree_ - loop_.now()));
              },
              "write-channel queueing delay for a new request");
}

} // namespace dbsens
