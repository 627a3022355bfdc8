#include "sim/fault.h"

#include <algorithm>

#include "core/backoff.h"
#include "core/logging.h"
#include "core/stats.h"
#include "sim/event_loop.h"

namespace dbsens {

namespace {

/** Capped-exponential backoff between SSD I/O re-issues. */
constexpr SimDuration kIoRetryBase = microseconds(50);
constexpr SimDuration kIoRetryCap = milliseconds(5);

} // namespace

FaultInjector::FaultInjector(const FaultConfig &cfg)
    : cfg_(cfg), rngIo_(SplitMix64(cfg.seed ^ 0x10ULL).next()),
      rngTorn_(SplitMix64(cfg.seed ^ 0x20ULL).next()),
      rngJitter_(SplitMix64(cfg.seed ^ 0x30ULL).next())
{
}

void
FaultInjector::start(EventLoop &loop, Hooks hooks)
{
    loop_ = &loop;
    hooks_ = std::move(hooks);

    if (cfg_.brownoutPeriod > 0 && cfg_.brownoutDuration > 0)
        scheduleBrownoutWindow(loop_->now() + cfg_.brownoutPeriod);

    if (cfg_.degradeAt > 0 &&
        (cfg_.offlineCores > 0 || cfg_.revokeLlcMb > 0)) {
        loop_->at(cfg_.degradeAt, [this] {
            if (cfg_.offlineCores > 0 && hooks_.offlineCores) {
                hooks_.offlineCores(cfg_.offlineCores);
                c_.coresOfflined += uint64_t(cfg_.offlineCores);
                ++c_.injected;
            }
            if (cfg_.revokeLlcMb > 0 && hooks_.revokeLlcMb) {
                hooks_.revokeLlcMb(cfg_.revokeLlcMb);
                c_.llcRevokedMb += uint64_t(cfg_.revokeLlcMb);
                ++c_.injected;
            }
        });
    }

    if (cfg_.crashAt > 0 && hooks_.crash) {
        loop_->at(cfg_.crashAt, [this] {
            ++c_.crashes;
            ++c_.injected;
            hooks_.crash();
        });
    }

    for (const FaultEvent &ev : cfg_.script) {
        const SimTime t = std::max(ev.at, loop_->now());
        loop_->at(t, [this, ev] { fire(ev); });
    }
}

void
FaultInjector::fire(const FaultEvent &ev)
{
    switch (ev.kind) {
      case FaultEvent::Kind::BrownoutStart:
        if (hooks_.setSsdBrownout) {
            hooks_.setSsdBrownout(ev.value > 0 ? ev.value
                                               : cfg_.brownoutFactor);
            ++c_.brownouts;
            ++c_.injected;
        }
        break;
      case FaultEvent::Kind::BrownoutEnd:
        if (hooks_.setSsdBrownout)
            hooks_.setSsdBrownout(1.0);
        break;
      case FaultEvent::Kind::OfflineCores:
        if (hooks_.offlineCores && ev.value > 0) {
            hooks_.offlineCores(int(ev.value));
            c_.coresOfflined += uint64_t(ev.value);
            ++c_.injected;
        }
        break;
      case FaultEvent::Kind::RevokeLlcMb:
        if (hooks_.revokeLlcMb && ev.value > 0) {
            hooks_.revokeLlcMb(int(ev.value));
            c_.llcRevokedMb += uint64_t(ev.value);
            ++c_.injected;
        }
        break;
      case FaultEvent::Kind::Crash:
        if (hooks_.crash) {
            ++c_.crashes;
            ++c_.injected;
            hooks_.crash();
        }
        break;
      case FaultEvent::Kind::CorruptRow:
        if (hooks_.corruptRow) {
            ++c_.corruptions;
            ++c_.injected;
            hooks_.corruptRow(uint64_t(ev.value));
        }
        break;
    }
}

void
FaultInjector::scheduleBrownoutWindow(SimTime start)
{
    loop_->at(start, [this] {
        if (hooks_.setSsdBrownout) {
            hooks_.setSsdBrownout(cfg_.brownoutFactor);
            ++c_.brownouts;
            ++c_.injected;
        }
    });
    loop_->at(start + cfg_.brownoutDuration, [this] {
        if (hooks_.setSsdBrownout)
            hooks_.setSsdBrownout(1.0);
    });
    // Windows self-reschedule so arbitrarily long runs stay covered.
    loop_->at(start + cfg_.brownoutDuration, [this, start] {
        scheduleBrownoutWindow(start + cfg_.brownoutPeriod);
    });
}

bool
FaultInjector::drawSsdError()
{
    if (cfg_.ssdErrorRate <= 0)
        return false;
    if (!rngIo_.chance(cfg_.ssdErrorRate))
        return false;
    ++c_.ssdErrors;
    ++c_.injected;
    return true;
}

bool
FaultInjector::drawSsdStall()
{
    if (cfg_.ssdStallRate <= 0)
        return false;
    if (!rngIo_.chance(cfg_.ssdStallRate))
        return false;
    ++c_.ssdStalls;
    ++c_.injected;
    return true;
}

bool
FaultInjector::drawTornPage()
{
    if (cfg_.tornPageRate <= 0)
        return false;
    if (!rngTorn_.chance(cfg_.tornPageRate))
        return false;
    ++c_.tornPages;
    ++c_.injected;
    return true;
}

SimDuration
FaultInjector::ioRetryBackoff(int attempt)
{
    return cappedExpBackoff(kIoRetryBase, kIoRetryCap, attempt, rngJitter_);
}

void
FaultInjector::registerStats(StatsRegistry &reg,
                             const std::string &prefix) const
{
    reg.gauge(prefix + ".injected",
              [this] { return double(c_.injected); },
              "total fault events injected");
    reg.gauge(prefix + ".ssd.errors",
              [this] { return double(c_.ssdErrors); },
              "transient SSD I/O errors");
    reg.gauge(prefix + ".ssd.stalls",
              [this] { return double(c_.ssdStalls); },
              "transient SSD device stalls");
    reg.gauge(prefix + ".ssd.retries",
              [this] { return double(c_.ssdRetries); },
              "SSD I/O retry attempts");
    reg.gauge(prefix + ".ssd.recovered",
              [this] { return double(c_.ssdRecovered); },
              "errored I/Os that succeeded after retry");
    reg.gauge(prefix + ".ssd.exhausted",
              [this] { return double(c_.ssdExhausted); },
              "I/Os that ran out of retry budget");
    reg.gauge(prefix + ".page.torn",
              [this] { return double(c_.tornPages); },
              "torn pages detected by checksum");
    reg.gauge(prefix + ".page.rereads",
              [this] { return double(c_.pageRereads); },
              "torn-page re-read retries");
    reg.gauge(prefix + ".page.recovered",
              [this] { return double(c_.pageRecovered); },
              "torn pages healed by re-read");
    reg.gauge(prefix + ".brownouts",
              [this] { return double(c_.brownouts); },
              "SSD bandwidth brownout windows");
    reg.gauge(prefix + ".cores_offlined",
              [this] { return double(c_.coresOfflined); },
              "cores taken offline mid-run");
    reg.gauge(prefix + ".llc_revoked_mb",
              [this] { return double(c_.llcRevokedMb); },
              "LLC MB revoked mid-run");
    reg.gauge(prefix + ".grant_sheds",
              [this] { return double(c_.grantSheds); },
              "queries shed at the grant gate");
    reg.gauge(prefix + ".crashes",
              [this] { return double(c_.crashes); },
              "injected crashes");
    reg.gauge(prefix + ".checkpoints",
              [this] { return double(c_.checkpoints); },
              "fuzzy checkpoints taken");
    reg.gauge(prefix + ".redo_records",
              [this] { return double(c_.redoRecords); },
              "WAL records redone at recovery");
    reg.gauge(prefix + ".undo_records",
              [this] { return double(c_.undoRecords); },
              "WAL records undone at recovery");
    reg.gauge(prefix + ".corruptions",
              [this] { return double(c_.corruptions); },
              "rows silently corrupted (test hook)");
}

} // namespace dbsens
