#include "sim/core_scheduler.h"

#include "core/logging.h"
#include "sim/dram_model.h"

namespace dbsens {

namespace {

/**
 * Map an allocation-order index to (socket, physical, smt) per the
 * paper: fill socket 0 physical cores, then socket 1 physical cores,
 * then the second SMT threads of all physical cores.
 */
constexpr int
socketOfIndex(int core)
{
    const int per_socket = calib::kPhysCoresPerSocket; // 8
    return (core % (2 * per_socket)) / per_socket;
}

constexpr int kPhysTotal = calib::kSockets * calib::kPhysCoresPerSocket;

/** Bit c for every logical core c. */
constexpr uint64_t kAllCores = (uint64_t(1) << calib::kLogicalCores) - 1;

/** Logical cores of one socket, as a mask. */
constexpr uint64_t
socketMask(int socket)
{
    uint64_t m = 0;
    for (int c = 0; c < calib::kLogicalCores; ++c)
        if (socketOfIndex(c) == socket)
            m |= uint64_t(1) << c;
    return m;
}

constexpr uint64_t kSocketMask[2] = {socketMask(0), socketMask(1)};

/** Bit c set when core c's SMT sibling is set in `cores`. */
constexpr uint64_t
siblingsOf(uint64_t cores)
{
    return (cores >> kPhysTotal | cores << kPhysTotal) & kAllCores;
}

/** Lowest set bit's index, or -1 for an empty mask. */
int
lowestCore(uint64_t mask)
{
    return mask ? __builtin_ctzll(mask) : -1;
}

} // namespace

/** Awaitable that grants a free logical core, queueing FIFO if none. */
class CoreAcquire
{
  public:
    CoreAcquire(CoreScheduler &s, int tenant) : sched(s)
    {
        waiter.tenant = tenant;
    }

    bool
    await_ready()
    {
        const int core = sched.pickFreeCoreFor(waiter.tenant);
        if (core >= 0) {
            sched.occupy(core);
            waiter.grantedCore = core;
            return true;
        }
        return false;
    }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        waiter.handle = h;
        sched.enqueue(&waiter);
    }

    int await_resume() const { return waiter.grantedCore; }

  private:
    CoreScheduler &sched;
    CoreScheduler::Waiter waiter;
};

CoreScheduler::CoreScheduler(EventLoop &loop, DramModel *dram)
    : loop_(loop), dram_(dram), cores_(calib::kLogicalCores)
{
}

void
CoreScheduler::setAllowedCores(int n)
{
    if (n < 1 || n > calib::kLogicalCores)
        fatal("core allocation must be in [1, 32], got " +
              std::to_string(n));
    allowed_ = n;
}

int
CoreScheduler::socketOf(int core)
{
    return socketOfIndex(core);
}

int
CoreScheduler::physicalOf(int core)
{
    // Physical core id 0..15; logical 16..31 are the SMT siblings of
    // logical 0..15 in allocation order.
    return core % (calib::kSockets * calib::kPhysCoresPerSocket);
}

int
CoreScheduler::siblingOf(int core)
{
    return core < kPhysTotal ? core + kPhysTotal : core - kPhysTotal;
}

uint64_t
CoreScheduler::freeAllowed() const
{
    return ((uint64_t(1) << allowed_) - 1) & ~busyMask_;
}

int
CoreScheduler::pickFreeCore() const
{
    // The lowest free allowed core whose sibling idles (an idle
    // physical core), else the lowest free allowed core.
    const uint64_t free = freeAllowed();
    const uint64_t idle = free & ~siblingsOf(busyMask_);
    return lowestCore(idle ? idle : free);
}

void
CoreScheduler::setTenantMask(int tenant, uint64_t mask)
{
    if (tenant < 0 || tenant >= kNumTenants)
        fatal("tenant id must be in [0, " +
              std::to_string(kNumTenants) + "), got " +
              std::to_string(tenant));
    tenantMask_[tenant] = mask;
    haveLeases_ = false;
    for (int t = 0; t < kNumTenants; ++t)
        haveLeases_ = haveLeases_ || tenantMask_[t] != 0;
    // A repartition can hand free cores to a queued tenant.
    pumpWaiters();
}

void
CoreScheduler::clearTenantMasks()
{
    for (int t = 0; t < kNumTenants; ++t)
        tenantMask_[t] = 0;
    haveLeases_ = false;
    pumpWaiters();
}

uint64_t
CoreScheduler::tenantMask(int tenant) const
{
    return tenant >= 0 && tenant < kNumTenants ? tenantMask_[tenant]
                                               : 0;
}

int
CoreScheduler::pickFreeCoreFor(int tenant) const
{
    if (tenant < 0 || tenant >= kNumTenants ||
        tenantMask_[tenant] == 0)
        return pickFreeCore();
    const uint64_t mask = tenantMask_[tenant] & kAllCores;

    // Hardware-islands placement ("OLTP on Hardware Islands"): keep
    // the tenant on the socket it already occupies, filling that
    // socket's physical cores, then its SMT threads, before crossing
    // sockets. Preferred socket = most busy leased cores there, then
    // most leased cores, then socket 0.
    const uint64_t busy = mask & busyMask_;
    const int busy0 = __builtin_popcountll(busy & kSocketMask[0]);
    const int busy1 = __builtin_popcountll(busy & kSocketMask[1]);
    const int leased0 = __builtin_popcountll(mask & kSocketMask[0]);
    const int leased1 = __builtin_popcountll(mask & kSocketMask[1]);
    int pref = 0;
    if (busy0 != busy1)
        pref = busy0 > busy1 ? 0 : 1;
    else if (leased0 != leased1)
        pref = leased0 > leased1 ? 0 : 1;

    // The lowest free leased core of the best rank:
    // 0: preferred socket, idle sibling   (physical core)
    // 1: preferred socket, busy sibling   (SMT thread)
    // 2: other socket, idle sibling       (cross-socket)
    // 3: other socket, busy sibling
    const uint64_t free = mask & freeAllowed();
    const uint64_t sib_busy = siblingsOf(busyMask_);
    const uint64_t home = free & kSocketMask[pref];
    const uint64_t away = free & ~kSocketMask[pref];
    for (const uint64_t set : {home & ~sib_busy, home, away & ~sib_busy})
        if (set)
            return lowestCore(set);
    return lowestCore(away);
}

double
CoreScheduler::burstDurationNs(int core, const CpuWork &work,
                               double *dram_infl_ns) const
{
    double dur = work.totalNs();
    const int sib = siblingOf(core);
    if (coreBusy(sib)) {
        const double avg_stall =
            0.5 * (work.stallFraction() + cores_[sib].stallFraction);
        const double combined = calib::smtCombinedThroughput(avg_stall);
        // Per-thread throughput share is combined/2 of a solo thread.
        dur *= 2.0 / combined;
    }
    if (dram_infl_ns)
        *dram_infl_ns = 0;
    // A burst can never move its DRAM bytes faster than the socket's
    // achievable bandwidth.
    if (work.dramBytes > 0) {
        const double min_ns =
            work.dramBytes / calib::kDramBwPerSocket * 1e9;
        if (min_ns > dur) {
            if (dram_infl_ns)
                *dram_infl_ns = min_ns - dur;
            dur = min_ns;
        }
    }
    return dur;
}

Task<void>
CoreScheduler::consume(CpuWork work)
{
    const SimTime enqueue = loop_.now();
    const int core = co_await CoreAcquire(*this, work.tenant);
    const SimTime grant = loop_.now();
    lastGrantedCore_ = core;
    cores_[core].stallFraction = work.stallFraction();
    double dram_infl = 0;
    const double dur = burstDurationNs(core, work, &dram_infl);
    busyNs_ += dur;
    cores_[core].busyNs += dur;
    socketBusyNs_[socketOf(core)] += dur;
    if (work.tenant >= 0 && work.tenant < kNumTenants)
        tenantBusyNs_[work.tenant] += dur;
    workNs_ += work.totalNs();
    if (dram_ && work.dramBytes > 0)
        dram_->charge(socketOf(core), work.dramBytes);
    co_await SimDelay(loop_, SimDuration(dur));
    if (blame_)
        blame_(work.tenant, enqueue, grant, loop_.now(),
               work.computeNs, work.stallNs + dram_infl);
    releaseCore(core);
}

void
CoreScheduler::releaseCore(int core)
{
    busyMask_ &= ~(uint64_t(1) << core);
    pumpWaiters();
}

void
CoreScheduler::pumpWaiters()
{
    // FIFO grant loop. Without leases at most the front waiter can be
    // granted (a session only queues when no allowed core is free, so
    // a single release frees a single core) — identical to the
    // historical one-grant-per-release path. With leases a waiter
    // whose lease is fully busy must not block later waiters whose
    // lease has room, so the scan continues past it.
    // With no free allowed core nobody fits, lease or not.
    Waiter **link = &waitHead_;
    while (*link && freeAllowed()) {
        Waiter *w = *link;
        const int core = pickFreeCoreFor(w->tenant);
        if (core < 0) {
            if (!haveLeases_)
                return; // shared pool exhausted: nobody later fits
            link = &w->next;
            continue;
        }
        occupy(core);
        w->grantedCore = core;
        *link = w->next;
        if (waitTail_ == &w->next)
            waitTail_ = link;
        --waitCount_;
        loop_.post(w->handle);
    }
}

} // namespace dbsens
