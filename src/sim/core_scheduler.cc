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
int
socketOfIndex(int core)
{
    const int per_socket = calib::kPhysCoresPerSocket; // 8
    return (core % (2 * per_socket)) / per_socket;
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
            sched.cores_[core].busy = true;
            ++sched.busyCount_;
            waiter.grantedCore = core;
            return true;
        }
        return false;
    }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        waiter.handle = h;
        sched.waiters_.push_back(&waiter);
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
    const int phys_total = calib::kSockets * calib::kPhysCoresPerSocket;
    return core < phys_total ? core + phys_total : core - phys_total;
}

int
CoreScheduler::pickFreeCore() const
{
    int fallback = -1;
    for (int c = 0; c < allowed_; ++c) {
        if (cores_[c].busy)
            continue;
        const int sib = siblingOf(c);
        const bool sib_busy = sib < int(cores_.size()) && cores_[sib].busy;
        if (!sib_busy)
            return c; // prefer an idle physical core
        if (fallback < 0)
            fallback = c;
    }
    return fallback;
}

void
CoreScheduler::setTenantMask(int tenant, uint64_t mask)
{
    if (tenant < 0 || tenant >= kMaxTenants)
        fatal("tenant id must be in [0, " +
              std::to_string(kMaxTenants) + "), got " +
              std::to_string(tenant));
    tenantMask_[tenant] = mask;
    haveLeases_ = false;
    for (int t = 0; t < kMaxTenants; ++t)
        haveLeases_ = haveLeases_ || tenantMask_[t] != 0;
    // A repartition can hand free cores to a queued tenant.
    pumpWaiters();
}

void
CoreScheduler::clearTenantMasks()
{
    for (int t = 0; t < kMaxTenants; ++t)
        tenantMask_[t] = 0;
    haveLeases_ = false;
    pumpWaiters();
}

uint64_t
CoreScheduler::tenantMask(int tenant) const
{
    return tenant >= 0 && tenant < kMaxTenants ? tenantMask_[tenant]
                                               : 0;
}

int
CoreScheduler::pickFreeCoreFor(int tenant) const
{
    if (tenant < 0 || tenant >= kMaxTenants ||
        tenantMask_[tenant] == 0)
        return pickFreeCore();
    const uint64_t mask = tenantMask_[tenant];

    // Hardware-islands placement ("OLTP on Hardware Islands"): keep
    // the tenant on the socket it already occupies, filling that
    // socket's physical cores, then its SMT threads, before crossing
    // sockets. Preferred socket = most busy leased cores there, then
    // most leased cores, then socket 0.
    int busy[2] = {0, 0};
    int leased[2] = {0, 0};
    for (int c = 0; c < int(cores_.size()); ++c) {
        if (!(mask >> c & 1))
            continue;
        ++leased[socketOf(c)];
        if (cores_[c].busy)
            ++busy[socketOf(c)];
    }
    int pref = 0;
    if (busy[0] != busy[1])
        pref = busy[0] > busy[1] ? 0 : 1;
    else if (leased[0] != leased[1])
        pref = leased[0] > leased[1] ? 0 : 1;

    int best = -1;
    int best_rank = 4;
    for (int c = 0; c < allowed_; ++c) {
        if (!(mask >> c & 1) || cores_[c].busy)
            continue;
        const int sib = siblingOf(c);
        const bool sib_busy =
            sib < int(cores_.size()) && cores_[sib].busy;
        // 0: preferred socket, idle sibling   (physical core)
        // 1: preferred socket, busy sibling   (SMT thread)
        // 2: other socket, idle sibling       (cross-socket)
        // 3: other socket, busy sibling
        const int rank =
            (socketOf(c) == pref ? 0 : 2) + (sib_busy ? 1 : 0);
        if (rank < best_rank) {
            best_rank = rank;
            best = c;
        }
    }
    return best;
}

double
CoreScheduler::burstDurationNs(int core, const CpuWork &work,
                               double *dram_infl_ns) const
{
    double dur = work.totalNs();
    const int sib = siblingOf(core);
    if (sib < int(cores_.size()) && cores_[sib].busy) {
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
    if (work.tenant >= 0 && work.tenant < kMaxTenants)
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
    cores_[core].busy = false;
    --busyCount_;
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
    for (auto it = waiters_.begin(); it != waiters_.end();) {
        Waiter *w = *it;
        const int core = pickFreeCoreFor(w->tenant);
        if (core < 0) {
            if (!haveLeases_)
                return; // shared pool exhausted: nobody later fits
            ++it;
            continue;
        }
        cores_[core].busy = true;
        ++busyCount_;
        w->grantedCore = core;
        it = waiters_.erase(it);
        loop_.post(w->handle);
    }
}

} // namespace dbsens
