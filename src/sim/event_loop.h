/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single-threaded event loop over simulated nanoseconds. All
 * cross-session resumptions are posted through the loop (never resumed
 * inline), which keeps stack depth bounded and event ordering
 * deterministic: events dispatch in (time, seq) order, so same-time
 * events run FIFO.
 */

#ifndef DBSENS_SIM_EVENT_LOOP_H
#define DBSENS_SIM_EVENT_LOOP_H

#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/sim_time.h"
#include "sim/task.h"

namespace dbsens {

/**
 * Identifies an independently killable group of events. Domain 0 is
 * the root domain and can never be killed; every other domain models
 * one incarnation of a crashable entity (e.g. a cluster node): all
 * work it schedules inherits its domain, and killDomain() makes the
 * loop drop that work at dispatch without resuming any of its
 * coroutine frames.
 */
using DomainId = uint32_t;

/**
 * The simulation kernel. Owns the event queue, the simulated clock,
 * and the frames of detached (spawned) root tasks.
 *
 * Events are 32-byte PODs: a coroutine frame address, or an index
 * into a slab of callbacks. Future events sit in a 4-ary heap ordered
 * by (time, seq); events scheduled at the current time go to a FIFO
 * lane that bypasses the heap (DESIGN.md, "DES kernel").
 */
class EventLoop
{
  public:
    EventLoop() = default;

    EventLoop(const EventLoop &) = delete;
    EventLoop &operator=(const EventLoop &) = delete;

    /** Current simulated time. */
    SimTime now() const { return now_; }

    /** Schedule a callback at an absolute simulated time (>= now). */
    void at(SimTime t, std::function<void()> fn);

    /** Schedule a callback after a delay. */
    void after(SimDuration d, std::function<void()> fn) { at(now_ + d, std::move(fn)); }

    /** Post a coroutine resumption at the current time (FIFO). */
    void post(std::coroutine_handle<> h) { postAt(now_, h); }

    /** Post a coroutine resumption at an absolute time. */
    void
    postAt(SimTime t, std::coroutine_handle<> h)
    {
        push(t, reinterpret_cast<uintptr_t>(h.address()));
    }

    /**
     * Detach a root task into the loop: the loop resumes it now and
     * reclaims its frame when it completes.
     */
    void spawn(Task<void> task);

    /** Number of spawned root tasks that have not yet completed. */
    int activeTasks() const { return activeTasks_; }

    /** Run until the event queue is empty. */
    void run();

    /**
     * Run until the given absolute time (events at exactly `t` run).
     * The clock is advanced to `t` even if the queue drains earlier.
     */
    void runUntil(SimTime t);

    /** True once stop() has been called. */
    bool stopped() const { return stopped_; }

    /**
     * Stop processing: run() / runUntil() return after the current
     * event. Used to end throughput experiments at a time limit.
     */
    void stop() { stopped_ = true; }

    /** Total events dispatched (for determinism tests). */
    uint64_t eventsDispatched() const { return dispatched_; }

    /** Allocate a fresh (alive) domain id. */
    DomainId newDomain() { return nextDomain_++; }

    /**
     * Kill a domain: queued and future events tagged with it are
     * dropped at dispatch, so no coroutine belonging to it ever
     * resumes again (frames leak, same as EventLoop teardown).
     * Domain 0 is the root domain and cannot be killed.
     */
    void killDomain(DomainId d);

    /** True unless `d` has been killed. */
    bool
    domainAlive(DomainId d) const
    {
        return d >= dead_.size() || !dead_[d];
    }

    // Internal: called from TaskPromiseBase when a detached root task
    // completes (its frame is destroyed as it returns).
    void rootTaskDone() { --activeTasks_; }

  private:
    /**
     * A scheduled event. `payload` is a coroutine frame address, or
     * (slab index << 1) | 1 for a callback: frames are at least
     * 8-byte aligned, so bit 0 tells the two apart.
     */
    struct Event
    {
        SimTime time;
        uint64_t seq;
        uintptr_t payload;
        DomainId domain;
    };

    static bool
    before(const Event &a, const Event &b)
    {
        return a.time != b.time ? a.time < b.time : a.seq < b.seq;
    }

    void push(SimTime t, uintptr_t payload);
    bool nextAtOrBefore(SimTime t) const;
    Event popNext();
    Event heapPop();
    std::function<void()> takeCallback(uintptr_t payload);
    void dispatch(const Event &ev);

    /** 4-ary min-heap of events pushed ahead of the clock. */
    std::vector<Event> heap_;
    /** FIFO of events pushed at now_, drained from laneHead_. */
    std::vector<Event> lane_;
    size_t laneHead_ = 0;
    /** Callbacks of pending at()/after() events, and free slots. */
    std::vector<std::function<void()>> slab_;
    std::vector<uint32_t> freeSlots_;
    /** Killed flag per domain id (ids past the end are alive). */
    std::vector<uint8_t> dead_;
    SimTime now_ = 0;
    uint64_t seq_ = 0;
    uint64_t dispatched_ = 0;
    int activeTasks_ = 0;
    DomainId currentDomain_ = 0;
    DomainId nextDomain_ = 1;
    bool stopped_ = false;

    friend class DomainScope;
};

/**
 * RAII override of the loop's current domain: everything scheduled
 * inside the scope (including coroutines spawned from it) belongs to
 * the given domain and dies with it.
 */
class DomainScope
{
  public:
    DomainScope(EventLoop &loop, DomainId d)
        : loop_(loop), prev_(loop.currentDomain_)
    {
        loop_.currentDomain_ = d;
    }
    ~DomainScope() { loop_.currentDomain_ = prev_; }

    DomainScope(const DomainScope &) = delete;
    DomainScope &operator=(const DomainScope &) = delete;

  private:
    EventLoop &loop_;
    DomainId prev_;
};

/** Awaitable: suspend the current coroutine for a simulated duration. */
class SimDelay
{
  public:
    SimDelay(EventLoop &loop, SimDuration d) : loop(loop), delay(d) {}

    bool await_ready() const noexcept { return delay <= 0; }

    void
    await_suspend(std::coroutine_handle<> h) const
    {
        loop.postAt(loop.now() + delay, h);
    }

    void await_resume() const noexcept {}

  private:
    EventLoop &loop;
    SimDuration delay;
};

} // namespace dbsens

#endif // DBSENS_SIM_EVENT_LOOP_H
