/**
 * @file
 * FIFO awaitable mutex for simulated sessions, with wait-class
 * attribution. Used for page latches and other short-duration
 * serialization points; the heavier multi-mode LockManager (S/U/X)
 * lives in lock_manager.h.
 */

#ifndef DBSENS_TXN_SIM_MUTEX_H
#define DBSENS_TXN_SIM_MUTEX_H

#include <coroutine>
#include <deque>

#include "core/logging.h"
#include "core/trace.h"
#include "sim/event_loop.h"
#include "sim/wait_stats.h"

namespace dbsens {

/**
 * A non-reentrant FIFO mutex for coroutine sessions. Acquire with
 * `co_await mtx.acquire(loop, stats, WaitClass::PageLatch)`; release
 * with `mtx.release(loop)`.
 */
class SimMutex
{
  public:
    class Acquire
    {
      public:
        Acquire(SimMutex &m, EventLoop &loop, WaitStats *stats,
                WaitClass wc)
            : mtx(m), loop(loop), stats(stats), wc(wc)
        {
        }

        bool
        await_ready()
        {
            if (!mtx.held_) {
                mtx.held_ = true;
                return true;
            }
            return false;
        }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            handle = h;
            start = loop.now();
            mtx.waiters_.push_back(this);
        }

        void
        await_resume()
        {
            if (start >= 0) {
                if (stats)
                    stats->add(wc, loop.now() - start);
                if (auto *tr = TraceRecorder::active())
                    tr->complete(TraceRecorder::kEngineTrack, "wait",
                                 waitClassName(wc), start, loop.now());
            }
        }

      private:
        friend class SimMutex;
        SimMutex &mtx;
        EventLoop &loop;
        WaitStats *stats;
        WaitClass wc;
        std::coroutine_handle<> handle;
        SimTime start = -1;
    };

    /** Awaitable acquisition; FIFO among waiters. */
    Acquire
    acquire(EventLoop &loop, WaitStats *stats, WaitClass wc)
    {
        return Acquire(*this, loop, stats, wc);
    }

    /** Release; hands the mutex to the oldest waiter, if any. */
    void
    release(EventLoop &loop)
    {
        if (!held_)
            panic("SimMutex::release while not held");
        if (waiters_.empty()) {
            held_ = false;
            return;
        }
        Acquire *next = waiters_.front();
        waiters_.pop_front();
        // Mutex stays held; ownership transfers to `next`.
        loop.post(next->handle);
    }

    bool held() const { return held_; }
    size_t waiterCount() const { return waiters_.size(); }

  private:
    bool held_ = false;
    std::deque<Acquire *> waiters_;
};

} // namespace dbsens

#endif // DBSENS_TXN_SIM_MUTEX_H
