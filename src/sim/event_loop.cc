#include "sim/event_loop.h"

#include <utility>

#include "core/logging.h"

namespace dbsens {

namespace detail {

bool
TaskPromiseBase::finishDetached() noexcept
{
    if (continuation || !ownerLoop)
        return false;
    ownerLoop->rootTaskDone();
    return true;
}

} // namespace detail

void
EventLoop::push(SimTime t, uintptr_t payload)
{
    if (t == now_) {
        // Every heap event at now_ was pushed before the clock got
        // here and so has a smaller seq: the lane keeps (time, seq)
        // order without a sequence number of its own.
        lane_.push_back(Event{t, 0, payload, currentDomain_});
        return;
    }
    if (t < now_)
        panic("EventLoop scheduling into the past");
    // Sift a hole up from the new leaf, then fill it.
    const Event ev{t, seq_++, payload, currentDomain_};
    size_t i = heap_.size();
    heap_.emplace_back();
    while (i > 0) {
        const size_t parent = (i - 1) / 4;
        if (!before(ev, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = ev;
}

void
EventLoop::at(SimTime t, std::function<void()> fn)
{
    uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        slab_[slot] = std::move(fn);
    } else {
        slot = uint32_t(slab_.size());
        slab_.push_back(std::move(fn));
    }
    push(t, uintptr_t(slot) << 1 | 1);
}

void
EventLoop::killDomain(DomainId d)
{
    if (d == 0)
        panic("EventLoop::killDomain on the root domain");
    if (d >= dead_.size())
        dead_.resize(size_t(d) + 1, 0);
    dead_[d] = 1;
}

void
EventLoop::spawn(Task<void> task)
{
    auto h = task.release();
    if (!h)
        panic("EventLoop::spawn on empty task");
    h.promise().ownerLoop = this;
    ++activeTasks_;
    post(h);
}

EventLoop::Event
EventLoop::heapPop()
{
    const Event top = heap_.front();
    const Event last = heap_.back();
    heap_.pop_back();
    const size_t n = heap_.size();
    if (n == 0)
        return top;
    // Sift the hole at the root down to where `last` belongs.
    size_t i = 0;
    for (;;) {
        const size_t first = 4 * i + 1;
        if (first >= n)
            break;
        const size_t end = first + 4 < n ? first + 4 : n;
        size_t min = first;
        for (size_t c = first + 1; c < end; ++c)
            if (before(heap_[c], heap_[min]))
                min = c;
        if (!before(heap_[min], last))
            break;
        heap_[i] = heap_[min];
        i = min;
    }
    heap_[i] = last;
    return top;
}

bool
EventLoop::nextAtOrBefore(SimTime t) const
{
    if (laneHead_ < lane_.size())
        return now_ <= t;
    return !heap_.empty() && heap_.front().time <= t;
}

EventLoop::Event
EventLoop::popNext()
{
    // Heap events at now_ precede the lane (smaller seq); the lane
    // precedes every later heap event.
    if (laneHead_ < lane_.size() &&
        (heap_.empty() || heap_.front().time != now_)) {
        const Event ev = lane_[laneHead_++];
        if (laneHead_ == lane_.size()) {
            lane_.clear();
            laneHead_ = 0;
        }
        return ev;
    }
    return heapPop();
}

std::function<void()>
EventLoop::takeCallback(uintptr_t payload)
{
    // Moved out before it runs: a callback may schedule callbacks
    // that reuse its slot or grow the slab.
    const uint32_t slot = uint32_t(payload >> 1);
    std::function<void()> fn = std::move(slab_[slot]);
    slab_[slot] = nullptr;
    freeSlots_.push_back(slot);
    return fn;
}

void
EventLoop::dispatch(const Event &ev)
{
    const bool callback = ev.payload & 1;
    if (!domainAlive(ev.domain)) {
        // The event belongs to a killed incarnation: drop it without
        // resuming (the frame it holds leaks, as at teardown).
        if (callback)
            takeCallback(ev.payload);
        return;
    }
    now_ = ev.time;
    ++dispatched_;
    const DomainId prev = currentDomain_;
    currentDomain_ = ev.domain;
    if (callback)
        takeCallback(ev.payload)();
    else
        std::coroutine_handle<>::from_address(
            reinterpret_cast<void *>(ev.payload))
            .resume();
    currentDomain_ = prev;
}

void
EventLoop::run()
{
    stopped_ = false;
    while (!stopped_ && (laneHead_ < lane_.size() || !heap_.empty()))
        dispatch(popNext());
}

void
EventLoop::runUntil(SimTime t)
{
    stopped_ = false;
    while (!stopped_ && nextAtOrBefore(t))
        dispatch(popNext());
    if (!stopped_ && now_ < t)
        now_ = t;
}

} // namespace dbsens
