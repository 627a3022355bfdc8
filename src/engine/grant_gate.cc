#include "engine/grant_gate.h"

#include <algorithm>

#include "core/trace.h"
#include "sim/fault.h"

namespace dbsens {

namespace {

struct Park
{
    GrantGate::Waiter *entry;
    std::deque<GrantGate::Waiter *> *queue;

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        entry->handle = h;
        queue->push_back(entry);
    }

    void await_resume() const noexcept {}
};

} // namespace

Task<bool>
GrantGate::acquire(uint64_t bytes, uint64_t *granted)
{
    const uint64_t need = clamp(bytes);
    if (waiters_.empty() && need <= freeBytes()) {
        reserved_ += need;
        peakReserved_ = std::max(peakReserved_, reserved_);
        if (granted)
            *granted = need;
        co_return true;
    }
    Waiter w{need, ++nextWaiterId_, {}, false};
    const SimTime start = loop_.now();
    if (queueTimeout_ > 0) {
        // Load shedding: a waiter stuck past the timeout is pulled
        // from the queue and resumed empty-handed.
        loop_.after(queueTimeout_, [this, id = w.id] {
            auto it = std::find_if(
                waiters_.begin(), waiters_.end(),
                [id](const Waiter *e) { return e->id == id; });
            if (it == waiters_.end())
                return;
            Waiter *victim = *it;
            waiters_.erase(it);
            victim->shed = true;
            ++shedTimeout_;
            if (faults_)
                faults_->noteGrantShed();
            loop_.post(victim->handle);
        });
    }
    co_await Park{&w, &waiters_};
    // Unless shed, pump() already reserved our bytes before resuming
    // (w.bytes may have been re-clamped by a capacity shrink while
    // queued — report what was actually reserved).
    if (granted)
        *granted = w.shed ? 0 : w.bytes;
    if (auto *tr = TraceRecorder::active())
        tr->complete(TraceRecorder::kEngineTrack, "grant",
                     w.shed ? "grant.shed" : "grant.queue", start,
                     loop_.now(), "bytes", double(w.bytes));
    co_return !w.shed;
}

void
GrantGate::pump()
{
    while (!waiters_.empty()) {
        Waiter *w = waiters_.front();
        if (w->bytes > freeBytes())
            break; // FIFO: later small requests wait behind it
        waiters_.pop_front();
        reserved_ += w->bytes;
        peakReserved_ = std::max(peakReserved_, reserved_);
        loop_.post(w->handle);
    }
}

void
GrantGate::release(uint64_t bytes)
{
    // Callers may release the amount they *requested*; an oversized
    // request was clamped at acquire, so clamp symmetrically here.
    // Callers that need exactness (capacity can shrink while they
    // hold) release the `granted` out-param instead.
    reserved_ -= std::min(bytes, reserved_);
    pump();
}

void
GrantGate::setCapacity(uint64_t bytes)
{
    if (bytes == 0)
        fatal("grant capacity must be positive");
    capacity_ = bytes;
    // Shrinking below the outstanding reservations must not wedge the
    // queue: re-clamp queued requests so each stays admissible once
    // current holders drain, then admit whatever now fits.
    for (Waiter *w : waiters_)
        w->bytes = clamp(w->bytes);
    pump();
}

} // namespace dbsens
