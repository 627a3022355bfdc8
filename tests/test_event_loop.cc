/**
 * @file
 * Unit tests for the discrete-event kernel and coroutine tasks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <queue>
#include <random>
#include <thread>
#include <tuple>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/core_scheduler.h"
#include "sim/dram_model.h"
#include "sim/event_loop.h"
#include "sim/ssd_model.h"
#include "sim/task.h"

namespace dbsens {
namespace {

TEST(EventLoop, CallbacksRunInTimeOrder)
{
    EventLoop loop;
    std::vector<int> order;
    loop.at(30, [&] { order.push_back(3); });
    loop.at(10, [&] { order.push_back(1); });
    loop.at(20, [&] { order.push_back(2); });
    loop.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoop, SameTimeEventsAreFifo)
{
    EventLoop loop;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        loop.at(5, [&, i] { order.push_back(i); });
    loop.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventLoop, RunUntilAdvancesClockAndLeavesLaterEvents)
{
    EventLoop loop;
    int fired = 0;
    loop.at(100, [&] { ++fired; });
    loop.at(200, [&] { ++fired; });
    loop.runUntil(150);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(loop.now(), 150);
    loop.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventLoop, NestedSchedulingFromCallback)
{
    EventLoop loop;
    std::vector<SimTime> times;
    loop.at(10, [&] {
        times.push_back(loop.now());
        loop.after(5, [&] { times.push_back(loop.now()); });
    });
    loop.run();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_EQ(times[0], 10);
    EXPECT_EQ(times[1], 15);
}

Task<int>
addLater(EventLoop &loop, int a, int b)
{
    co_await SimDelay(loop, 100);
    co_return a + b;
}

Task<void>
outer(EventLoop &loop, int &result)
{
    const int x = co_await addLater(loop, 2, 3);
    const int y = co_await addLater(loop, x, 10);
    result = y;
}

TEST(Task, NestedAwaitPropagatesValues)
{
    EventLoop loop;
    int result = 0;
    loop.spawn(outer(loop, result));
    loop.run();
    EXPECT_EQ(result, 15);
    EXPECT_EQ(loop.now(), 200);
    EXPECT_EQ(loop.activeTasks(), 0);
}

TEST(Task, ManyConcurrentRootTasksComplete)
{
    EventLoop loop;
    int done = 0;
    auto worker = [](EventLoop &lp, int delay, int &d) -> Task<void> {
        co_await SimDelay(lp, delay);
        co_await SimDelay(lp, delay);
        ++d;
    };
    for (int i = 1; i <= 100; ++i)
        loop.spawn(worker(loop, i, done));
    EXPECT_EQ(loop.activeTasks(), 100);
    loop.run();
    EXPECT_EQ(done, 100);
    EXPECT_EQ(loop.activeTasks(), 0);
    EXPECT_EQ(loop.now(), 200);
}

TEST(Task, ZeroDelayDoesNotSuspend)
{
    EventLoop loop;
    bool ran = false;
    auto t = [](EventLoop &lp, bool &r) -> Task<void> {
        co_await SimDelay(lp, 0);
        r = true;
    };
    loop.spawn(t(loop, ran));
    loop.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(loop.now(), 0);
}

TEST(CoreScheduler, SingleCoreSerializesBursts)
{
    EventLoop loop;
    CoreScheduler cpu(loop);
    cpu.setAllowedCores(1);
    std::vector<SimTime> ends;
    auto burst = [&](double ns) -> Task<void> {
        co_await cpu.consume(CpuWork{ns, 0, 0});
        ends.push_back(loop.now());
    };
    loop.spawn(burst(1000));
    loop.spawn(burst(1000));
    loop.spawn(burst(1000));
    loop.run();
    ASSERT_EQ(ends.size(), 3u);
    EXPECT_EQ(ends[0], 1000);
    EXPECT_EQ(ends[1], 2000);
    EXPECT_EQ(ends[2], 3000);
}

TEST(CoreScheduler, TwoCoresRunInParallel)
{
    EventLoop loop;
    CoreScheduler cpu(loop);
    cpu.setAllowedCores(2);
    std::vector<SimTime> ends;
    auto burst = [&](double ns) -> Task<void> {
        co_await cpu.consume(CpuWork{ns, 0, 0});
        ends.push_back(loop.now());
    };
    loop.spawn(burst(1000));
    loop.spawn(burst(1000));
    loop.run();
    ASSERT_EQ(ends.size(), 2u);
    // Cores 0 and 1 are different physical cores: fully parallel.
    EXPECT_EQ(ends[0], 1000);
    EXPECT_EQ(ends[1], 1000);
}

TEST(CoreScheduler, SmtSiblingsSlowEachOtherWhenComputeBound)
{
    EventLoop loop;
    CoreScheduler cpu(loop);
    // 17 allowed cores: core 16 is the SMT sibling of core 0.
    cpu.setAllowedCores(17);
    std::vector<SimTime> ends(17);
    auto burst = [&](int i) -> Task<void> {
        co_await cpu.consume(CpuWork{1000, 0, 0});
        ends[i] = loop.now();
    };
    for (int i = 0; i < 17; ++i)
        loop.spawn(burst(i));
    loop.run();
    // 16 bursts land on idle physical cores; the 17th shares a core.
    // Compute-bound combined throughput is 0.7 => per-thread share
    // 0.35 => duration 1000/0.35 ns.
    const SimTime shared = SimTime(1000.0 * 2.0 /
                                   calib::smtCombinedThroughput(0.0));
    int slow = 0, fast = 0;
    for (auto t : ends) {
        if (t == 1000)
            ++fast;
        else if (t == shared)
            ++slow;
    }
    EXPECT_EQ(fast, 16);
    EXPECT_EQ(slow, 1);
}

TEST(CoreScheduler, StallHeavySiblingsOverlapWell)
{
    EventLoop loop;
    CoreScheduler cpu(loop);
    cpu.setAllowedCores(32);
    // Two bursts forced onto the same physical core by filling all
    // others: simpler — allow only cores 0 and 16 via a tiny trick:
    // run 32 bursts and check total completion is shorter for
    // stall-heavy work than compute-heavy work of equal size.
    SimTime compute_end = 0, stall_end = 0;
    {
        EventLoop l2;
        CoreScheduler c2(l2);
        c2.setAllowedCores(32);
        auto burst = [&](CpuWork w) -> Task<void> {
            co_await c2.consume(w);
        };
        for (int i = 0; i < 32; ++i)
            loop.spawn(burst(CpuWork{0, 0, 0})); // placeholder
        (void)burst;
    }
    auto run_all = [&](double comp, double stall) -> SimTime {
        EventLoop l;
        CoreScheduler c(l);
        c.setAllowedCores(32);
        auto burst = [&](CpuWork w) -> Task<void> {
            co_await c.consume(w);
        };
        for (int i = 0; i < 32; ++i)
            l.spawn(burst(CpuWork{comp, stall, 0}));
        l.run();
        return l.now();
    };
    compute_end = run_all(1000, 0);
    stall_end = run_all(0, 1000);
    EXPECT_GT(compute_end, stall_end);
}

TEST(CoreScheduler, FifoQueueWhenOversubscribed)
{
    EventLoop loop;
    CoreScheduler cpu(loop);
    cpu.setAllowedCores(1);
    std::vector<int> order;
    auto burst = [&](int id) -> Task<void> {
        co_await cpu.consume(CpuWork{100, 0, 0});
        order.push_back(id);
    };
    for (int i = 0; i < 5; ++i)
        loop.spawn(burst(i));
    loop.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(CoreScheduler, TopologyMapping)
{
    EXPECT_EQ(CoreScheduler::socketOf(0), 0);
    EXPECT_EQ(CoreScheduler::socketOf(7), 0);
    EXPECT_EQ(CoreScheduler::socketOf(8), 1);
    EXPECT_EQ(CoreScheduler::socketOf(15), 1);
    EXPECT_EQ(CoreScheduler::socketOf(16), 0);
    EXPECT_EQ(CoreScheduler::socketOf(24), 1);
    EXPECT_EQ(CoreScheduler::siblingOf(0), 16);
    EXPECT_EQ(CoreScheduler::siblingOf(16), 0);
    EXPECT_EQ(CoreScheduler::siblingOf(15), 31);
    EXPECT_EQ(CoreScheduler::physicalOf(16), 0);
    EXPECT_EQ(CoreScheduler::physicalOf(31), 15);
}

TEST(SsdModel, BandwidthLimitsTransferTime)
{
    EventLoop loop;
    SsdModel ssd(loop);
    SimTime done = 0;
    auto io = [&]() -> Task<void> {
        co_await ssd.read(2500u << 20); // 2500 MB at 2500 MB/s = 1 s
        done = loop.now();
    };
    loop.spawn(io());
    loop.run();
    const double secs = toSeconds(done);
    EXPECT_NEAR(secs, 1.048, 0.01); // MiB vs MB plus base latency
    EXPECT_EQ(ssd.bytesRead(), 2500ull << 20);
}

TEST(SsdModel, ReadLimitThrottles)
{
    EventLoop loop;
    SsdModel ssd(loop);
    ssd.setReadLimit(100e6); // 100 MB/s
    SimTime done = 0;
    auto io = [&]() -> Task<void> {
        co_await ssd.read(uint64_t(100e6));
        done = loop.now();
    };
    loop.spawn(io());
    loop.run();
    EXPECT_NEAR(toSeconds(done), 1.0, 0.01);
}

TEST(SsdModel, ConcurrentRequestsQueue)
{
    EventLoop loop;
    SsdModel ssd(loop);
    ssd.setReadLimit(100e6);
    std::vector<SimTime> ends;
    auto io = [&]() -> Task<void> {
        co_await ssd.read(uint64_t(50e6)); // 0.5 s each at the limit
        ends.push_back(loop.now());
    };
    loop.spawn(io());
    loop.spawn(io());
    loop.run();
    ASSERT_EQ(ends.size(), 2u);
    EXPECT_NEAR(toSeconds(ends[0]), 0.5, 0.01);
    EXPECT_NEAR(toSeconds(ends[1]), 1.0, 0.01);
}

TEST(SsdModel, WritesIndependentOfReads)
{
    EventLoop loop;
    SsdModel ssd(loop);
    ssd.setReadLimit(10e6);
    SimTime wdone = 0;
    auto io = [&]() -> Task<void> {
        co_await ssd.write(uint64_t(120e6)); // 0.1 s at 1200 MB/s
        wdone = loop.now();
    };
    loop.spawn(io());
    loop.run();
    EXPECT_NEAR(toSeconds(wdone), 0.1, 0.01);
}

TEST(EventLoop, Determinism)
{
    auto run_once = [] {
        EventLoop loop;
        CoreScheduler cpu(loop);
        cpu.setAllowedCores(4);
        SsdModel ssd(loop);
        uint64_t hash = 0;
        auto session = [&](int id) -> Task<void> {
            for (int i = 0; i < 20; ++i) {
                co_await cpu.consume(CpuWork{double(100 + id * 13), 0, 0});
                co_await ssd.read(4096);
                hash = hash * 31 + uint64_t(loop.now()) + uint64_t(id);
            }
        };
        for (int i = 0; i < 8; ++i)
            loop.spawn(session(i));
        loop.run();
        return std::pair<uint64_t, uint64_t>{hash, loop.eventsDispatched()};
    };
    auto a = run_once();
    auto b = run_once();
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

// ----------------------------------- differential event-loop oracle

/**
 * The event loop as it was before the heap/lane/slab rewrite: every
 * event carries a std::function and sits in a std::priority_queue
 * ordered by (time, seq). Kept only here, as the oracle.
 */
class OracleLoop
{
  public:
    OracleLoop() = default;
    OracleLoop(const OracleLoop &) = delete;
    OracleLoop &operator=(const OracleLoop &) = delete;

    ~OracleLoop()
    {
        for (auto h : roots_)
            h.destroy();
    }

    SimTime now() const { return now_; }

    void
    at(SimTime t, std::function<void()> fn)
    {
        queue_.push(Event{t, seq_++, domain, std::move(fn)});
    }

    void after(SimDuration d, std::function<void()> fn) { at(now_ + d, std::move(fn)); }

    void post(std::coroutine_handle<> h) { postAt(now_, h); }

    void
    postAt(SimTime t, std::coroutine_handle<> h)
    {
        at(t, [h] { h.resume(); });
    }

    /** Root frames stay owned here and are destroyed with the loop. */
    void
    spawn(Task<void> task)
    {
        auto h = task.release();
        roots_.push_back(h);
        post(h);
    }

    void
    run()
    {
        stopped_ = false;
        while (!queue_.empty() && !stopped_)
            dispatchOne();
    }

    void
    runUntil(SimTime t)
    {
        stopped_ = false;
        while (!queue_.empty() && !stopped_ && queue_.top().time <= t)
            dispatchOne();
        if (!stopped_ && now_ < t)
            now_ = t;
    }

    bool stopped() const { return stopped_; }
    void stop() { stopped_ = true; }
    uint64_t eventsDispatched() const { return dispatched_; }
    DomainId newDomain() { return nextDomain_++; }
    void killDomain(DomainId d) { dead_.insert(d); }

    /** Domain new events are tagged with (the test scopes it). */
    DomainId domain = 0;

  private:
    struct Event
    {
        SimTime time;
        uint64_t seq;
        DomainId domain;
        std::function<void()> fn;

        bool
        operator>(const Event &o) const
        {
            return time != o.time ? time > o.time : seq > o.seq;
        }
    };

    void
    dispatchOne()
    {
        Event ev = std::move(const_cast<Event &>(queue_.top()));
        queue_.pop();
        if (dead_.count(ev.domain))
            return;
        now_ = ev.time;
        ++dispatched_;
        const DomainId prev = domain;
        domain = ev.domain;
        ev.fn();
        domain = prev;
    }

    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
    std::unordered_set<DomainId> dead_;
    std::vector<std::coroutine_handle<>> roots_;
    SimTime now_ = 0;
    uint64_t seq_ = 0;
    uint64_t dispatched_ = 0;
    DomainId nextDomain_ = 1;
    bool stopped_ = false;
};

template <typename F>
void
inDomain(EventLoop &loop, DomainId d, F f)
{
    DomainScope scope(loop, d);
    f();
}

template <typename F>
void
inDomain(OracleLoop &loop, DomainId d, F f)
{
    const DomainId prev = loop.domain;
    loop.domain = d;
    f();
    loop.domain = prev;
}

/** One dispatch as the schedule saw it: who ran, at what time. */
struct Dispatch
{
    int label;
    SimTime now;
    uint64_t dispatched;

    bool
    operator==(const Dispatch &o) const
    {
        return label == o.label && now == o.now &&
            dispatched == o.dispatched;
    }
};

std::ostream &
operator<<(std::ostream &os, const Dispatch &d)
{
    return os << "{" << d.label << " @" << d.now << " #" << d.dispatched
              << "}";
}

/**
 * A seeded random schedule run against one loop type. Every draw
 * happens inside a dispatch or between runs, so two loops that
 * dispatch in the same order draw the same schedule; the log records
 * the order.
 */
template <typename Loop>
class RandomSchedule
{
  public:
    RandomSchedule(Loop &loop, uint64_t seed) : loop_(loop), rng_(seed) {}

    RandomSchedule(const RandomSchedule &) = delete;
    RandomSchedule &operator=(const RandomSchedule &) = delete;

    ~RandomSchedule()
    {
        // EventLoop leaks the frames of killed workers; the oracle
        // destroys every root frame itself.
        if constexpr (std::is_same_v<Loop, EventLoop>) {
            for (auto &[id, h] : live_)
                h.destroy();
        }
    }

    std::vector<Dispatch>
    run()
    {
        for (int i = 0; i < 3; ++i)
            domains_.push_back(loop_.newDomain());
        for (int i = 0; i < 6; ++i)
            act(true);
        for (int round = 0; round < 12; ++round) {
            // Boundaries land on event times, between them, and past
            // the last event (the clock then advances onto an empty
            // queue); runUntil(now) drains the same-time events only.
            const SimTime t = loop_.now() + SimTime(draw(4) ? draw(60) : 0);
            loop_.runUntil(t);
            note(-1);
            // Scheduling between runs, at now() included.
            for (int n = int(draw(3)); n > 0; --n)
                act(false);
        }
        do {
            loop_.run();
            note(-2);
        } while (loop_.stopped());
        return log_;
    }

  private:
    uint64_t draw(uint64_t n) { return rng_() % n; }

    /** Delays: a third land at the current time (the same-time lane). */
    SimDuration delay() { return draw(3) == 0 ? 0 : SimDuration(1 + draw(40)); }

    void note(int label) { log_.push_back({label, loop_.now(), loop_.eventsDispatched()}); }

    /** Schedule one random action from the current context. */
    void
    act(bool allow_kill)
    {
        if (budget_ <= 0)
            return;
        --budget_;
        const int id = nextId_++;
        switch (draw(allow_kill ? 10 : 9)) {
        case 0:
        case 1:
            loop_.at(loop_.now() + delay(), [this, id] { callback(id); });
            break;
        case 2:
            loop_.after(delay(), [this, id] { callback(id); });
            break;
        case 3:
        case 4:
            spawnWorker(id);
            break;
        case 5:
        case 6: {
            const DomainId d = domains_[draw(domains_.size())];
            inDomain(loop_, d, [&] {
                if (draw(2))
                    loop_.at(loop_.now() + delay(),
                             [this, id] { callback(id); });
                else
                    spawnWorker(id);
            });
            break;
        }
        case 7:
            if (draw(4) == 0)
                loop_.stop();
            break;
        case 8:
            // A second callback at the same time as a likely heap
            // event, so a later kill can hit the heap head.
            loop_.after(SimDuration(1 + draw(3)), [this, id] { callback(id); });
            break;
        default:
            if (draw(3) == 0)
                loop_.killDomain(domains_[draw(domains_.size())]);
            break;
        }
    }

    /** Spawn a worker, keeping its frame in live_ until it ends. */
    void
    spawnWorker(int id)
    {
        auto h = worker(*this, id, 1 + int(draw(5))).release();
        live_[id] = h;
        loop_.spawn(Task<void>(h));
    }

    void
    callback(int id)
    {
        note(id);
        for (int n = int(draw(3)); n > 0; --n)
            act(true);
    }

    struct Sleep
    {
        Loop &loop;
        SimDuration d;
        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<> h) const { loop.postAt(loop.now() + d, h); }
        void await_resume() const noexcept {}
    };

    struct Yield
    {
        Loop &loop;
        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<> h) const { loop.post(h); }
        void await_resume() const noexcept {}
    };

    static Task<int>
    child(RandomSchedule &s, int label)
    {
        co_await Sleep{s.loop_, s.delay()};
        s.note(label);
        co_return label;
    }

    static Task<void>
    worker(RandomSchedule &s, int id, int steps)
    {
        for (int i = 0; i < steps; ++i) {
            s.note(1000000 + id * 10 + i);
            switch (s.draw(4)) {
            case 0:
                co_await Yield{s.loop_};
                break;
            case 1:
                s.note(co_await child(s, 2000000 + id * 10 + i));
                break;
            case 2:
                s.act(true);
                [[fallthrough]];
            default:
                co_await Sleep{s.loop_, s.delay()};
                break;
            }
        }
        s.live_.erase(id);
    }

    Loop &loop_;
    std::mt19937_64 rng_;
    std::vector<DomainId> domains_;
    std::vector<Dispatch> log_;
    std::map<int, std::coroutine_handle<>> live_;
    int budget_ = 400;
    int nextId_ = 0;
};

TEST(EventLoop, MatchesPriorityQueueOracleOnRandomSchedules)
{
    size_t dispatches = 0;
    for (uint64_t seed = 1; seed <= 300; ++seed) {
        OracleLoop oracle;
        RandomSchedule<OracleLoop> want(oracle, seed);
        const std::vector<Dispatch> expected = want.run();

        EventLoop loop;
        RandomSchedule<EventLoop> got(loop, seed);
        const std::vector<Dispatch> actual = got.run();

        ASSERT_EQ(actual, expected) << "seed " << seed;
        ASSERT_EQ(loop.eventsDispatched(), oracle.eventsDispatched());
        ASSERT_EQ(loop.now(), oracle.now());
        dispatches += actual.size();
    }
    // The schedules are not trivially short.
    EXPECT_GT(dispatches, 30000u);
}

TEST(EventLoop, KilledEventAtHeapHeadIsDroppedWithoutTicking)
{
    EventLoop loop;
    const DomainId d = loop.newDomain();
    std::vector<SimTime> ran;
    {
        DomainScope scope(loop, d);
        loop.at(10, [&] { ran.push_back(loop.now()); });
    }
    loop.at(20, [&] { ran.push_back(loop.now()); });
    loop.killDomain(d);
    EXPECT_FALSE(loop.domainAlive(d));
    loop.runUntil(15);
    EXPECT_TRUE(ran.empty());
    EXPECT_EQ(loop.now(), 15);
    loop.run();
    EXPECT_EQ(ran, (std::vector<SimTime>{20}));
    EXPECT_EQ(loop.eventsDispatched(), 1u);
}

TEST(EventLoop, HeapEventsAtNowRunBeforeTheSameTimeLane)
{
    EventLoop loop;
    std::vector<int> order;
    loop.at(10, [&] {
        order.push_back(1);
        loop.at(10, [&] { order.push_back(3); }); // lane
    });
    loop.at(10, [&] { order.push_back(2); }); // heap, pushed earlier
    loop.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// ----------------------------------- core-placement oracle

/**
 * pickFreeCore / pickFreeCoreFor as per-core loops, as they were
 * before the masks. `lease` 0 means no lease.
 */
int
loopPlacement(int allowed, uint64_t busy, uint64_t lease)
{
    const int n = calib::kLogicalCores;
    auto is_busy = [&](int c) { return (busy >> c & 1) != 0; };
    if (lease == 0) {
        int fallback = -1;
        for (int c = 0; c < allowed; ++c) {
            if (is_busy(c))
                continue;
            if (!is_busy(CoreScheduler::siblingOf(c)))
                return c;
            if (fallback < 0)
                fallback = c;
        }
        return fallback;
    }
    int busy_on[2] = {0, 0};
    int leased[2] = {0, 0};
    for (int c = 0; c < n; ++c) {
        if (!(lease >> c & 1))
            continue;
        ++leased[CoreScheduler::socketOf(c)];
        if (is_busy(c))
            ++busy_on[CoreScheduler::socketOf(c)];
    }
    int pref = 0;
    if (busy_on[0] != busy_on[1])
        pref = busy_on[0] > busy_on[1] ? 0 : 1;
    else if (leased[0] != leased[1])
        pref = leased[0] > leased[1] ? 0 : 1;
    int best = -1;
    int best_rank = 4;
    for (int c = 0; c < allowed; ++c) {
        if (!(lease >> c & 1) || is_busy(c))
            continue;
        const int rank = (CoreScheduler::socketOf(c) == pref ? 0 : 2) +
            (is_busy(CoreScheduler::siblingOf(c)) ? 1 : 0);
        if (rank < best_rank) {
            best_rank = rank;
            best = c;
        }
    }
    return best;
}

Task<void>
longBurst(CoreScheduler &cpu, int tenant)
{
    CpuWork w;
    w.computeNs = 1e9;
    w.tenant = tenant;
    co_await cpu.consume(w);
}

TEST(CoreScheduler, MaskPlacementMatchesLoopOracle)
{
    std::mt19937_64 rng(7);
    int queued = 0;
    for (int trial = 0; trial < 3000; ++trial) {
        EventLoop loop;
        CoreScheduler cpu(loop);
        // Dense and sparse busy sets alike.
        uint64_t busy = rng() & 0xffffffffull;
        for (int k = int(rng() % 3); k > 0; --k)
            busy &= rng() >> (k * 3);
        if (rng() % 4 == 0)
            busy |= rng() | rng();
        busy &= 0xffffffffull;
        // Pin a burst on each busy core through a one-core lease.
        for (int c = 0; c < calib::kLogicalCores; ++c) {
            if (!(busy >> c & 1))
                continue;
            cpu.setTenantMask(0, uint64_t(1) << c);
            loop.spawn(longBurst(cpu, 0));
            loop.runUntil(loop.now());
            ASSERT_TRUE(cpu.coreBusy(c));
        }
        cpu.clearTenantMasks();

        const int allowed = 1 + int(rng() % calib::kLogicalCores);
        cpu.setAllowedCores(allowed);
        uint64_t lease[2];
        for (uint64_t &m : lease) {
            m = rng();
            if (rng() % 2)
                m &= rng();
            if (rng() % 5 == 0)
                m = 0;
        }
        cpu.setTenantMask(0, lease[0]);
        cpu.setTenantMask(1, lease[1]);
        const int tenant = int(rng() % 3) - 1;
        const int want = loopPlacement(
            allowed, busy, tenant >= 0 ? lease[tenant] : 0);

        loop.spawn(longBurst(cpu, tenant));
        loop.runUntil(loop.now());
        if (want >= 0) {
            ASSERT_EQ(cpu.queueLength(), 0u) << "trial " << trial;
            ASSERT_EQ(cpu.lastGrantedCore(), want) << "trial " << trial;
        } else {
            ASSERT_EQ(cpu.queueLength(), 1u) << "trial " << trial;
            ++queued;
        }
        cpu.clearTenantMasks();
        loop.run();
        ASSERT_EQ(cpu.busyCores(), 0);
    }
    // Both outcomes are exercised.
    EXPECT_GT(queued, 100);
    EXPECT_LT(queued, 2900);
}

TEST(CoreScheduler, LeasedWaitersAreGrantedFifoPerTenant)
{
    EventLoop loop;
    CoreScheduler cpu(loop);
    cpu.setTenantMask(0, 0x3ull);       // tenant 0: cores 0, 1
    cpu.setTenantMask(1, 0x3ull << 8);  // tenant 1: cores 8, 9
    std::vector<std::pair<double, SimTime>> grants; // (compute, grant)
    cpu.setBlameSink([&](int, SimTime, SimTime grant, SimTime, double c,
                         double) { grants.push_back({c, grant}); });
    auto burst = [&](int tenant, double ns) -> Task<void> {
        CpuWork w;
        w.computeNs = ns;
        w.tenant = tenant;
        co_await cpu.consume(w);
    };
    loop.spawn(burst(0, 100)); // core 0
    loop.spawn(burst(0, 300)); // core 1
    loop.spawn(burst(1, 200)); // core 8
    loop.spawn(burst(1, 400)); // core 9
    // Queued in this order: a, b (tenant 0), c, d (tenant 1), e (0).
    for (auto [tenant, ns] : {std::pair{0, 1000.0}, {0, 1100.0},
                              {1, 1200.0}, {1, 1300.0}, {0, 1400.0}})
        loop.spawn(burst(tenant, ns));
    loop.runUntil(0);
    EXPECT_EQ(cpu.queueLength(), 5u);
    // A repartition at t=50 gives tenant 0 cores 2 and 3: a and b take
    // them in FIFO order; e stays queued behind c and d.
    loop.at(50, [&] { cpu.setTenantMask(0, 0xfull); });
    // e, the queue's tail, leaves first (t=100); f joins behind d.
    loop.at(150, [&] { loop.spawn(burst(1, 1500)); });
    loop.runUntil(60);
    EXPECT_EQ(cpu.queueLength(), 3u);
    loop.run();

    std::vector<std::pair<double, SimTime>> want = {
        {100, 0}, {200, 0}, {300, 0}, {400, 0},
        // e takes core 0 at t=100, past the tenant-1 waiters queued
        // before it; c, d and then f wait for their own lease.
        {1000, 50}, {1100, 50}, {1200, 200}, {1400, 100}, {1300, 400},
        {1500, 1400}};
    std::sort(grants.begin(), grants.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(grants, want);
    EXPECT_EQ(cpu.coreBusyNs(2), 1000);
    EXPECT_EQ(cpu.coreBusyNs(3), 1100);
    EXPECT_EQ(cpu.coreBusyNs(0), 100 + 1400);
    EXPECT_EQ(cpu.coreBusyNs(8), 200 + 1200 + 1500);
    EXPECT_EQ(cpu.coreBusyNs(9), 400 + 1300);
    EXPECT_EQ(loop.now(), 2900);
}

TEST(CoreScheduler, QueueRefillsAfterDraining)
{
    EventLoop loop;
    CoreScheduler cpu(loop);
    cpu.setAllowedCores(1);
    std::vector<int> order;
    auto burst = [&](int id) -> Task<void> {
        co_await cpu.consume(CpuWork{100, 0, 0});
        order.push_back(id);
    };
    for (int i = 0; i < 3; ++i)
        loop.spawn(burst(i));
    loop.run();
    EXPECT_EQ(cpu.queueLength(), 0u);
    for (int i = 3; i < 6; ++i)
        loop.spawn(burst(i));
    loop.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(loop.now(), 600);
}

// ----------------------------------- per-thread frame pool

Task<uint64_t>
leaf(EventLoop &loop, uint64_t x)
{
    co_await SimDelay(loop, SimDuration(1 + x % 7));
    co_return x * 2654435761u % 1000003;
}

Task<void>
fanOut(EventLoop &loop, uint64_t id, uint64_t &sum)
{
    for (uint64_t i = 0; i < 40; ++i)
        sum += co_await leaf(loop, id * 131 + i);
}

/** Spawn-heavy fan-out; returns (sum, events, end time). */
std::tuple<uint64_t, uint64_t, SimTime>
fanOutRun()
{
    EventLoop loop;
    uint64_t sum = 0;
    for (uint64_t id = 0; id < 300; ++id)
        loop.spawn(fanOut(loop, id, sum));
    loop.run();
    return {sum, loop.eventsDispatched(), loop.now()};
}

TEST(Task, FramePoolIsPerThread)
{
    const auto want = fanOutRun();
    EXPECT_GT(std::get<1>(want), 10000u);
    decltype(fanOutRun()) a, b;
    std::thread ta([&] { a = fanOutRun(); });
    std::thread tb([&] { b = fanOutRun(); });
    ta.join();
    tb.join();
    EXPECT_EQ(a, want);
    EXPECT_EQ(b, want);
}

} // namespace
} // namespace dbsens
