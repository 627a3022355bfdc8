/**
 * @file
 * Coroutine task type for simulator sessions.
 *
 * Workload sessions (transactions, query streams) are written as C++20
 * coroutines that `co_await` simulator primitives: CPU bursts, SSD
 * I/O, lock grants, and delays. The event loop resumes them in
 * simulated-time order, giving genuine interleaving (and thus genuine
 * lock contention) on a single host thread.
 *
 * `Task<T>` is lazily started. Awaiting a task runs it to completion
 * and yields its value; root tasks are handed to EventLoop::spawn()
 * which owns their lifetime.
 *
 * Frames are recycled through a per-thread pool of size classes, as a
 * simulation spawns and awaits millions of short-lived tasks. Each
 * thread has its own pool, so no lock is taken; a frame freed on
 * another thread than the one that allocated it joins that thread's
 * pool.
 */

#ifndef DBSENS_SIM_TASK_H
#define DBSENS_SIM_TASK_H

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <utility>

namespace dbsens {

template <typename T = void>
class Task;

class EventLoop;

namespace detail {

/**
 * Free lists of coroutine frames, one per 64-byte size class up to
 * 2 KB; larger frames go straight to the global heap. One pool per
 * thread, so no list is ever shared. Under AddressSanitizer frames
 * are not recycled, so use-after-free on a frame is still caught.
 */
class FramePool
{
  public:
    FramePool() = default;
    FramePool(const FramePool &) = delete;
    FramePool &operator=(const FramePool &) = delete;

    ~FramePool()
    {
        for (Block *&head : free_) {
            while (head)
                ::operator delete(std::exchange(head, head->next));
        }
    }

    void *
    alloc(size_t n)
    {
        const size_t c = classOf(n);
        if (c >= kClasses)
            return ::operator new(n);
        if (Block *b = free_[c]) {
            free_[c] = b->next;
            return b;
        }
        return ::operator new(c * kGranule);
    }

    void
    release(void *p, size_t n) noexcept
    {
        const size_t c = classOf(n);
        if (c >= kClasses) {
            ::operator delete(p);
            return;
        }
        Block *b = static_cast<Block *>(p);
        b->next = free_[c];
        free_[c] = b;
    }

  private:
    struct Block
    {
        Block *next;
    };

#if defined(__SANITIZE_ADDRESS__)
    // Only class 0 (an empty frame, which never occurs) is pooled.
    static constexpr size_t kClasses = 1;
#else
    static constexpr size_t kClasses = 33;
#endif
    static constexpr size_t kGranule = 64;

    static size_t classOf(size_t n) { return (n + kGranule - 1) / kGranule; }

    Block *free_[kClasses] = {};
};

inline thread_local FramePool tlsFramePool;

class TaskPromiseBase
{
  public:
    /** Coroutine to resume when this task finishes (the awaiter). */
    std::coroutine_handle<> continuation;
    std::exception_ptr exception;
    /** Set by EventLoop::spawn for detached root tasks. */
    EventLoop *ownerLoop = nullptr;

    static void *operator new(size_t n) { return tlsFramePool.alloc(n); }

    static void
    operator delete(void *p, size_t n) noexcept
    {
        tlsFramePool.release(p, n);
    }

    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter
    {
        TaskPromiseBase &promise;

        // A detached root task has nobody to resume: it does not
        // suspend, so its frame is destroyed as the coroutine returns.
        bool await_ready() noexcept { return promise.finishDetached(); }

        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<>) noexcept
        {
            if (promise.continuation)
                return promise.continuation;
            return std::noop_coroutine();
        }

        void await_resume() noexcept {}
    };

    FinalAwaiter final_suspend() noexcept { return {*this}; }

    void unhandled_exception() { exception = std::current_exception(); }

  private:
    /** True (and the loop told) when this is a spawned root task that
     * just finished; defined in event_loop.cc to avoid a cycle. */
    bool finishDetached() noexcept;
};

template <typename T>
class TaskPromise : public TaskPromiseBase
{
  public:
    Task<T> get_return_object();

    template <typename U>
    void return_value(U &&v) { value = std::forward<U>(v); }

    T value{};
};

template <>
class TaskPromise<void> : public TaskPromiseBase
{
  public:
    Task<void> get_return_object();
    void return_void() {}
};

} // namespace detail

/**
 * Lazily-started coroutine task. Move-only; owns its coroutine frame
 * unless detached into an EventLoop.
 */
template <typename T>
class Task
{
  public:
    using promise_type = detail::TaskPromise<T>;
    using Handle = std::coroutine_handle<promise_type>;

    Task() = default;
    explicit Task(Handle h) : handle_(h) {}

    Task(Task &&other) noexcept
        : handle_(std::exchange(other.handle_, nullptr))
    {
    }

    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = std::exchange(other.handle_, nullptr);
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task() { destroy(); }

    bool valid() const { return handle_ != nullptr; }
    bool done() const { return handle_ && handle_.done(); }

    /** Release ownership (used by EventLoop::spawn). */
    Handle
    release()
    {
        return std::exchange(handle_, nullptr);
    }

    // Awaitable interface: awaiting a task starts it; when it reaches
    // final_suspend, control transfers back to the awaiter.
    bool await_ready() const noexcept { return !handle_ || handle_.done(); }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> cont) noexcept
    {
        handle_.promise().continuation = cont;
        return handle_; // symmetric transfer: start the child now
    }

    T
    await_resume()
    {
        auto &p = handle_.promise();
        if (p.exception)
            std::rethrow_exception(p.exception);
        if constexpr (!std::is_void_v<T>)
            return std::move(p.value);
    }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    Handle handle_ = nullptr;
};

namespace detail {

template <typename T>
Task<T>
TaskPromise<T>::get_return_object()
{
    return Task<T>(
        std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void>
TaskPromise<void>::get_return_object()
{
    return Task<void>(
        std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

} // namespace detail

} // namespace dbsens

#endif // DBSENS_SIM_TASK_H
