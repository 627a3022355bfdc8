/**
 * @file
 * Small fixed worker pool for morsel-driven wallclock parallelism.
 *
 * Scope is deliberately narrow: this pool accelerates the *real*
 * compute done on the host (filter/projection kernels, join probes,
 * the set-sharded LLC trace replay) — it never touches the
 * discrete-event simulation,
 * whose clock, rng, and cache feed stay single-threaded and seeded
 * (see DESIGN.md Section 12 for the determinism argument).
 *
 * Execution model: runTasks(n, fn) runs fn(0..n-1) with the calling
 * thread participating alongside the background workers, claiming
 * task indices from a shared atomic counter. Which worker runs which
 * task is nondeterministic; callers make results deterministic by
 * writing into per-task slots and merging in task order.
 */

#ifndef DBSENS_CORE_WORKER_POOL_H
#define DBSENS_CORE_WORKER_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dbsens {

class WorkerPool
{
  public:
    /** Pool with `workers` total parallelism (including the calling
     * thread): spawns workers-1 background threads. workers <= 1
     * spawns none and runTasks degenerates to an inline loop. */
    explicit WorkerPool(unsigned workers);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Total parallelism (calling thread included). */
    unsigned workers() const { return workers_; }

    /**
     * Run fn(i) for every i in [0, ntasks), calling thread included,
     * and block until all tasks finished. Not reentrant: one batch at
     * a time per pool.
     */
    void runTasks(size_t ntasks, const std::function<void(size_t)> &fn);

  private:
    /**
     * One dispatched batch. Workers snapshot the shared_ptr under the
     * lock, then claim and run tasks lock-free; a straggler waking
     * after the batch completed still holds *this* batch (whose
     * counter is exhausted) and can never claim work from a newer
     * one.
     */
    struct Batch
    {
        const std::function<void(size_t)> *fn = nullptr;
        size_t ntasks = 0;
        std::atomic<size_t> next{0};
        std::atomic<size_t> done{0};
    };

    void workerLoop();
    /** Claim-and-run until the batch's task counter is exhausted. */
    static void drain(Batch &b);

    const unsigned workers_;
    std::vector<std::thread> threads_;
    std::mutex mu_;
    std::condition_variable wakeCv_; ///< new batch or shutdown
    std::condition_variable doneCv_; ///< batch completion
    std::shared_ptr<Batch> batch_;   ///< current batch (guarded by mu_)
    uint64_t generation_ = 0;        ///< bumped per batch (guarded)
    bool stop_ = false;              ///< shutdown flag (guarded)
};

} // namespace dbsens

#endif // DBSENS_CORE_WORKER_POOL_H
