/**
 * @file
 * Parallel experiment engine.
 *
 * The paper's results are parameter sweeps — Figures 6–15 each re-run
 * the simulator once per (parameter, locality) point — and the
 * crash-point explorer multiplies that by every registered crash
 * point.  Every such run constructs its own System (store, flash,
 * SRAM, policy, RNGs), so runs share no mutable state and
 * parallelise embarrassingly.  This file is one of the few in the
 * tree allowed to create threads (envy-analyze's no-naked-thread rule
 * lists them): all experiment concurrency flows through ParallelRunner
 * so the isolation argument has to be made exactly once.
 *
 * Determinism contract: results are delivered in submission order,
 * and each task derives everything from its own arguments and seeds.
 * `--jobs 1` (or ENVY_JOBS=1) executes tasks inline at submission —
 * byte-for-byte today's serial behaviour — which is what the
 * determinism tests compare the parallel runs against.
 */

#ifndef ENVY_ENVYSIM_PARALLEL_HH
#define ENVY_ENVYSIM_PARALLEL_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.hh"

namespace envy {

/**
 * Fixed pool of worker threads draining a bounded task queue.
 *
 * - submit() enqueues a task and returns its submission index;
 *   it blocks while the queue is full (bounded memory even for
 *   million-task explorations).
 * - With jobs == 1 no thread is created and submit() runs the task
 *   inline, preserving exact serial semantics.
 * - Tasks must not touch shared mutable state; each should own its
 *   System.  The crash-point sink is thread-local, so a
 *   FaultInjector armed inside a task stays confined to it.
 * - Exceptions are captured per task; wait() rethrows the one from
 *   the lowest submission index (first error wins, matching what a
 *   serial run would have hit first).
 */
class ParallelRunner
{
  public:
    /** @param jobs worker threads; 0 picks defaultJobs(). */
    explicit ParallelRunner(unsigned jobs = 0);
    ~ParallelRunner();

    ParallelRunner(const ParallelRunner &) = delete;
    ParallelRunner &operator=(const ParallelRunner &) = delete;

    unsigned jobs() const { return jobs_; }

    /** Enqueue @p task; returns its submission index. */
    std::size_t submit(std::function<void()> task);

    /** Block until every submitted task has run; rethrow the first
     *  (lowest submission index) captured exception, if any. */
    void wait();

    /**
     * Worker count when the caller does not specify one: ENVY_JOBS
     * if set, else std::thread::hardware_concurrency() (min 1).
     */
    static unsigned defaultJobs();

  private:
    struct Task
    {
        std::size_t index;
        std::function<void()> fn;
    };

    void workerLoop();
    void runTask(const Task &task);
    void noteException(std::size_t index);

    unsigned jobs_;
    std::vector<std::thread> workers_;

    // condition_variable_any: waits on the annotated envy::Mutex
    // directly (BasicLockable), so `-Wthread-safety` sees the queue
    // state as guarded even across the waits.
    Mutex mutex_;
    std::condition_variable_any queueSpace_; //!< signalled on dequeue
    std::condition_variable_any queueWork_;  //!< signalled on enqueue
    std::condition_variable_any allDone_;    //!< on completion
    std::deque<Task> queue_ ENVY_GUARDED_BY(mutex_);
    std::size_t submitted_ ENVY_GUARDED_BY(mutex_) = 0;
    std::size_t completed_ ENVY_GUARDED_BY(mutex_) = 0;
    bool stopping_ ENVY_GUARDED_BY(mutex_) = false;

    // First-error propagation (by submission index, not wall clock).
    std::exception_ptr firstError_ ENVY_GUARDED_BY(mutex_);
    std::size_t firstErrorIndex_ ENVY_GUARDED_BY(mutex_) = 0;
};

/**
 * Sweep harness for the bench tables: benches defer one closure per
 * table cell (in row-major order), run() fans them out and hands the
 * cell strings back in submission order, and the table is assembled
 * exactly as the serial code would have — so the printed output is
 * byte-identical at any job count.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(unsigned jobs = 0) : jobs_(jobs) {}

    /** Register a cell computation; returns its index. */
    std::size_t defer(std::function<std::string()> cell);

    /** Run all deferred cells; results indexed by defer() order. */
    std::vector<std::string> run();

  private:
    unsigned jobs_;
    std::vector<std::function<std::string()>> cells_;
};

/**
 * Fan @p tasks out across @p jobs workers; results in task order.
 * For benches whose sweep points produce structured results rather
 * than strings (e.g. TimedResult rows that feed a second table).
 */
template <typename R>
std::vector<R>
parallelMap(unsigned jobs, std::vector<std::function<R()>> tasks)
{
    std::vector<R> out(tasks.size());
    ParallelRunner runner(jobs);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        runner.submit([&out, &tasks, i] { out[i] = tasks[i](); });
    }
    runner.wait();
    return out;
}

} // namespace envy

#endif // ENVY_ENVYSIM_PARALLEL_HH
