/**
 * @file
 * Fixed-size worker pool and data-parallel loop primitive.
 *
 * The simulator's outer loops (one engine per simulated core, one
 * engine per prefetcher configuration) are embarrassingly parallel:
 * every task constructs its own Program, SystemConfig, RNG and
 * predictor state, so nothing is shared but read-only inputs. This
 * subsystem makes that isolation explicit. parallelFor(n, fn) runs
 * fn(0..n-1) across a fixed set of std::thread workers and guarantees
 * that results placed into per-index slots are bit-identical to a
 * serial execution — the schedule may differ, the work may not.
 *
 * Thread-count resolution (resolveThreads): an explicit request wins;
 * a request of 0 means "auto", which honours the PIFETCH_THREADS
 * environment variable (CI pins 1 for strict serialism) and otherwise
 * uses std::thread::hardware_concurrency(). At threads <= 1 every
 * primitive degrades to a plain serial loop on the calling thread —
 * no pool, no synchronization.
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pifetch {

/**
 * Number of workers used when a caller asks for "auto" (threads == 0):
 * PIFETCH_THREADS if set (a positive whole decimal number; anything
 * else pins 1), otherwise std::thread::hardware_concurrency(). Always
 * at least 1 and at most the pool's 256-lane ceiling.
 */
unsigned defaultThreads();

/** Map a requested thread count to an effective one (0 -> auto). */
unsigned resolveThreads(unsigned requested);

/**
 * A fixed-size pool of std::thread workers executing indexed loops.
 *
 * One pool owns (threads - 1) long-lived workers; the calling thread
 * participates in every loop, so a pool built with threads == T uses
 * exactly T concurrent lanes. Construction with threads <= 1 creates
 * no workers at all and parallelFor() becomes a serial loop.
 *
 * The pool is reusable: parallelFor() may be called any number of
 * times, but not concurrently from several threads and not
 * re-entrantly from inside a task.
 */
class ThreadPool
{
  public:
    /** @param threads Total lanes; 0 means resolveThreads(0). */
    explicit ThreadPool(unsigned threads = 0);

    /** Joins all workers; pending work must have completed. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total concurrent lanes (workers + the calling thread). */
    unsigned threads() const { return threads_; }

    /**
     * Run fn(i) for every i in [0, n), distributed over the lanes.
     *
     * Blocks until every index has completed. Indices are claimed
     * from a shared atomic counter, so tasks should be coarse enough
     * to amortize one fetch_add each (an engine run easily is). If a
     * task throws, the first exception is rethrown on the calling
     * thread after the loop drains.
     */
    void parallelFor(std::uint64_t n,
                     const std::function<void(std::uint64_t)> &fn);

  private:
    void workerLoop();
    void runJob();

    unsigned threads_ = 1;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable wake_;     //!< workers: new job or stop
    std::condition_variable jobDone_;  //!< caller: all indices finished
    bool stop_ = false;
    bool jobOpen_ = false;             //!< a job is accepting workers
    unsigned activeWorkers_ = 0;       //!< workers inside runJob()
    std::uint64_t generation_ = 0;     //!< bumps once per job

    // Current job (valid while busyWorkers_ may be nonzero).
    std::uint64_t jobSize_ = 0;
    const std::function<void(std::uint64_t)> *jobFn_ = nullptr;
    std::atomic<std::uint64_t> nextIndex_{0};
    std::atomic<std::uint64_t> doneCount_{0};
    std::exception_ptr firstError_;
};

/**
 * One-shot convenience: run fn(0..n-1) on @p threads lanes
 * (0 = auto). Serial at threads <= 1 or n <= 1; otherwise spins up a
 * transient ThreadPool. Callers with several loops should keep their
 * own ThreadPool instead.
 */
void parallelFor(unsigned threads, std::uint64_t n,
                 const std::function<void(std::uint64_t)> &fn);

} // namespace pifetch
