/**
 * @file
 * Worker-pool implementation.
 *
 * Synchronization scheme: all job fields are written under mutex_ in
 * parallelFor() before the generation counter is bumped; a worker
 * only touches them after observing the new generation under the same
 * mutex, so the writes happen-before every read. activeWorkers_
 * counts workers currently inside runJob(); parallelFor() refuses to
 * return (and to reset the job fields) until it drops to zero, so a
 * late-waking worker can never see a half-torn-down job. A worker
 * that wakes after its job already finished finds the claim counter
 * exhausted and leaves immediately.
 */

#include "common/parallel.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace pifetch {

namespace {

/**
 * Serial loop with the same exception contract as the pool path:
 * drain every index, then rethrow the first failure — so observable
 * side effects do not depend on the thread count.
 */
void
serialFor(std::uint64_t n, const std::function<void(std::uint64_t)> &fn)
{
    std::exception_ptr first;
    for (std::uint64_t i = 0; i < n; ++i) {
        try {
            fn(i);
        } catch (...) {
            if (!first)
                first = std::current_exception();
        }
    }
    if (first)
        std::rethrow_exception(first);
}

} // namespace

/** Hard ceiling on pool width: no simulation fans wider than this,
 * and it keeps a fat-fingered PIFETCH_THREADS from attempting
 * millions of std::thread spawns. */
constexpr unsigned maxPoolThreads = 256;

unsigned
defaultThreads()
{
    if (const char *env = std::getenv("PIFETCH_THREADS")) {
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (std::isdigit(static_cast<unsigned char>(*env)) &&
            *end == '\0' && v > 0) {
            return static_cast<unsigned>(
                std::min<long>(v, maxPoolThreads));
        }
        return 1;  // malformed or non-positive: be strictly serial
    }
    return std::clamp(std::thread::hardware_concurrency(), 1u,
                      maxPoolThreads);
}

unsigned
resolveThreads(unsigned requested)
{
    if (requested > 0)
        return std::min(requested, maxPoolThreads);
    return defaultThreads();
}

ThreadPool::ThreadPool(unsigned threads)
    : threads_(resolveThreads(threads))
{
    // The calling thread is lane 0; spawn the rest. If a spawn fails
    // partway (thread limits), join what already started before
    // rethrowing — destroying a joinable std::thread would terminate.
    try {
        for (unsigned i = 1; i < threads_; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    } catch (...) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        wake_.notify_all();
        for (std::thread &t : workers_)
            t.join();
        throw;
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            // Only enter a job that is still open: a worker sleeping
            // through an entire job must not wake into its teardown
            // (it would steal a claim index from the next job).
            wake_.wait(lock, [&] {
                return stop_ || (jobOpen_ && generation_ != seen);
            });
            if (stop_)
                return;
            seen = generation_;
            ++activeWorkers_;
        }
        runJob();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --activeWorkers_;
        }
        jobDone_.notify_all();
    }
}

void
ThreadPool::runJob()
{
    const std::uint64_t n = jobSize_;
    for (;;) {
        const std::uint64_t i =
            nextIndex_.fetch_add(1, std::memory_order_relaxed);
        if (i >= n)
            break;
        try {
            (*jobFn_)(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        if (doneCount_.fetch_add(1, std::memory_order_acq_rel) + 1
            == n) {
            // Empty critical section: orders this notify after the
            // caller has actually entered its wait, closing the
            // check-then-sleep window.
            { std::lock_guard<std::mutex> lock(mutex_); }
            jobDone_.notify_all();
        }
    }
}

void
ThreadPool::parallelFor(std::uint64_t n,
                        const std::function<void(std::uint64_t)> &fn)
{
    if (n == 0)
        return;
    if (threads_ <= 1 || n == 1) {
        serialFor(n, fn);
        return;
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        jobSize_ = n;
        jobFn_ = &fn;
        nextIndex_.store(0, std::memory_order_relaxed);
        doneCount_.store(0, std::memory_order_relaxed);
        firstError_ = nullptr;
        jobOpen_ = true;
        ++generation_;
    }
    wake_.notify_all();

    runJob();  // the caller is a lane too

    std::exception_ptr err;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        jobDone_.wait(lock, [&] {
            return doneCount_.load(std::memory_order_acquire) == n
                && activeWorkers_ == 0;
        });
        // Tear the job down while still holding the lock so a worker
        // waking late sees a closed job, not a dangling callable.
        jobOpen_ = false;
        jobFn_ = nullptr;
        jobSize_ = 0;
        err = firstError_;
        firstError_ = nullptr;
    }
    if (err)
        std::rethrow_exception(err);
}

void
parallelFor(unsigned threads, std::uint64_t n,
            const std::function<void(std::uint64_t)> &fn)
{
    const unsigned t = resolveThreads(threads);
    if (t <= 1 || n <= 1) {
        serialFor(n, fn);
        return;
    }
    // No point spawning more lanes than tasks: each extra worker
    // would wake, find the claim counter exhausted, and exit.
    ThreadPool pool(static_cast<unsigned>(
        std::min<std::uint64_t>(t, n)));
    pool.parallelFor(n, fn);
}

} // namespace pifetch
