/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * The benchmark times every simulator layer from outside: it opens a
 * span around each of its own calls into a public entry point
 * (runExperiment, Executor::nextBatch, TraceEngine::replayBatch, ...).
 * Spans carry a name, start, end, parent and lane (the thread that
 * recorded them, numbered in order of first appearance), stay in
 * memory while the run lasts, and are written once at exit as Chrome
 * trace-event JSON, which Perfetto's UI and trace_processor open.
 *
 * A span's self time is its duration minus the part of it that its
 * children cover (the union of their intervals, so children recorded
 * on several lanes are not double counted).
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace simbench {

/** Host monotonic time in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU time of the whole process (user + system, all threads), s. */
double processCpuSeconds();

/**
 * Peak resident set size of the process since start or since the last
 * successful resetPeakRss(), MiB.
 */
double peakRssMiB();

/** Reset the peak resident set to the current one (false if unsupported). */
bool resetPeakRss();

/** One recorded interval. */
struct Span
{
    std::uint32_t name = 0;   //!< index into the tracer's name table
    std::uint32_t lane = 0;   //!< recording thread, first-seen order
    std::int32_t parent = -1; //!< enclosing span, -1 at top level
    std::int64_t start = 0;   //!< ns, nowNs() clock
    std::int64_t end = 0;
    double cpuStart = -1.0;   //!< process CPU s at start (-1: unsampled)
    double cpuEnd = -1.0;
};

/** Per-name aggregate over all closed spans. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double totalNs = 0.0;
    double selfNs = 0.0;
};

/**
 * Thread-safe span recorder. begin()/end() nest per thread; a span may
 * also name its parent explicitly (a pool task whose logical parent is
 * the caller's open span on another lane).
 */
class Tracer
{
  public:
    /** Sentinel parent: the calling thread's innermost open span. */
    static constexpr std::int32_t innermost = -2;

    /** Name id for @p name (interned once, cheap to reuse). */
    std::uint32_t intern(const std::string &name);

    /**
     * Open a span; returns its id. With @p sample_cpu the span also
     * records process CPU time at both ends.
     */
    std::int32_t begin(std::uint32_t name, bool sample_cpu = false,
                       std::int32_t parent = innermost);
    std::int32_t
    begin(const std::string &name, bool sample_cpu = false,
          std::int32_t parent = innermost)
    {
        return begin(intern(name), sample_cpu, parent);
    }

    /** Close span @p id (must be the calling thread's innermost). */
    void end(std::int32_t id);

    /** Count, total and self time per span name. */
    std::map<std::string, SpanTotals> totals() const;

    /** Every closed span called @p name, in begin order. */
    std::vector<Span> spansNamed(const std::string &name) const;

    /** Durations (ns) of every closed span called @p name. */
    std::vector<double> durations(const std::string &name) const;

    /**
     * Write every span as Chrome trace-event JSON ("X" events, one
     * track per lane, timestamps in microseconds from the first span).
     * Returns false when the file cannot be written.
     */
    bool writeChromeTrace(const std::string &path,
                          const std::string &process_name) const;

  private:
    std::uint32_t laneOfCaller();

    mutable std::mutex mutex_;
    std::vector<std::string> names_;
    std::unordered_map<std::string, std::uint32_t> nameIds_;
    std::vector<Span> spans_;
    std::vector<std::thread::id> laneThreads_;
    std::vector<std::vector<std::int32_t>> open_;  //!< per-lane stacks
};

/** RAII span; a null tracer records nothing (the untraced path). */
class Scope
{
  public:
    Scope(Tracer *tracer, std::uint32_t name, bool sample_cpu = false,
          std::int32_t parent = Tracer::innermost)
        : tracer_(tracer),
          id_(tracer ? tracer->begin(name, sample_cpu, parent) : -1)
    {}
    Scope(Tracer *tracer, const std::string &name,
          bool sample_cpu = false, std::int32_t parent = Tracer::innermost)
        : tracer_(tracer),
          id_(tracer ? tracer->begin(name, sample_cpu, parent) : -1)
    {}
    ~Scope()
    {
        if (tracer_)
            tracer_->end(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::int32_t id() const { return id_; }

  private:
    Tracer *tracer_;
    std::int32_t id_;
};

} // namespace simbench
