/**
 * @file
 * Span recorder implementation and Chrome trace-event writer.
 */

#include "tracer.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/results.hh"

namespace simbench {

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMiB()
{
    // VmHWM follows resetPeakRss(); ru_maxrss never resets.
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool
resetPeakRss()
{
    std::ofstream os("/proc/self/clear_refs");
    os << "5";
    os.flush();
    return static_cast<bool>(os);
}

std::uint32_t
Tracer::intern(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = nameIds_.find(name);
    if (it != nameIds_.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(names_.size());
    names_.push_back(name);
    nameIds_.emplace(name, id);
    return id;
}

std::uint32_t
Tracer::laneOfCaller()
{
    const std::thread::id self = std::this_thread::get_id();
    for (std::size_t i = 0; i < laneThreads_.size(); ++i) {
        if (laneThreads_[i] == self)
            return static_cast<std::uint32_t>(i);
    }
    laneThreads_.push_back(self);
    open_.emplace_back();
    return static_cast<std::uint32_t>(laneThreads_.size() - 1);
}

std::int32_t
Tracer::begin(std::uint32_t name, bool sample_cpu, std::int32_t parent)
{
    const double cpu = sample_cpu ? processCpuSeconds() : -1.0;
    std::int32_t id = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const std::uint32_t lane = laneOfCaller();
        std::vector<std::int32_t> &stack = open_[lane];
        Span s;
        s.name = name;
        s.lane = lane;
        s.parent = parent != innermost
                       ? parent
                       : (stack.empty() ? -1 : stack.back());
        s.cpuStart = cpu;
        id = static_cast<std::int32_t>(spans_.size());
        spans_.push_back(s);
        stack.push_back(id);
    }
    // Read the clock last so the bookkeeping above is not inside the
    // interval being measured.
    const std::int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].start = t;
    return id;
}

void
Tracer::end(std::int32_t id)
{
    const std::int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    Span &s = spans_[static_cast<std::size_t>(id)];
    s.end = t;
    if (s.cpuStart >= 0.0)
        s.cpuEnd = processCpuSeconds();
    std::vector<std::int32_t> &stack = open_[s.lane];
    if (!stack.empty() && stack.back() == id)
        stack.pop_back();
}

std::map<std::string, SpanTotals>
Tracer::totals() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::int32_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].parent >= 0)
            children[static_cast<std::size_t>(spans_[i].parent)]
                .push_back(static_cast<std::int32_t>(i));
    }

    std::map<std::string, SpanTotals> out;
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        // Union of the children's intervals, clipped to the span.
        iv.clear();
        for (std::int32_t c : children[i]) {
            const Span &cs = spans_[static_cast<std::size_t>(c)];
            const std::int64_t a = std::max(cs.start, s.start);
            const std::int64_t b = std::min(cs.end, s.end);
            if (b > a)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t cur_a = 0;
        std::int64_t cur_b = -1;
        for (const auto &[a, b] : iv) {
            if (a > cur_b) {
                if (cur_b > cur_a)
                    covered += cur_b - cur_a;
                cur_a = a;
                cur_b = b;
            } else {
                cur_b = std::max(cur_b, b);
            }
        }
        if (cur_b > cur_a)
            covered += cur_b - cur_a;

        SpanTotals &t = out[names_[s.name]];
        const double dur = static_cast<double>(s.end - s.start);
        ++t.count;
        t.totalNs += dur;
        t.selfNs += dur - static_cast<double>(covered);
    }
    return out;
}

std::vector<Span>
Tracer::spansNamed(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> out;
    const auto it = nameIds_.find(name);
    if (it == nameIds_.end())
        return out;
    for (const Span &s : spans_) {
        if (s.name == it->second)
            out.push_back(s);
    }
    return out;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spansNamed(name))
        out.push_back(static_cast<double>(s.end - s.start));
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path,
                         const std::string &process_name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;

    std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
    for (const Span &s : spans_)
        t0 = std::min(t0, s.start);

    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    std::fprintf(f,
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":0,\"args\":{\"name\":\"%s\"}}",
                 pifetch::jsonEscape(process_name).c_str());
    for (std::size_t lane = 0; lane < laneThreads_.size(); ++lane) {
        std::fprintf(f,
                     ",\n{\"name\":\"thread_name\",\"ph\":\"M\","
                     "\"pid\":1,\"tid\":%zu,\"args\":{\"name\":"
                     "\"lane %zu\"}}",
                     lane, lane);
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":"
                     "{\"id\":%zu,\"parent\":%d",
                     pifetch::jsonEscape(names_[s.name]).c_str(), s.lane,
                     static_cast<double>(s.start - t0) / 1e3,
                     static_cast<double>(s.end - s.start) / 1e3, i,
                     s.parent);
        if (s.cpuStart >= 0.0 && s.cpuEnd >= 0.0)
            std::fprintf(f, ",\"cpu_ms\":%.3f",
                         (s.cpuEnd - s.cpuStart) * 1e3);
        std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace simbench
