/**
 * @file
 * Sharded sweep execution: shard runner, journal, merge, scheduler.
 */

#include "sweep/runner.hh"

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "common/parallel.hh"

namespace pifetch {

namespace {

bool
setErr(std::string *err, const std::string &msg)
{
    if (err)
        *err = msg;
    return false;
}

/** FNV-1a over raw bytes (the journal's point-file digest). */
std::uint64_t
bytesDigest(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
digestHex(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** mkdir -p: create @p path and any missing ancestors. */
bool
ensureDir(const std::string &path, std::string *err)
{
    std::string prefix;
    std::size_t pos = 0;
    while (pos <= path.size()) {
        const std::size_t slash = path.find('/', pos);
        prefix = slash == std::string::npos ? path
                                            : path.substr(0, slash);
        pos = slash == std::string::npos ? path.size() + 1 : slash + 1;
        if (prefix.empty() || prefix == ".")
            continue;
        if (mkdir(prefix.c_str(), 0777) != 0 && errno != EEXIST)
            return setErr(err, "cannot create directory " + prefix);
    }
    return true;
}

bool
readFileBytes(const std::string &path, std::string &out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    std::ostringstream buf;
    buf << is.rdbuf();
    out = buf.str();
    return !is.bad();
}

bool
writeFileBytes(const std::string &path, const std::string &bytes,
               std::string *err)
{
    std::ofstream os(path, std::ios::binary);
    os << bytes;
    os.close();
    if (!os)
        return setErr(err, "cannot write " + path);
    return true;
}

/**
 * The PIFETCH_SWEEP_KILL_AFTER self-test hook: nonzero count when the
 * hook targets shard @p k, meaning "SIGKILL after that many points".
 */
std::uint64_t
killAfterForShard(unsigned k)
{
    const char *env = std::getenv("PIFETCH_SWEEP_KILL_AFTER");
    if (!env)
        return 0;
    unsigned shard = 0;
    unsigned long long count = 0;
    if (std::sscanf(env, "%u:%llu", &shard, &count) != 2)
        return 0;
    return shard == k ? count : 0;
}

} // namespace

std::string
sweepManifestPath(const std::string &dir)
{
    return dir + "/manifest.json";
}

std::string
sweepShardDir(const std::string &dir, unsigned k)
{
    return dir + "/shards/shard-" + std::to_string(k);
}

std::string
sweepPointPath(const std::string &dir, const SweepManifest &m,
               std::uint64_t p)
{
    return sweepShardDir(dir, sweepPointShard(p, m.shards)) +
           "/point-" + std::to_string(p) + ".json";
}

std::string
sweepJournalPath(const std::string &dir, unsigned k)
{
    return sweepShardDir(dir, k) + "/journal.jsonl";
}

std::string
sweepMergedPath(const std::string &dir)
{
    return dir + "/merged.json";
}

bool
initSweepDir(const std::string &dir, const SweepManifest &m,
             std::string *err)
{
    if (!ensureDir(dir, err))
        return false;
    return saveManifest(m, sweepManifestPath(dir), err);
}

std::optional<RunOptions>
sweepBaseOptions(const ExperimentSpec &spec, const SweepManifest &m,
                 std::string *err)
{
    RunOptions base;
    base.budget = spec.defaultBudget;
    if (m.warmup)
        base.budget->warmup = *m.warmup;
    if (m.measure)
        base.budget->measure = *m.measure;

    for (const SweepWorkloadRef &w : m.workloads) {
        if (!w.isFile) {
            if (const auto preset = workloadFromName(w.value)) {
                base.workloads.push_back(WorkloadRef(*preset));
                continue;
            }
        }
        // Zoo entries and explicit files both load a spec file.
        std::string path = w.value;
        if (!w.isFile) {
            const auto entry = findZooEntry(w.value);
            if (!entry) {
                setErr(err, "unknown workload '" + w.value + "'");
                return std::nullopt;
            }
            path = entry->path;
        }
        std::string spec_err;
        auto loaded = loadWorkloadSpecFile(path, &spec_err);
        if (!loaded) {
            setErr(err, spec_err);
            return std::nullopt;
        }
        base.workloads.push_back(workloadRefFromSpec(std::move(*loaded)));
    }

    for (const auto &[key, value] : m.overrides) {
        if (!applyConfigOverride(base.cfg, key, value)) {
            setErr(err, "bad config override " + key + "=" + value);
            return std::nullopt;
        }
    }
    return base;
}

ResultValue
runSweepPoint(const ExperimentSpec &spec, const RunOptions &base,
              const SweepManifest &m, std::uint64_t p)
{
    RunOptions point = base;
    point.cfg.threads = 1;
    for (const auto &[key, value] : sweepPointParams(m, p)) {
        if (!applyConfigOverride(point.cfg, key, value))
            panic("sweep point " + key + "=" + value +
                  " skipped validateSweepGrid");
    }
    return runExperiment(spec, point);
}

ResultValue
assembleSweepDoc(const SweepManifest &m, std::vector<ResultValue> docs)
{
    ResultValue runs = ResultValue::array();
    for (std::uint64_t p = 0; p < docs.size(); ++p) {
        ResultValue params = ResultValue::object();
        for (const auto &[key, value] : sweepPointParams(m, p))
            params.set(key, value);
        ResultValue entry = ResultValue::object();
        entry.set("params", std::move(params));
        entry.set("result", std::move(docs[p]));
        runs.push(std::move(entry));
    }
    ResultValue doc = ResultValue::object();
    doc.set("experiment", m.experiment);
    doc.set("sweep", true);
    doc.set("points", sweepPointCount(m));
    doc.set("runs", std::move(runs));
    return doc;
}

std::vector<std::uint64_t>
journaledCompletePoints(const std::string &dir, const SweepManifest &m,
                        unsigned k)
{
    std::vector<std::uint64_t> complete;
    std::ifstream is(sweepJournalPath(dir, k), std::ios::binary);
    if (!is)
        return complete;

    const std::uint64_t total = sweepPointCount(m);
    std::set<std::uint64_t> seen;
    std::string line;
    while (std::getline(is, line)) {
        // Each line must parse, name a point this shard owns, and
        // match the point file's actual bytes. A torn final line from
        // a crash, a truncated file, or a hand-edited digest all fall
        // through to "not complete" and the point re-runs.
        const auto doc = parseJson(line);
        if (!doc)
            continue;
        const ResultValue *point = doc->find("point");
        const ResultValue *digest = doc->find("digest");
        if (!point || point->kind() != ResultValue::Kind::Uint ||
            !digest || digest->kind() != ResultValue::Kind::String)
            continue;
        const std::uint64_t p = point->uintValue();
        if (p >= total || sweepPointShard(p, m.shards) != k ||
            seen.count(p))
            continue;
        std::string bytes;
        if (!readFileBytes(sweepPointPath(dir, m, p), bytes))
            continue;
        if (digestHex(bytesDigest(bytes)) != digest->str())
            continue;
        seen.insert(p);
        complete.push_back(p);
    }
    return complete;
}

bool
runSweepShard(const std::string &dir, const SweepManifest &m,
              unsigned k, bool resume, std::string *err)
{
    if (k >= m.shards)
        return setErr(err, "shard " + std::to_string(k) +
                           " out of range (" +
                           std::to_string(m.shards) + " shards)");
    const ExperimentSpec *spec = findExperiment(m.experiment);
    if (!spec)
        return setErr(err, "unknown experiment '" + m.experiment + "'");
    const auto base = sweepBaseOptions(*spec, m, err);
    if (!base)
        return false;
    if (!ensureDir(sweepShardDir(dir, k), err))
        return false;

    std::set<std::uint64_t> done;
    if (resume) {
        for (const std::uint64_t p : journaledCompletePoints(dir, m, k))
            done.insert(p);
    }

    // Append when resuming (the valid prefix stays authoritative);
    // truncate on a fresh run so stale entries cannot satisfy a
    // future resume.
    std::FILE *journal = std::fopen(sweepJournalPath(dir, k).c_str(),
                                    resume ? "ab" : "wb");
    if (!journal)
        return setErr(err, "cannot open " + sweepJournalPath(dir, k));

    const std::uint64_t kill_after = killAfterForShard(k);
    std::uint64_t completed = 0;
    for (const std::uint64_t p : sweepShardPoints(m, k)) {
        if (done.count(p))
            continue;
        const ResultValue doc = runSweepPoint(*spec, *base, m, p);
        const std::string bytes = toJson(doc, 2) + "\n";
        if (!writeFileBytes(sweepPointPath(dir, m, p), bytes, err)) {
            std::fclose(journal);
            return false;
        }
        // Journal only after the point file is durably closed: a
        // crash between the two leaves an unjournaled (re-runnable)
        // point, never a journaled lie.
        const std::string line =
            "{\"point\":" + std::to_string(p) + ",\"digest\":\"" +
            digestHex(bytesDigest(bytes)) + "\"}\n";
        if (std::fwrite(line.data(), 1, line.size(), journal) !=
                line.size() ||
            std::fflush(journal) != 0) {
            std::fclose(journal);
            return setErr(err, "cannot append to " +
                                   sweepJournalPath(dir, k));
        }
        ++completed;
        if (kill_after != 0 && completed >= kill_after) {
            // Self-test hook: die exactly as a crashed worker would —
            // no cleanup, no flushing beyond what already happened.
            std::raise(SIGKILL);
        }
    }
    if (std::fclose(journal) != 0)
        return setErr(err, "cannot close " + sweepJournalPath(dir, k));
    return true;
}

std::optional<ResultValue>
mergeShardedSweep(const std::string &dir, const SweepManifest &m,
                  std::string *err)
{
    const std::uint64_t total = sweepPointCount(m);
    std::vector<ResultValue> docs(total);
    for (std::uint64_t p = 0; p < total; ++p) {
        const std::string path = sweepPointPath(dir, m, p);
        std::string bytes;
        if (!readFileBytes(path, bytes)) {
            setErr(err, "point " + std::to_string(p) + " (shard " +
                       std::to_string(sweepPointShard(p, m.shards)) +
                       ") has no result at " + path +
                       "; re-run with --resume");
            return std::nullopt;
        }
        std::string parse_err;
        auto doc = parseJson(bytes, &parse_err);
        if (!doc) {
            setErr(err, path + ": " + parse_err +
                       "; re-run with --resume");
            return std::nullopt;
        }
        docs[p] = std::move(*doc);
    }
    return assembleSweepDoc(m, std::move(docs));
}

bool
runShardedSweep(const std::string &dir, const SweepManifest &m,
                const std::string &exe, unsigned threads, bool resume,
                std::string *err)
{
    const unsigned width = std::max(
        1u, std::min(resolveThreads(threads), m.shards));

    std::vector<std::pair<pid_t, unsigned>> running;
    std::vector<unsigned> failed;
    unsigned next = 0;
    while (next < m.shards || !running.empty()) {
        while (running.size() < width && next < m.shards) {
            const unsigned k = next++;
            const std::string shard_arg = std::to_string(k);
            const pid_t pid = fork();
            if (pid < 0)
                return setErr(err, "fork failed launching shard " +
                                       shard_arg);
            if (pid == 0) {
                std::vector<const char *> args = {
                    exe.c_str(), "sweep", "--dir", dir.c_str(),
                    "--shard", shard_arg.c_str()};
                if (resume)
                    args.push_back("--resume");
                args.push_back(nullptr);
                execv(exe.c_str(),
                      const_cast<char *const *>(args.data()));
                // Only reached when exec itself failed.
                std::fprintf(stderr, "pifetch sweep: cannot exec %s\n",
                             exe.c_str());
                _exit(127);
            }
            running.emplace_back(pid, k);
        }

        int status = 0;
        const pid_t pid = waitpid(-1, &status, 0);
        if (pid < 0)
            return setErr(err, "waitpid failed");
        const auto it = std::find_if(
            running.begin(), running.end(),
            [pid](const auto &r) { return r.first == pid; });
        if (it == running.end())
            continue;
        const unsigned k = it->second;
        running.erase(it);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            failed.push_back(k);
    }

    if (!failed.empty()) {
        std::sort(failed.begin(), failed.end());
        std::string msg = "shard";
        if (failed.size() > 1)
            msg += "s";
        for (const unsigned k : failed)
            msg += " " + std::to_string(k);
        msg += " did not complete (crashed or exited nonzero); "
               "completed points are "
               "journaled — re-run with --resume";
        return setErr(err, msg);
    }
    return true;
}

std::string
selfExePath()
{
    char buf[4096];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return "";
    buf[n] = '\0';
    return buf;
}

} // namespace pifetch
