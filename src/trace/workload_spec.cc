/**
 * @file
 * Workload-spec parsing, validation, lowering and the spec zoo.
 */

#include "trace/workload_spec.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "trace/server_suite.hh"

namespace pifetch {

namespace {

constexpr std::uint64_t goldenRatio = 0x9e3779b97f4a7c15ull;

/** Optional interrupt-rate member: present values must be in range. */
void
getRate(const MemberReader &read, const char *key, double &out)
{
    if (!read.obj.find(key))
        return;
    double v = 0.0;
    read(key, v);
    if (!read.st.ok())
        return;
    if (v < 0.0 || v > 0.01) {
        read.st.fail(read.where + " member '" + key +
                     "' must be in [0, 0.01]");
        return;
    }
    out = v;
}

bool
isSlug(const std::string &s)
{
    if (s.empty() || s.size() > 64)
        return false;
    for (char c : s) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                        c == '-' || c == '_';
        if (!ok)
            return false;
    }
    return true;
}

/** Index of a program by name, or nprogs when absent. */
std::size_t
programIndex(const WorkloadSpec &spec, const std::string &name)
{
    for (std::size_t i = 0; i < spec.programs.size(); ++i) {
        if (spec.programs[i].name == name)
            return i;
    }
    return spec.programs.size();
}

/** Effective per-program weights of a phase (uniform when empty). */
std::vector<double>
effectiveMix(const WorkloadSpec &spec, const WorkloadSpecPhase &ph)
{
    std::vector<double> w(spec.programs.size(), 0.0);
    if (ph.mix.empty()) {
        std::fill(w.begin(), w.end(), 1.0);
        return w;
    }
    for (const auto &m : ph.mix)
        w[programIndex(spec, m.first)] = m.second;
    return w;
}

/** Mix-weighted average of the programs' base interrupt rates. */
double
blendRate(const WorkloadSpec &spec, const std::vector<double> &weights)
{
    double sum = 0.0;
    double rate = 0.0;
    for (std::size_t i = 0; i < spec.programs.size(); ++i) {
        sum += weights[i];
        rate += weights[i] * spec.programs[i].params.interruptRate;
    }
    return sum > 0.0 ? rate / sum : 0.0;
}

} // namespace

std::optional<std::string>
validateWorkloadSpec(const WorkloadSpec &spec)
{
    if (!isSlug(spec.name)) {
        return std::string("spec name must be a slug of [a-z0-9_-], "
                           "1-64 chars");
    }
    if (spec.programs.empty())
        return std::string("spec has no programs");
    if (spec.programs.size() > specMaxPrograms) {
        return std::string("spec has more than ") +
               std::to_string(specMaxPrograms) + " programs";
    }
    if (spec.phases.size() > specMaxPhases) {
        return std::string("spec has more than ") +
               std::to_string(specMaxPhases) + " phases";
    }

    for (std::size_t i = 0; i < spec.programs.size(); ++i) {
        const WorkloadSpecProgram &pr = spec.programs[i];
        if (pr.name.empty())
            return std::string("program ") + std::to_string(i) +
                   " has no name";
        for (std::size_t j = 0; j < i; ++j) {
            if (spec.programs[j].name == pr.name)
                return "duplicate program name '" + pr.name + "'";
        }
        if (!pr.base.empty() && !workloadFromName(pr.base))
            return "program '" + pr.name + "': unknown base preset '" +
                   pr.base + "'";
        if (auto bad = validateWorkloadParams(pr.params))
            return *bad;
    }

    for (std::size_t i = 0; i < spec.phases.size(); ++i) {
        const WorkloadSpecPhase &ph = spec.phases[i];
        const std::string where = "phase '" + ph.name + "'";
        if (ph.name.empty())
            return std::string("phase ") + std::to_string(i) +
                   " has no name";
        for (std::size_t j = 0; j < i; ++j) {
            if (spec.phases[j].name == ph.name)
                return "duplicate phase name '" + ph.name + "'";
        }
        if (ph.instructions < specMinPhaseInstrs ||
            ph.instructions > specMaxPhaseInstrs) {
            return where + ": instructions must be in [" +
                   std::to_string(specMinPhaseInstrs) + ", " +
                   std::to_string(specMaxPhaseInstrs) + "]";
        }
        double mixSum = ph.mix.empty() ? 1.0 : 0.0;
        for (std::size_t m = 0; m < ph.mix.size(); ++m) {
            const auto &entry = ph.mix[m];
            if (programIndex(spec, entry.first) >= spec.programs.size())
                return where + ": mix references unknown program '" +
                       entry.first + "'";
            for (std::size_t n = 0; n < m; ++n) {
                if (ph.mix[n].first == entry.first)
                    return where + ": duplicate mix program '" +
                           entry.first + "'";
            }
            if (!std::isfinite(entry.second) || entry.second < 0.0)
                return where + ": mix weight for '" + entry.first +
                       "' must be finite and >= 0";
            mixSum += entry.second;
        }
        if (mixSum <= 0.0)
            return where + ": mix weights sum to zero";
        if (ph.interruptRate > 0.01)
            return where + ": interruptRate above 0.01";
        if (ph.interruptRateEnd > 0.01)
            return where + ": interruptRateEnd above 0.01";
    }

    return std::nullopt;
}

ResultValue
specToResult(const WorkloadSpec &spec)
{
    ResultValue doc = ResultValue::object();
    doc.set("name", spec.name);
    doc.set("title", spec.title.empty() ? spec.name : spec.title);
    doc.set("group", spec.group);
    doc.set("description", spec.description);
    doc.set("seed", spec.seed);

    ResultValue programs = ResultValue::array();
    for (const WorkloadSpecProgram &pr : spec.programs) {
        ResultValue params = ResultValue::object();
        forEachWorkloadParam(pr.params, [&](const char *key,
                                            const auto &value) {
            params.set(key, value);
        });
        ResultValue p = ResultValue::object();
        p.set("name", pr.name);
        p.set("base", pr.base);
        p.set("params", std::move(params));
        programs.push(std::move(p));
    }
    doc.set("programs", std::move(programs));

    ResultValue phases = ResultValue::array();
    for (const WorkloadSpecPhase &ph : spec.phases) {
        ResultValue p = ResultValue::object();
        p.set("name", ph.name);
        p.set("instructions", ph.instructions);
        ResultValue mix = ResultValue::object();
        const std::vector<double> weights = effectiveMix(spec, ph);
        for (std::size_t i = 0; i < spec.programs.size(); ++i)
            mix.set(spec.programs[i].name, weights[i]);
        p.set("mix", std::move(mix));
        const double rate = ph.interruptRate >= 0.0
                                ? ph.interruptRate
                                : blendRate(spec, weights);
        p.set("interruptRate", rate);
        if (ph.interruptRateEnd >= 0.0)
            p.set("interruptRateEnd", ph.interruptRateEnd);
        phases.push(std::move(p));
    }
    doc.set("phases", std::move(phases));
    return doc;
}

std::optional<WorkloadSpec>
workloadSpecFromResult(const ResultValue &doc, std::string *err)
{
    Strict st;
    WorkloadSpec spec;

    if (doc.kind() != ResultValue::Kind::Object) {
        if (err)
            *err = "workload spec root must be a JSON object";
        return std::nullopt;
    }
    const MemberReader root{doc, "spec", st};
    root.only({"name", "title", "group", "description", "seed",
               "programs", "phases"});
    root("name", spec.name);
    if (st.ok() && spec.name.empty())
        st.fail("spec: missing required member 'name'");
    root("title", spec.title);
    root("group", spec.group);
    root("description", spec.description);
    root("seed", spec.seed);

    const ResultValue *programs = doc.find("programs");
    if (!programs || programs->kind() != ResultValue::Kind::Array ||
        programs->size() == 0) {
        st.fail("spec: 'programs' must be a non-empty array");
    }
    for (std::size_t i = 0; st.ok() && programs && i < programs->size();
         ++i) {
        const ResultValue &node = programs->at(i);
        const std::string where =
            "programs[" + std::to_string(i) + "]";
        if (!requireObject(&node, where, st))
            break;
        const MemberReader read{node, where, st};
        read.only({"name", "base", "params"});

        WorkloadSpecProgram pr;
        read("name", pr.name);
        if (st.ok() && pr.name.empty())
            st.fail(where + ": missing required member 'name'");
        read("base", pr.base);
        if (!st.ok())
            break;

        if (!pr.base.empty()) {
            const auto w = workloadFromName(pr.base);
            if (!w) {
                st.fail("program '" + pr.name +
                        "': unknown base preset '" + pr.base + "'");
                break;
            }
            pr.params = workloadParams(*w);
        } else {
            // Seedless bespoke programs draw distinct seeds from the
            // spec seed so sibling programs never generate identical
            // code by accident.
            pr.params.seed =
                spec.seed + (static_cast<std::uint64_t>(i) + 1) *
                                goldenRatio;
        }
        // Every knob is addressable except `name`, which mirrors the
        // program name.
        const ResultValue *params = node.find("params");
        if (params && requireObject(params, where + ".params", st)) {
            const MemberReader knobs{*params, where + ".params", st};
            knobs.only(workloadParamKeys());
            forEachWorkloadParam(pr.params, knobs);
        }
        pr.params.name = pr.name;
        spec.programs.push_back(std::move(pr));
    }

    const ResultValue *phases = doc.find("phases");
    if (phases && phases->kind() != ResultValue::Kind::Array)
        st.fail("spec: 'phases' must be an array");
    for (std::size_t i = 0; st.ok() && phases && i < phases->size();
         ++i) {
        const ResultValue &node = phases->at(i);
        const std::string where = "phases[" + std::to_string(i) + "]";
        if (!requireObject(&node, where, st))
            break;
        const MemberReader read{node, where, st};
        read.only({"name", "instructions", "mix", "interruptRate",
                   "interruptRateEnd"});

        WorkloadSpecPhase ph;
        read("name", ph.name);
        if (st.ok() && ph.name.empty())
            st.fail(where + ": missing required member 'name'");
        if (st.ok() && !node.find("instructions"))
            st.fail(where + ": missing required member 'instructions'");
        read("instructions", ph.instructions);
        getRate(read, "interruptRate", ph.interruptRate);
        getRate(read, "interruptRateEnd", ph.interruptRateEnd);
        if (const ResultValue *mix = node.find("mix")) {
            if (requireObject(mix, where + ".mix", st)) {
                for (std::size_t m = 0; m < mix->size(); ++m) {
                    const auto &member = mix->member(m);
                    if (!member.second.isNumber()) {
                        st.fail(where + ".mix member '" + member.first +
                                "' must be a number");
                        break;
                    }
                    ph.mix.emplace_back(member.first,
                                        member.second.number());
                }
            }
        }
        spec.phases.push_back(std::move(ph));
    }

    if (!st.ok()) {
        if (err)
            *err = st.err;
        return std::nullopt;
    }
    if (auto bad = validateWorkloadSpec(spec)) {
        if (err)
            *err = *bad;
        return std::nullopt;
    }
    if (spec.title.empty())
        spec.title = spec.name;
    return spec;
}

std::optional<WorkloadSpec>
parseWorkloadSpec(const std::string &text, std::string *err)
{
    std::string parse_err;
    const auto doc = parseJson(text, &parse_err);
    if (!doc) {
        if (err)
            *err = "invalid JSON: " + parse_err;
        return std::nullopt;
    }
    return workloadSpecFromResult(*doc, err);
}

std::optional<WorkloadSpec>
loadWorkloadSpecFile(const std::string &path, std::string *err)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        if (err)
            *err = path + ": cannot open";
        return std::nullopt;
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    std::string inner;
    const auto spec = parseWorkloadSpec(ss.str(), &inner);
    if (!spec && err)
        *err = path + ": " + inner;
    return spec;
}

Program
linkPrograms(const std::vector<Program> &parts)
{
    if (parts.empty())
        panic("linkPrograms: no parts");
    if (parts.size() == 1) {
        // Single-program specs stay byte-identical to a direct build.
        Program merged = parts.front();
        merged.validate();
        return merged;
    }

    Program merged;
    Addr code_end = 0;
    std::uint32_t fn_off = 0;
    for (const Program &part : parts) {
        Addr delta = 0;
        if (!merged.functions.empty()) {
            Addr part_base = part.functions.front().entry;
            for (const Function &fn : part.functions)
                part_base = std::min(part_base, fn.entry);
            const Addr new_base =
                (code_end + blockBytes - 1) & ~(blockBytes - 1);
            delta = new_base - part_base;  // wrap-safe unsigned offset
        }
        for (const Function &fn : part.functions) {
            Function moved = fn;
            moved.entry += delta;
            for (BasicBlock &blk : moved.blocks) {
                blk.start += delta;
                if (blk.term == BlockTerm::Call)
                    blk.callee += fn_off;
            }
            merged.functions.push_back(std::move(moved));
        }
        for (std::uint32_t r : part.transactionRoots)
            merged.transactionRoots.push_back(r + fn_off);
        merged.transactionWeights.insert(merged.transactionWeights.end(),
                                         part.transactionWeights.begin(),
                                         part.transactionWeights.end());
        for (std::uint32_t h : part.handlers)
            merged.handlers.push_back(h + fn_off);
        code_end = std::max(code_end, part.codeEnd + delta);
        fn_off += static_cast<std::uint32_t>(part.functions.size());
    }
    merged.dispatcher = parts.front().dispatcher;
    merged.codeEnd = code_end;
    merged.validate();
    return merged;
}

WorkloadParams
LoweredWorkload::params(std::size_t idx, std::uint64_t seed_offset) const
{
    WorkloadParams p = spec.programs.at(idx).params;
    // Additive fold: offset 0 preserves the resolved seed exactly, so
    // a base-only spec builds the same Program as its preset.
    p.seed += seed_offset * goldenRatio;
    return p;
}

Program
LoweredWorkload::build(std::uint64_t seed_offset) const
{
    std::vector<Program> parts;
    parts.reserve(spec.programs.size());
    for (std::size_t i = 0; i < spec.programs.size(); ++i)
        parts.push_back(WorkloadGenerator::build(params(i, seed_offset)));
    return linkPrograms(parts);
}

std::vector<std::uint32_t>
LoweredWorkload::rootSpans() const
{
    std::vector<std::uint32_t> spans;
    spans.reserve(spec.programs.size());
    for (const WorkloadSpecProgram &pr : spec.programs)
        spans.push_back(pr.params.transactions);
    return spans;
}

double
LoweredWorkload::blendedInterruptRate() const
{
    const std::vector<double> uniform(spec.programs.size(), 1.0);
    return blendRate(spec, uniform);
}

std::vector<ExecutorPhase>
LoweredWorkload::executorPhases() const
{
    std::vector<ExecutorPhase> out;
    if (spec.phases.empty()) {
        if (spec.programs.size() <= 1)
            return out;  // classic single-mix dispatch, bit-identical
        // Multi-program steady state: one synthetic uniform phase.
        ExecutorPhase ph;
        ph.instructions = 1'000'000;
        ph.interruptRate = blendedInterruptRate();
        out.push_back(std::move(ph));
        return out;
    }
    for (const WorkloadSpecPhase &sp : spec.phases) {
        ExecutorPhase ph;
        ph.instructions = sp.instructions;
        ph.programMix = effectiveMix(spec, sp);
        ph.interruptRate = sp.interruptRate >= 0.0
                               ? sp.interruptRate
                               : blendRate(spec, ph.programMix);
        ph.interruptRateEnd = sp.interruptRateEnd;
        out.push_back(std::move(ph));
    }
    return out;
}

LoweredWorkload
lowerWorkloadSpec(WorkloadSpec spec)
{
    if (auto bad = validateWorkloadSpec(spec))
        panic("lowerWorkloadSpec: " + *bad);
    if (spec.title.empty())
        spec.title = spec.name;
    LoweredWorkload lw;
    lw.spec = std::move(spec);
    return lw;
}

std::string
workloadZooDir()
{
    if (const char *env = std::getenv("PIFETCH_WORKLOAD_DIR")) {
        if (*env)
            return env;
    }
#ifdef PIFETCH_WORKLOAD_DIR
    return PIFETCH_WORKLOAD_DIR;
#else
    return "workloads";
#endif
}

std::vector<WorkloadZooEntry>
workloadZoo()
{
    namespace fs = std::filesystem;
    std::vector<WorkloadZooEntry> zoo;
    std::error_code ec;
    fs::directory_iterator it(workloadZooDir(), ec);
    if (ec)
        return zoo;
    for (const fs::directory_entry &entry : it) {
        if (!entry.is_regular_file(ec) ||
            entry.path().extension() != ".json") {
            continue;
        }
        const auto spec =
            loadWorkloadSpecFile(entry.path().string(), nullptr);
        if (!spec)
            continue;
        zoo.push_back(WorkloadZooEntry{spec->name, entry.path().string(),
                                       spec->title, spec->description});
    }
    std::sort(zoo.begin(), zoo.end(),
              [](const WorkloadZooEntry &a, const WorkloadZooEntry &b) {
                  return a.key != b.key ? a.key < b.key
                                        : a.path < b.path;
              });
    zoo.erase(std::unique(zoo.begin(), zoo.end(),
                          [](const WorkloadZooEntry &a,
                             const WorkloadZooEntry &b) {
                              return a.key == b.key;
                          }),
              zoo.end());
    return zoo;
}

std::optional<WorkloadZooEntry>
findZooEntry(const std::string &key)
{
    for (const WorkloadZooEntry &e : workloadZoo()) {
        if (e.key == key)
            return e;
    }
    return std::nullopt;
}

} // namespace pifetch
