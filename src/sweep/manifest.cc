/**
 * @file
 * Sweep manifest serialization and grid arithmetic.
 */

#include "sweep/manifest.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "sim/registry.hh"

namespace pifetch {

namespace {

constexpr const char *manifestSchema = "pifetch-sweep-manifest-v1";

bool
setErr(std::string *err, const std::string &msg)
{
    if (err)
        *err = msg;
    return false;
}

/** Member of @p doc as a string, or nullopt. */
std::optional<std::string>
memberString(const ResultValue &doc, const std::string &key)
{
    const ResultValue *v = doc.find(key);
    if (!v || v->kind() != ResultValue::Kind::String)
        return std::nullopt;
    return v->str();
}

/** Member of @p doc as a non-negative integer, or nullopt. */
std::optional<std::uint64_t>
memberUint(const ResultValue &doc, const std::string &key)
{
    const ResultValue *v = doc.find(key);
    if (!v || v->kind() != ResultValue::Kind::Uint)
        return std::nullopt;
    return v->uintValue();
}

} // namespace

std::uint64_t
sweepPointCount(const SweepManifest &m)
{
    if (m.axes.empty())
        return 0;
    std::uint64_t points = 1;
    for (const SweepAxis &axis : m.axes)
        points *= axis.values.size();
    return points;
}

std::vector<std::pair<std::string, std::string>>
sweepPointParams(const SweepManifest &m, std::uint64_t p)
{
    // Mixed-radix decode, last axis fastest (the CLI's historical
    // cartesian order): peel digits from the innermost axis outward,
    // then restore declaration order.
    std::vector<std::pair<std::string, std::string>> params;
    params.reserve(m.axes.size());
    std::uint64_t rest = p;
    for (auto it = m.axes.rbegin(); it != m.axes.rend(); ++it) {
        const std::uint64_t n = it->values.size();
        params.emplace_back(it->key, it->values[rest % n]);
        rest /= n;
    }
    std::reverse(params.begin(), params.end());
    return params;
}

unsigned
sweepPointShard(std::uint64_t p, unsigned shards)
{
    return shards == 0 ? 0 : static_cast<unsigned>(p % shards);
}

std::vector<std::uint64_t>
sweepShardPoints(const SweepManifest &m, unsigned k)
{
    std::vector<std::uint64_t> points;
    const std::uint64_t total = sweepPointCount(m);
    for (std::uint64_t p = k; p < total; p += m.shards)
        points.push_back(p);
    return points;
}

std::optional<std::string>
validateSweepGrid(const SweepManifest &m, const SystemConfig &base)
{
    std::uint64_t points = 1;
    for (const SweepAxis &axis : m.axes) {
        if (axis.key == "threads") {
            return std::string("'threads' is not sweepable (results "
                               "are thread-invariant); use --threads "
                               "for the fan-out width");
        }
        // Bounded before each multiply, so the product cannot wrap and
        // checking every point below stays cheap.
        points *= axis.values.size();
        if (points > (std::uint64_t{1} << 20))
            return std::string("sweep grid above 2^20 points");
    }
    for (std::uint64_t p = 0; p < points; ++p) {
        SystemConfig cfg = base;
        std::string label;
        for (const auto &[key, value] : sweepPointParams(m, p)) {
            if (!applyConfigOverride(cfg, key, value))
                return "bad sweep value " + key + "=" + value;
            label += (label.empty() ? "" : " ") + key + "=" + value;
        }
        if (const auto err = validateSystemConfig(cfg))
            return "sweep point " + label + ": " + *err;
    }
    return std::nullopt;
}

ResultValue
manifestToResult(const SweepManifest &m)
{
    ResultValue doc = ResultValue::object();
    doc.set("schema", manifestSchema);
    doc.set("experiment", m.experiment);

    ResultValue axes = ResultValue::array();
    for (const SweepAxis &axis : m.axes) {
        ResultValue values = ResultValue::array();
        for (const std::string &v : axis.values)
            values.push(v);
        ResultValue entry = ResultValue::object();
        entry.set("key", axis.key);
        entry.set("values", std::move(values));
        axes.push(std::move(entry));
    }
    doc.set("axes", std::move(axes));
    doc.set("points", sweepPointCount(m));
    doc.set("shards", static_cast<std::uint64_t>(m.shards));

    ResultValue workloads = ResultValue::array();
    for (const SweepWorkloadRef &w : m.workloads) {
        ResultValue entry = ResultValue::object();
        entry.set(w.isFile ? "file" : "name", w.value);
        workloads.push(std::move(entry));
    }
    doc.set("workloads", std::move(workloads));

    ResultValue overrides = ResultValue::array();
    for (const auto &[key, value] : m.overrides) {
        ResultValue entry = ResultValue::object();
        entry.set("key", key);
        entry.set("value", value);
        overrides.push(std::move(entry));
    }
    doc.set("overrides", std::move(overrides));

    if (m.warmup)
        doc.set("warmup", *m.warmup);
    if (m.measure)
        doc.set("measure", *m.measure);
    return doc;
}

std::optional<SweepManifest>
manifestFromResult(const ResultValue &doc, std::string *err)
{
    const auto bad = [&](const std::string &msg)
        -> std::optional<SweepManifest> {
        setErr(err, "sweep manifest: " + msg);
        return std::nullopt;
    };

    const auto schema = memberString(doc, "schema");
    if (!schema || *schema != manifestSchema)
        return bad("unknown schema (want " +
                   std::string(manifestSchema) + ")");

    SweepManifest m;
    const auto experiment = memberString(doc, "experiment");
    if (!experiment || experiment->empty())
        return bad("missing experiment name");
    m.experiment = *experiment;

    const ResultValue *axes = doc.find("axes");
    if (!axes || axes->kind() != ResultValue::Kind::Array ||
        axes->size() == 0)
        return bad("missing or empty axes");
    for (std::size_t i = 0; i < axes->size(); ++i) {
        const ResultValue &entry = axes->at(i);
        SweepAxis axis;
        const auto key = memberString(entry, "key");
        if (!key || key->empty())
            return bad("axis " + std::to_string(i) + " has no key");
        axis.key = *key;
        const ResultValue *values = entry.find("values");
        if (!values || values->kind() != ResultValue::Kind::Array ||
            values->size() == 0)
            return bad("axis '" + axis.key + "' has no values");
        for (std::size_t j = 0; j < values->size(); ++j) {
            if (values->at(j).kind() != ResultValue::Kind::String)
                return bad("axis '" + axis.key +
                           "' has a non-string value");
            axis.values.push_back(values->at(j).str());
        }
        m.axes.push_back(std::move(axis));
    }

    const auto shards = memberUint(doc, "shards");
    if (!shards || *shards == 0 || *shards > 1u << 20)
        return bad("shards must be an integer >= 1");
    m.shards = static_cast<unsigned>(*shards);

    const auto points = memberUint(doc, "points");
    if (!points || *points != sweepPointCount(m))
        return bad("point count disagrees with the axes (stated " +
                   std::to_string(points ? *points : 0) + ", axes "
                   "give " + std::to_string(sweepPointCount(m)) + ")");

    if (const ResultValue *workloads = doc.find("workloads")) {
        if (workloads->kind() != ResultValue::Kind::Array)
            return bad("workloads must be an array");
        for (std::size_t i = 0; i < workloads->size(); ++i) {
            const ResultValue &entry = workloads->at(i);
            SweepWorkloadRef w;
            if (const auto name = memberString(entry, "name")) {
                w.value = *name;
            } else if (const auto file = memberString(entry, "file")) {
                w.value = *file;
                w.isFile = true;
            } else {
                return bad("workload " + std::to_string(i) +
                           " needs a name or file member");
            }
            m.workloads.push_back(std::move(w));
        }
    }

    if (const ResultValue *overrides = doc.find("overrides")) {
        if (overrides->kind() != ResultValue::Kind::Array)
            return bad("overrides must be an array");
        for (std::size_t i = 0; i < overrides->size(); ++i) {
            const ResultValue &entry = overrides->at(i);
            const auto key = memberString(entry, "key");
            const auto value = memberString(entry, "value");
            if (!key || !value)
                return bad("override " + std::to_string(i) +
                           " needs key and value members");
            m.overrides.emplace_back(*key, *value);
        }
    }

    m.warmup = memberUint(doc, "warmup");
    m.measure = memberUint(doc, "measure");
    if ((doc.find("warmup") && !m.warmup) ||
        (doc.find("measure") && !m.measure))
        return bad("warmup/measure must be non-negative integers");

    SystemConfig base;
    for (const auto &[key, value] : m.overrides) {
        if (!applyConfigOverride(base, key, value))
            return bad("bad config override " + key + "=" + value);
    }
    if (const auto grid_err = validateSweepGrid(m, base))
        return bad(*grid_err);
    return m;
}

std::string
manifestJson(const SweepManifest &m)
{
    return toJson(manifestToResult(m), 2) + "\n";
}

bool
saveManifest(const SweepManifest &m, const std::string &path,
             std::string *err)
{
    std::ofstream os(path, std::ios::binary);
    os << manifestJson(m);
    os.close();
    if (!os)
        return setErr(err, "cannot write " + path);
    return true;
}

std::optional<SweepManifest>
loadManifest(const std::string &path, std::string *err)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        setErr(err, "cannot open " + path);
        return std::nullopt;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string parse_err;
    const auto doc = parseJson(buf.str(), &parse_err);
    if (!doc) {
        setErr(err, path + ": " + parse_err);
        return std::nullopt;
    }
    auto m = manifestFromResult(*doc, err);
    if (!m && err)
        *err = path + ": " + *err;
    return m;
}

} // namespace pifetch
