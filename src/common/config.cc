/**
 * @file
 * System configuration: validation and the field table's readers and
 * writers.
 */

#include "common/config.hh"

#include <cerrno>
#include <cstdlib>
#include <limits>

#include "common/bitops.hh"
#include "common/results.hh"

namespace pifetch {

namespace {

/** Parse @p s into @p field: empty on success, else why not. */
std::string
setField(bool &field, const std::string &s)
{
    const bool on = s == "1" || s == "true" || s == "on";
    if (!on && s != "0" && s != "false" && s != "off")
        return " (want 1/true/on or 0/false/off)";
    field = on;
    return {};
}

template <typename Field>
std::string
setField(Field &field, const std::string &s)
{
    std::uint64_t u = 0;
    if (!parseU64Value(s, u))
        return " (want a non-negative integer)";
    // Refuse what would truncate: 2^32 + 4 SABs would run as 4.
    if (u > std::numeric_limits<Field>::max())
        return " (wider than its " +
               std::to_string(std::numeric_limits<Field>::digits) +
               "-bit field)";
    field = static_cast<Field>(u);
    return {};
}

} // namespace

const std::vector<std::string> &
configKeys()
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> out;
        const SystemConfig scratch;
        forEachConfigField(scratch, [&](const char *key, const auto &,
                                        std::uint64_t, std::uint64_t) {
            out.push_back(key);
        });
        return out;
    }();
    return keys;
}

std::optional<std::string>
validateSystemConfig(const SystemConfig &cfg)
{
    const CacheConfig &l1 = cfg.l1i;
    const PifConfig &pif = cfg.pif;
    std::optional<std::string> err;
    const auto bound = [&](const char *key, std::uint64_t value,
                           std::uint64_t lo, std::uint64_t hi) {
        if (!err && (value < lo || value > hi)) {
            err = std::string(key) + " must be in [" +
                  std::to_string(lo) + ", " + std::to_string(hi) + "]";
        }
    };
    // No flag or file sets these two, so they stay outside the table.
    bound("threads", cfg.threads, 0, 256);
    bound("l1i.blockBytes", l1.blockBytes, blockBytes, blockBytes);
    forEachConfigField(cfg, [&](const char *key, const auto &value,
                                std::uint64_t lo, std::uint64_t hi) {
        bound(key, static_cast<std::uint64_t>(value), lo, hi);
    });
    if (err)
        return err;
    if (l1.sizeBytes % (std::uint64_t{l1.assoc} * l1.blockBytes) != 0 ||
        bits::popcount(l1.sets()) != 1)
        return std::string("l1i must have a power-of-two number of sets");
    // The spatial compactor keeps a region in one 32-bit vector.
    if (pif.blocksBefore + pif.blocksAfter > 31)
        return std::string("pif region must span at most 32 blocks");
    if (pif.indexEntries % pif.indexAssoc != 0 ||
        (pif.indexEntries != 0 &&
         bits::popcount(pif.indexEntries / pif.indexAssoc) != 1)) {
        return std::string("pif.indexEntries must be 0 (unbounded) or a "
                           "power-of-two number of sets");
    }
    return std::nullopt;
}

bool
parseU64Value(const std::string &s, std::uint64_t &out)
{
    // strtoull silently wraps negatives to huge values; reject them.
    if (s.empty() || s.find('-') != std::string::npos)
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
    if (errno != 0 || !end || *end != '\0')
        return false;
    out = v;
    return true;
}

bool
applyConfigOverride(SystemConfig &cfg, const std::string &key,
                    const std::string &value, std::string *err)
{
    std::optional<std::string> why;  // stays empty for an unknown key
    forEachConfigField(cfg, [&](const char *name, auto &field,
                                std::uint64_t, std::uint64_t) {
        if (key == name)
            why = setField(field, value);
    });
    if (!why) {
        if (err)
            *err = "unknown override key '" + key +
                   "' (see `pifetch list` for keys)";
        return false;
    }
    if (!why->empty() && err)
        *err = "bad value '" + value + "' for override '" + key + "'" +
               *why;
    return why->empty();
}

ResultValue
configToResult(const SystemConfig &cfg)
{
    ResultValue out = ResultValue::object();
    forEachConfigField(cfg, [&](const char *key, const auto &value,
                                std::uint64_t, std::uint64_t) {
        out.set(key, value);
    });
    return out;
}

void
configFromResult(const ResultValue &obj, const std::string &where,
                 SystemConfig &cfg, Strict &st)
{
    const MemberReader read{obj, where, st};
    read.only(configKeys());
    forEachConfigField(cfg, [&](const char *key, auto &field,
                                std::uint64_t, std::uint64_t) {
        read(key, field);
    });
}

} // namespace pifetch
