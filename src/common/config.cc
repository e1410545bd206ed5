/**
 * @file
 * System configuration validation.
 */

#include "common/config.hh"

#include "common/bitops.hh"

namespace pifetch {

std::optional<std::string>
validateSystemConfig(const SystemConfig &cfg)
{
    const CacheConfig &l1 = cfg.l1i;
    const PifConfig &pif = cfg.pif;
    const TifsConfig &tifs = cfg.tifs;
    // Each cap sits well above Table I and anything the fuzzer emits;
    // it turns a typo or a corrupted file into a message instead of a
    // trap, an allocator abort or a hang.
    struct Bound
    {
        const char *key;
        std::uint64_t value, lo, hi;
    };
    const Bound bounds[] = {
        {"threads", cfg.threads, 0, 256},
        {"l1i.blockBytes", l1.blockBytes, blockBytes, blockBytes},
        {"l1i.assoc", l1.assoc, 1, 64},
        {"l1i.sizeBytes", l1.sizeBytes, 1, 64 << 20},
        {"l1i.mshrs", l1.mshrs, 1, 4'096},
        {"core.dispatchWidth", cfg.core.dispatchWidth, 1, 64},
        {"core.retireWidth", cfg.core.retireWidth, 1, 64},
        {"memory.l2HitLatency", cfg.memory.l2HitLatency, 0, 1'000'000},
        {"memory.memLatency", cfg.memory.memLatency, 0, 1'000'000},
        {"pif.blocksBefore", pif.blocksBefore, 0, 31},
        {"pif.blocksAfter", pif.blocksAfter, 0, 31},
        {"pif.temporalEntries", pif.temporalEntries, 1, 1'024},
        {"pif.historyRegions", pif.historyRegions, 0, 1 << 22},
        {"pif.indexEntries", pif.indexEntries, 0, 1 << 20},
        {"pif.indexAssoc", pif.indexAssoc, 1, 64},
        {"pif.numSabs", pif.numSabs, 1, 256},
        {"pif.sabWindowRegions", pif.sabWindowRegions, 1, 1'024},
        {"tifs.historyEntries", tifs.historyEntries, 1, 1 << 22},
        {"tifs.numSabs", tifs.numSabs, 1, 256},
        {"tifs.sabWindowBlocks", tifs.sabWindowBlocks, 1, 4'096},
        {"nextLine.degree", cfg.nextLine.degree, 1, 256},
    };
    for (const Bound &b : bounds) {
        if (b.value < b.lo || b.value > b.hi) {
            return std::string(b.key) + " must be in [" +
                   std::to_string(b.lo) + ", " + std::to_string(b.hi) +
                   "]";
        }
    }
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

} // namespace pifetch
