/**
 * @file
 * Configuration printing (Table I reproduction support).
 */

#include "common/config.hh"

#include "common/bitops.hh"
#include "common/parallel.hh"

namespace pifetch {

namespace {

void
printCache(const CacheConfig &c, std::ostream &os)
{
    os << "  " << c.name << ": " << (c.sizeBytes / 1024) << "KB, "
       << c.assoc << "-way, " << c.blockBytes << "B blocks, "
       << c.hitLatency << "-cycle load-to-use, " << c.mshrs << " MSHRs\n";
}

} // namespace

void
printSystemConfig(const SystemConfig &cfg, std::ostream &os)
{
    os << "Processing nodes\n"
       << "  " << cfg.numCores << " OoO cores, "
       << cfg.core.dispatchWidth << "-wide dispatch / "
       << cfg.core.retireWidth << "-wide retirement\n"
       << "  " << cfg.core.robEntries << "-entry ROB, "
       << cfg.core.fetchQueueEntries << "-entry pre-dispatch queue\n";
    os << "I-fetch unit\n";
    printCache(cfg.l1i, os);
    os << "  hybrid branch predictor: " << cfg.branch.gshareEntries
       << " gshare + " << cfg.branch.bimodalEntries << " bimodal, "
       << cfg.branch.btbEntries << "-entry BTB, "
       << cfg.branch.rasEntries << "-entry RAS\n";
    os << "L1-D cache\n";
    printCache(cfg.l1d, os);
    os << "L2 NUCA cache\n"
       << "  unified " << (cfg.memory.l2SizeBytes / (1024 * 1024))
       << "MB total (" << (cfg.memory.l2SizeBytes / 1024 / cfg.numCores)
       << "KB per core), " << cfg.memory.l2Assoc << "-way, "
       << cfg.memory.l2HitLatency << "-cycle hit latency, "
       << cfg.memory.l2Mshrs << " MSHRs\n";
    os << "Main memory\n"
       << "  " << cfg.memory.memLatency << "-cycle access latency\n";
    os << "PIF\n"
       << "  spatial region: " << cfg.pif.blocksBefore << " blocks before + "
       << "trigger + " << cfg.pif.blocksAfter << " after ("
       << cfg.pif.regionBlocks() << " total)\n"
       << "  temporal compactor: " << cfg.pif.temporalEntries
       << " entries (LRU)\n"
       << "  history buffer: " << cfg.pif.historyRegions << " regions\n"
       << "  index table: " << cfg.pif.indexEntries << " entries, "
       << cfg.pif.indexAssoc << "-way\n"
       << "  SABs: " << cfg.pif.numSabs << " x "
       << cfg.pif.sabWindowRegions << "-region window\n";
    os << "Host execution\n"
       << "  " << resolveThreads(cfg.threads) << " worker threads"
       << (cfg.threads == 0 ? " (auto)" : "") << ", seed "
       << cfg.seed << "\n";
}

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
