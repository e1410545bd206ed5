/**
 * @file
 * Configuration structures for the simulated system.
 *
 * Defaults reproduce Table I of the paper (the 16-core UltraSPARC-III-
 * like CMP) and the PIF design parameters from Section 4 / Section 5
 * (2+5 block spatial regions, 4-entry temporal compactor, 32K-region
 * history buffer, 4 SABs with a 7-region window).
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/types.hh"

namespace pifetch {

class ResultValue;
struct Strict;

/** Geometry and timing of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 64 * 1024;
    unsigned assoc = 2;
    unsigned blockBytes = 64;
    unsigned mshrs = 32;    //!< outstanding misses supported

    /** Number of sets implied by the geometry. */
    std::uint64_t sets() const
    {
        return sizeBytes / (static_cast<std::uint64_t>(assoc) * blockBytes);
    }

    /** Field-wise equality (the tie lists every field). */
    auto
    tied() const
    {
        return std::tie(name, sizeBytes, assoc, blockBytes, mshrs);
    }
    bool operator==(const CacheConfig &o) const { return tied() == o.tied(); }
};

/** Hybrid branch predictor sizing (Table I: 16K gshare + 16K bimodal). */
struct BranchConfig
{
    unsigned gshareEntries = 16 * 1024;
    unsigned bimodalEntries = 16 * 1024;
    unsigned chooserEntries = 16 * 1024;
    unsigned historyBits = 14;
    unsigned btbEntries = 4 * 1024;
    unsigned btbAssoc = 4;
    unsigned rasEntries = 32;

    /** Field-wise equality (the tie lists every field). */
    auto
    tied() const
    {
        return std::tie(gshareEntries, bimodalEntries, chooserEntries,
                        historyBits, btbEntries, btbAssoc, rasEntries);
    }
    bool operator==(const BranchConfig &o) const
    {
        return tied() == o.tied();
    }
};

/** Out-of-order core parameters (Table I). */
struct CoreConfig
{
    unsigned dispatchWidth = 3;
    unsigned retireWidth = 3;
    unsigned robEntries = 96;
    unsigned frontendDepth = 5;       //!< fetch-to-dispatch stages
    /**
     * Branch misprediction resolution delay (cycles between fetching a
     * mispredicted branch and the redirect). Data-dependent in real
     * machines (Section 2.2); modelled as a uniform draw in
     * [minResolveCycles, maxResolveCycles].
     */
    Cycle minResolveCycles = 6;
    Cycle maxResolveCycles = 24;
    /**
     * Fraction of instructions that stall retirement as if waiting on a
     * long-latency data access, and the stall magnitude. This produces
     * the pipeline-occupancy variance the paper blames for the variable
     * number of wrong-path fetches.
     */
    double dataStallFraction = 0.02;
    Cycle dataStallCycles = 40;

    /** Field-wise equality (the tie lists every field). */
    auto
    tied() const
    {
        return std::tie(dispatchWidth, retireWidth, robEntries,
                        frontendDepth, minResolveCycles, maxResolveCycles,
                        dataStallFraction, dataStallCycles);
    }
    bool operator==(const CoreConfig &o) const { return tied() == o.tied(); }
};

/** Shared L2 and main memory timing (Table I: NUCA L2, 45ns memory). */
struct MemoryConfig
{
    std::uint64_t l2SizeBytes = 8ull * 1024 * 1024;  //!< 512KB x 16 cores
    unsigned l2Assoc = 16;
    Cycle l2HitLatency = 15;
    Cycle memLatency = 90;   //!< 45 ns at 2 GHz
    /**
     * Average 2D-mesh round-trip added to every request leaving the
     * core (Table I's 4x4 mesh interconnect; the paper folds NUCA
     * bank distance into access latency the same way).
     */
    Cycle interconnectLatency = 10;

    /** Field-wise equality (the tie lists every field). */
    auto
    tied() const
    {
        return std::tie(l2SizeBytes, l2Assoc, l2HitLatency, memLatency,
                        interconnectLatency);
    }
    bool operator==(const MemoryConfig &o) const
    {
        return tied() == o.tied();
    }
};

/** Proactive Instruction Fetch parameters (Sections 4 and 5). */
struct PifConfig
{
    unsigned blocksBefore = 2;   //!< spatial-region blocks preceding trigger
    unsigned blocksAfter = 5;    //!< spatial-region blocks succeeding trigger
    unsigned temporalEntries = 4;   //!< temporal compactor MRU depth
    std::uint64_t historyRegions = 32 * 1024;  //!< history buffer capacity
    unsigned indexEntries = 8 * 1024;
    unsigned indexAssoc = 4;
    unsigned numSabs = 4;        //!< concurrent stream address buffers
    unsigned sabWindowRegions = 7;  //!< lookahead window per SAB
    bool separateTrapLevels = true; //!< record per-trap-level streams

    /** Total blocks covered by one spatial region record. */
    unsigned regionBlocks() const { return blocksBefore + 1 + blocksAfter; }

    /** Field-wise equality (the tie lists every field). */
    auto
    tied() const
    {
        return std::tie(blocksBefore, blocksAfter, temporalEntries,
                        historyRegions, indexEntries, indexAssoc,
                        numSabs, sabWindowRegions, separateTrapLevels);
    }
    bool operator==(const PifConfig &o) const { return tied() == o.tied(); }
};

/** TIFS baseline parameters (miss-stream temporal streaming). */
struct TifsConfig
{
    std::uint64_t historyEntries = 32 * 1024;
    unsigned indexEntries = 8 * 1024;
    unsigned indexAssoc = 4;
    unsigned numSabs = 4;
    unsigned sabWindowBlocks = 12;
    bool unbounded = false;  //!< Fig. 10 uses no storage limitation

    /** Field-wise equality (the tie lists every field). */
    auto
    tied() const
    {
        return std::tie(historyEntries, indexEntries, indexAssoc,
                        numSabs, sabWindowBlocks, unbounded);
    }
    bool operator==(const TifsConfig &o) const { return tied() == o.tied(); }
};

/** Next-line prefetcher parameters. */
struct NextLineConfig
{
    unsigned degree = 4;  //!< blocks prefetched past the accessed block

    /** Field-wise equality (the tie lists every field). */
    auto
    tied() const
    {
        return std::tie(degree);
    }
    bool operator==(const NextLineConfig &o) const
    {
        return tied() == o.tied();
    }
};

/** Complete single-core system configuration. */
struct SystemConfig
{
    CacheConfig l1i{"l1i", 64 * 1024, 2, 64, 32};
    BranchConfig branch;
    CoreConfig core;
    MemoryConfig memory;
    PifConfig pif;
    TifsConfig tifs;
    NextLineConfig nextLine;
    std::uint64_t seed = 42;  //!< master seed for deterministic runs
    /**
     * Host worker threads for the multicore/experiment runners
     * (0 = auto: PIFETCH_THREADS env var, else hardware concurrency).
     * Results are bit-identical at any value; this is purely a
     * wall-clock knob.
     */
    unsigned threads = 0;

    /** Field-wise equality (the tie lists every field). */
    auto
    tied() const
    {
        return std::tie(l1i, branch, core, memory, pif, tifs, nextLine,
                        seed, threads);
    }
    bool operator==(const SystemConfig &o) const
    {
        return tied() == o.tied();
    }
};

/**
 * The one table of SystemConfig's result-bearing fields: calls
 * `fn(key, field, lo, hi)` for each, in `pifetch list` order. The key
 * is the field's `--set` name and [lo, hi] the bounds
 * validateSystemConfig() holds it to. The `--set` and sweep parser
 * (applyConfigOverride), the bounds, `meta.config` and a repro
 * scenario's `config` (configToResult, configFromResult) all loop
 * over it, so a field added here is at once settable, bounded,
 * recorded and replayed. `threads` is not here: it changes no result.
 * @p cfg may be const.
 */
template <typename Config, typename Fn>
void
forEachConfigField(Config &cfg, Fn &&fn)
{
    // Each cap sits well above Table I and anything the fuzzer emits;
    // it turns a typo or a corrupted file into a message instead of a
    // trap, an allocator abort or a hang.
    constexpr std::uint64_t any = ~std::uint64_t{0};
    fn("seed", cfg.seed, 0, any);
    fn("l1i.sizeBytes", cfg.l1i.sizeBytes, 1, 64 << 20);
    fn("l1i.assoc", cfg.l1i.assoc, 1, 64);
    fn("l1i.mshrs", cfg.l1i.mshrs, 1, 4'096);
    fn("memory.memLatency", cfg.memory.memLatency, 0, 1'000'000);
    fn("memory.l2HitLatency", cfg.memory.l2HitLatency, 0, 1'000'000);
    fn("core.robEntries", cfg.core.robEntries, 0, any);
    fn("core.dispatchWidth", cfg.core.dispatchWidth, 1, 64);
    fn("core.retireWidth", cfg.core.retireWidth, 1, 64);
    fn("pif.blocksBefore", cfg.pif.blocksBefore, 0, 31);
    fn("pif.blocksAfter", cfg.pif.blocksAfter, 0, 31);
    fn("pif.temporalEntries", cfg.pif.temporalEntries, 1, 1'024);
    fn("pif.historyRegions", cfg.pif.historyRegions, 0, 1 << 22);
    fn("pif.indexEntries", cfg.pif.indexEntries, 0, 1 << 20);
    fn("pif.indexAssoc", cfg.pif.indexAssoc, 1, 64);
    fn("pif.numSabs", cfg.pif.numSabs, 1, 256);
    fn("pif.sabWindowRegions", cfg.pif.sabWindowRegions, 1, 1'024);
    fn("pif.separateTrapLevels", cfg.pif.separateTrapLevels, 0, 1);
    fn("tifs.historyEntries", cfg.tifs.historyEntries, 1, 1 << 22);
    fn("tifs.numSabs", cfg.tifs.numSabs, 1, 256);
    fn("tifs.sabWindowBlocks", cfg.tifs.sabWindowBlocks, 1, 4'096);
    fn("nextLine.degree", cfg.nextLine.degree, 1, 256);
}

/** The table's keys, in table order. */
const std::vector<std::string> &configKeys();

/**
 * Check @p cfg against the bounds the simulator needs to run without
 * trapping, aborting in an allocator or hanging: the table's bounds,
 * the thread count, and the geometry of the cache, the PIF region and
 * the index table. Zero stays legal where it means unbounded
 * (pif.historyRegions, pif.indexEntries). Returns nullopt when valid,
 * else a description of the first violation.
 */
std::optional<std::string> validateSystemConfig(const SystemConfig &cfg);

/**
 * Strict non-negative integer parse (base 0: decimal/hex/octal).
 * Rejects negatives outright — strtoull would wrap them to huge
 * values, turning a typo like "-1" into 1.8e19 instructions. Shared
 * by the config overrides and the CLI's numeric options.
 */
bool parseU64Value(const std::string &s, std::uint64_t &out);

/**
 * Apply a `key=value` override of a table field ("pif.historyRegions",
 * "nextLine.degree", "seed", ...). Returns false on an unknown key, an
 * unparsable value or one wider than its field, and says which in
 * @p err. It does not bound the result; run validateSystemConfig()
 * once all overrides are applied.
 */
bool applyConfigOverride(SystemConfig &cfg, const std::string &key,
                         const std::string &value,
                         std::string *err = nullptr);

/**
 * The table's fields as one flat object keyed by the table,
 * `{"seed": 42, "l1i.sizeBytes": 65536, ...}`: a document's
 * `meta.config` and a scenario's `config`. Each key and value can be
 * passed back to `--set` as it stands.
 */
ResultValue configToResult(const SystemConfig &cfg);

/**
 * Read a configToResult() object into @p cfg. Absent keys keep their
 * value; an unknown key or a value of the wrong kind or width fails
 * @p st, named under @p where.
 */
void configFromResult(const ResultValue &obj, const std::string &where,
                      SystemConfig &cfg, Strict &st);

} // namespace pifetch
