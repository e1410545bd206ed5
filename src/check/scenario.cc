/**
 * @file
 * Scenario generation, validation and serialization.
 */

#include "check/scenario.hh"

#include "common/rng.hh"

namespace pifetch {

namespace {

/** Distinct stream from the workload/config seeds derived below. */
constexpr std::uint64_t scenarioSalt = 0x5ca1ab1e0ddba11ull;

} // namespace

std::string
prefetcherKey(PrefetcherKind kind)
{
    switch (kind) {
      case PrefetcherKind::None:          return "none";
      case PrefetcherKind::NextLine:      return "nextline";
      case PrefetcherKind::Tifs:          return "tifs";
      case PrefetcherKind::Discontinuity: return "discontinuity";
      case PrefetcherKind::Pif:           return "pif";
      case PrefetcherKind::Perfect:       return "perfect";
    }
    panic("unknown prefetcher kind");
}

std::optional<PrefetcherKind>
prefetcherFromKey(const std::string &s)
{
    for (PrefetcherKind k :
         {PrefetcherKind::None, PrefetcherKind::NextLine,
          PrefetcherKind::Tifs, PrefetcherKind::Discontinuity,
          PrefetcherKind::Pif, PrefetcherKind::Perfect}) {
        if (s == prefetcherKey(k))
            return k;
    }
    return std::nullopt;
}

Scenario
scenarioFromSeed(std::uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + scenarioSalt);
    Scenario sc;
    sc.seed = seed;

    WorkloadParams &p = sc.params;
    p.name = "fuzz-" + std::to_string(seed);
    p.seed = rng.next();
    p.appFunctions = 40 + static_cast<unsigned>(rng.below(1200));
    p.libFunctions = 8 + static_cast<unsigned>(rng.below(400));
    p.handlers = 4 + static_cast<unsigned>(rng.below(12));
    p.transactions = 2 + static_cast<unsigned>(rng.below(10));
    p.meanFnBlocks = 2.0 + rng.uniform() * 8.0;
    p.maxFnBlocks = 12 + static_cast<unsigned>(rng.below(21));
    p.meanHandlerBlocks = 2.0 + rng.uniform() * 3.0;
    p.meanBasicBlockInstrs = 3.0 + rng.uniform() * 7.0;
    p.callDensity = 0.02 + rng.uniform() * 0.16;
    p.meanAppCalls = 1.2 + rng.uniform() * 1.2;
    p.condDensity = 0.10 + rng.uniform() * 0.20;
    p.jumpDensity = rng.uniform() * 0.06;
    p.biasedFraction = 0.60 + rng.uniform() * 0.35;
    p.dataDepLo = 0.20 + rng.uniform() * 0.15;
    p.dataDepHi = 0.60 + rng.uniform() * 0.20;
    p.loopsPerFunction = rng.uniform() * 1.5;
    p.meanLoopIter = 2.0 + rng.uniform() * 22.0;
    // The range deliberately straddles s == 1, where Rng::zipf
    // switches to the harmonic log-form inverse CDF.
    p.zipfS = 0.10 + rng.uniform() * 1.20;
    p.callLayers = 2 + static_cast<unsigned>(rng.below(11));
    p.interruptRate = rng.chance(0.2) ? 0.0 : rng.uniform() * 2.0e-4;
    p.maxCallDepth = 6 + static_cast<unsigned>(rng.below(27));

    SystemConfig &c = sc.cfg;
    c.seed = rng.next();
    static constexpr std::uint64_t l1Sizes[] = {
        16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024};
    static constexpr unsigned l1Assocs[] = {1, 2, 4, 8};
    c.l1i.sizeBytes = l1Sizes[rng.below(4)];
    c.l1i.assoc = l1Assocs[rng.below(4)];
    c.l1i.mshrs = 8 + static_cast<unsigned>(rng.below(41));
    c.pif.blocksBefore = static_cast<unsigned>(rng.below(4));
    c.pif.blocksAfter = 1 + static_cast<unsigned>(rng.below(7));
    c.pif.temporalEntries = 1 + static_cast<unsigned>(rng.below(8));
    c.pif.historyRegions = std::uint64_t{1} << (9 + rng.below(7));
    c.pif.indexEntries = 1u << (10 + rng.below(4));
    c.pif.indexAssoc = 1u << rng.below(3);
    c.pif.numSabs = 1 + static_cast<unsigned>(rng.below(8));
    c.pif.sabWindowRegions = 2 + static_cast<unsigned>(rng.below(9));
    c.pif.separateTrapLevels = rng.chance(0.75);
    c.tifs.historyEntries = std::uint64_t{1} << (10 + rng.below(6));
    c.tifs.numSabs = 1 + static_cast<unsigned>(rng.below(6));
    c.tifs.sabWindowBlocks = 4 + static_cast<unsigned>(rng.below(13));
    c.nextLine.degree = 1 + static_cast<unsigned>(rng.below(8));
    c.memory.l2HitLatency = 8 + rng.below(13);
    c.memory.memLatency = 60 + rng.below(81);

    static constexpr PrefetcherKind kinds[] = {
        PrefetcherKind::None,          PrefetcherKind::NextLine,
        PrefetcherKind::Tifs,          PrefetcherKind::Discontinuity,
        PrefetcherKind::Pif,           PrefetcherKind::Perfect};
    sc.kind = kinds[rng.below(6)];
    sc.warmup = 4'000 + rng.below(36'001);
    sc.measure = 20'000 + rng.below(60'001);
    sc.threads = 2 + static_cast<unsigned>(rng.below(3));
    sc.cores = 2 + static_cast<unsigned>(rng.below(2));

    // A fifth of the seed space fuzzes the declarative spec layer:
    // the scenario gains a 1-2 program, 1-3 phase WorkloadSpec built
    // from the params drawn above. All spec draws come after every
    // plain-scenario draw so the other four fifths of the seed space
    // replay exactly as before this layer existed.
    if (seed % 5 == 3) {
        WorkloadSpec spec;
        spec.name = "fuzz-spec-" + std::to_string(seed);
        spec.title = spec.name;
        spec.description = "fuzzer-derived workload spec";
        spec.seed = rng.next();
        const unsigned nprogs = 1 + static_cast<unsigned>(rng.below(2));
        for (unsigned i = 0; i < nprogs; ++i) {
            WorkloadSpecProgram pr;
            pr.name = "prog" + std::to_string(i);
            pr.params = sc.params;
            pr.params.name = pr.name;
            pr.params.seed = rng.next();
            pr.params.appFunctions =
                40 + static_cast<unsigned>(rng.below(400));
            pr.params.transactions =
                2 + static_cast<unsigned>(rng.below(6));
            spec.programs.push_back(std::move(pr));
        }
        const unsigned nphases = 1 + static_cast<unsigned>(rng.below(3));
        for (unsigned i = 0; i < nphases; ++i) {
            WorkloadSpecPhase ph;
            ph.name = "phase" + std::to_string(i);
            // Bounded well below specMaxPhaseInstrs so repeated
            // halving reaches the specMinPhaseInstrs floor within the
            // shrinker's pass budget.
            ph.instructions = 2'000 + rng.below(198'001);
            if (nprogs > 1 && rng.chance(0.5)) {
                for (unsigned j = 0; j < nprogs; ++j) {
                    ph.mix.emplace_back(spec.programs[j].name,
                                        0.25 + rng.uniform());
                }
            }
            if (rng.chance(0.5)) {
                ph.interruptRate = rng.uniform() * 2.0e-4;
                if (rng.chance(0.5))
                    ph.interruptRateEnd = rng.uniform() * 2.0e-4;
            }
            spec.phases.push_back(std::move(ph));
        }
        sc.spec = std::make_shared<const WorkloadSpec>(std::move(spec));
    }
    return sc;
}

std::optional<std::string>
validateScenario(const Scenario &sc)
{
    if (const auto err = validateWorkloadParams(sc.params))
        return err;
    if (sc.spec) {
        if (const auto err = validateWorkloadSpec(*sc.spec))
            return err;
    }
    if (const auto err = validateSystemConfig(sc.cfg))
        return err;
    // Stricter than a run accepts: the history-budget oracle shrinks
    // the history to a 64-region floor, and fuzzed points keep bounded
    // tables and at least one block after the trigger.
    const PifConfig &pif = sc.cfg.pif;
    if (pif.blocksAfter == 0)
        return std::string("pif.blocksAfter must be >= 1");
    if (pif.historyRegions < 64)
        return std::string("pif.historyRegions must be >= 64");
    if (pif.indexEntries == 0)
        return std::string("pif.indexEntries must be >= 1");
    if (sc.measure < 1'000)
        return std::string("measure must be >= 1000 instructions");
    // Bound each half before summing so the sum cannot wrap.
    if (sc.warmup > 50'000'000 || sc.measure > 50'000'000 ||
        sc.warmup + sc.measure > 50'000'000) {
        return std::string("warmup + measure budget above 50M "
                           "instructions");
    }
    if (sc.threads == 0 || sc.threads > 64)
        return std::string("threads must be in [1, 64]");
    if (sc.cores == 0 || sc.cores > 16)
        return std::string("cores must be in [1, 16]");
    return std::nullopt;
}

ResultValue
toResult(const Scenario &sc)
{
    ResultValue v = ResultValue::object();
    v.set("seed", sc.seed);
    v.set("kind", prefetcherKey(sc.kind));
    v.set("warmup", sc.warmup);
    v.set("measure", sc.measure);
    v.set("threads", sc.threads);
    v.set("cores", sc.cores);
    ResultValue params = ResultValue::object();
    params.set("name", sc.params.name);
    forEachWorkloadParam(sc.params, [&](const char *key,
                                        const auto &value) {
        params.set(key, value);
    });
    v.set("params", std::move(params));
    v.set("config", configToResult(sc.cfg));
    if (sc.spec)
        v.set("workload_spec", specToResult(*sc.spec));
    return v;
}

std::optional<Scenario>
scenarioFromResult(const ResultValue &v, std::string *err)
{
    if (err)
        err->clear();
    // Accept a failure entry wrapping the scenario we want to replay.
    if (v.find("shrunk"))
        return scenarioFromResult(*v.find("shrunk"), err);
    if (v.find("scenario"))
        return scenarioFromResult(*v.find("scenario"), err);

    Strict st;
    Scenario sc;
    if (requireObject(&v, "scenario", st)) {
        const MemberReader read{v, "scenario", st};
        read.only({"seed", "kind", "warmup", "measure", "threads",
                   "cores", "params", "config", "workload_spec"});
        read("seed", sc.seed);
        read("warmup", sc.warmup);
        read("measure", sc.measure);
        read("threads", sc.threads);
        read("cores", sc.cores);
        std::string kind = prefetcherKey(sc.kind);
        read("kind", kind);
        if (const auto k = prefetcherFromKey(kind))
            sc.kind = *k;
        else
            st.fail("unknown prefetcher kind '" + kind + "'");
    }
    const ResultValue *params = v.find("params");
    if (params && requireObject(params, "scenario.params", st)) {
        std::vector<std::string> keys = workloadParamKeys();
        keys.push_back("name");
        const MemberReader read{*params, "scenario.params", st};
        read.only(keys);
        read("name", sc.params.name);
        forEachWorkloadParam(sc.params, read);
    }
    const ResultValue *cfg = v.find("config");
    if (cfg && requireObject(cfg, "scenario.config", st))
        configFromResult(*cfg, "scenario.config", sc.cfg, st);
    const ResultValue *ws = v.find("workload_spec");
    if (ws && st.ok()) {
        std::string serr;
        auto spec = workloadSpecFromResult(*ws, &serr);
        if (spec)
            sc.spec = std::make_shared<const WorkloadSpec>(std::move(*spec));
        else
            st.fail("workload_spec: " + serr);
    }
    if (!st.ok()) {
        if (err)
            *err = st.err;
        return std::nullopt;
    }
    if (const auto verr = validateScenario(sc)) {
        if (err)
            *err = *verr;
        return std::nullopt;
    }
    return sc;
}

} // namespace pifetch
