/**
 * @file
 * Sharded, resumable sweep execution over a manifest (manifest.hh).
 *
 * Layout of a sweep directory:
 *
 *   <dir>/manifest.json            the pinned sweep (canonical JSON)
 *   <dir>/shards/shard-<K>/
 *       point-<P>.json             one experiment document per point
 *       journal.jsonl              one line per completed point:
 *                                  {"point":P,"digest":"<fnv64 hex>"}
 *   <dir>/merged.json              the canonical sweep document
 *
 * The journal is the crash contract: a point file is fully written
 * and closed *before* its journal line is appended and flushed, so
 * after a crash (or SIGKILL) every journaled point provably has its
 * bytes on disk. Resume re-validates each journal line — parse, shard
 * ownership, and the digest of the point file's actual bytes — and
 * re-runs anything that does not check out, so a torn journal line or
 * a corrupted point file is re-run rather than trusted.
 *
 * Every point runs with threads pinned to 1 and the shared document
 * assembly below, which is what makes a merged sharded sweep
 * byte-identical to `pifetch sweep` run in one process — the goldens
 * and tests/test_sweep_shard.cc lock this.
 *
 * Self-test hook (mirroring `pifetch check --inject-fault`): setting
 * PIFETCH_SWEEP_KILL_AFTER="<shard>:<n>" makes runSweepShard() for
 * that shard raise SIGKILL immediately after journaling its n-th
 * completed point, simulating a mid-sweep crash for the resume tests
 * and the CI sweep-resume smoke job.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/registry.hh"
#include "sweep/manifest.hh"

namespace pifetch {

/** `<dir>/manifest.json`. */
std::string sweepManifestPath(const std::string &dir);

/** `<dir>/shards/shard-<k>`. */
std::string sweepShardDir(const std::string &dir, unsigned k);

/** `<dir>/shards/shard-<owner of p>/point-<p>.json`. */
std::string sweepPointPath(const std::string &dir,
                           const SweepManifest &m, std::uint64_t p);

/** `<dir>/shards/shard-<k>/journal.jsonl`. */
std::string sweepJournalPath(const std::string &dir, unsigned k);

/** `<dir>/merged.json`. */
std::string sweepMergedPath(const std::string &dir);

/**
 * Create @p dir (and ancestors) and write the canonical
 * `<dir>/manifest.json`. The scheduler calls this once before
 * launching workers; a resume validates the command line against the
 * manifest on disk instead.
 */
bool initSweepDir(const std::string &dir, const SweepManifest &m,
                  std::string *err = nullptr);

/**
 * Resolve the manifest's base options (workloads, overrides, budget)
 * against the experiment's defaults, exactly as the CLI would.
 * Returns nullopt and sets @p err when a workload or override no
 * longer resolves.
 */
std::optional<RunOptions> sweepBaseOptions(const ExperimentSpec &spec,
                                           const SweepManifest &m,
                                           std::string *err = nullptr);

/**
 * Run grid point @p p: base options plus the point's axis assignment,
 * threads pinned to 1 so the result is identical no matter which
 * process or pool lane executes it. @p m's grid must have passed
 * validateSweepGrid() (loadManifest checks it).
 */
ResultValue runSweepPoint(const ExperimentSpec &spec,
                          const RunOptions &base, const SweepManifest &m,
                          std::uint64_t p);

/**
 * Assemble the canonical sweep document from per-point documents
 * (@p docs indexed by point ordinal). Both the in-process sweep and
 * the sharded merge go through this one function, so their output
 * cannot drift apart.
 */
ResultValue assembleSweepDoc(const SweepManifest &m,
                             std::vector<ResultValue> docs);

/**
 * Points of shard @p k whose journal entries are valid: the line
 * parses, the point belongs to the shard, and the point file's bytes
 * digest to the journaled value. Invalid or duplicate lines are
 * ignored (their points re-run).
 */
std::vector<std::uint64_t>
journaledCompletePoints(const std::string &dir, const SweepManifest &m,
                        unsigned k);

/**
 * Run every point shard @p k owns, writing point files and the
 * completion journal under `<dir>/shards/shard-<k>`. With @p resume,
 * journaled-complete points are skipped; without it the shard starts
 * from a fresh journal. @return false on failure (@p err set).
 */
bool runSweepShard(const std::string &dir, const SweepManifest &m,
                   unsigned k, bool resume, std::string *err = nullptr);

/**
 * Assemble the merged document from a sweep directory whose shards
 * have all completed. Fails (with the missing point named) when any
 * point file is absent or unparsable — the caller should re-run with
 * resume.
 */
std::optional<ResultValue>
mergeShardedSweep(const std::string &dir, const SweepManifest &m,
                  std::string *err = nullptr);

/**
 * The scheduler: launch one child process per shard (at most
 * resolveThreads(@p threads) concurrently, so PIFETCH_THREADS bounds
 * the fan-out), each invoking `<exe> sweep --dir <dir> --shard <k>`
 * (plus --resume when @p resume). @return false when any shard exits
 * nonzero or dies to a signal; @p err then names the failed shards.
 */
bool runShardedSweep(const std::string &dir, const SweepManifest &m,
                     const std::string &exe, unsigned threads,
                     bool resume, std::string *err = nullptr);

/** Path of the running executable (/proc/self/exe). */
std::string selfExePath();

} // namespace pifetch
