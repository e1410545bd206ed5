/**
 * @file
 * Order-sensitive stream digests.
 *
 * The validation subsystem (src/check/) cross-checks the TraceEngine
 * and CycleEngine by comparing the exact sequence of retired
 * instructions and fetch accesses each engine produced. Storing the
 * streams would cost gigabytes; instead the engines can fold every
 * element into a 64-bit digest, one multiply per word, and two digests
 * are equal iff the streams (almost certainly) were. Digest collection
 * is off by default so the replay hot path pays nothing beyond one
 * predictable branch per instruction.
 */

#pragma once

#include <cstdint>

namespace pifetch {

/**
 * 64-bit accumulator over a sequence of 64-bit words.
 *
 * Each word takes one step: xor it into the state, multiply by an odd
 * constant, then xor the high half of the product down. Each step is a
 * bijection of the state, so two streams that differ in exactly one
 * word always digest differently, and order matters: add(a); add(b)
 * and add(b); add(a) produce different values, which is exactly what a
 * stream comparison needs. The final xor-shift is what keeps a
 * difference in the top bit from riding the multiply unchanged:
 * without it, flipping bit 63 of any two words would cancel.
 */
class StreamDigest
{
  public:
    /** Fold one word into the digest. */
    void
    add(std::uint64_t word)
    {
        hash_ = (hash_ ^ word) * multiplier;
        hash_ ^= hash_ >> 32;
    }

    /** Current digest value. */
    std::uint64_t value() const { return hash_; }

    /** Restore the initial (empty-stream) state. */
    void reset() { hash_ = initial; }

  private:
    /** Nonzero: from a zero state, zero words would stay at zero. */
    static constexpr std::uint64_t initial = 0xcbf29ce484222325ull;
    /** floor(2^64 / golden ratio); odd, so the multiply is a bijection. */
    static constexpr std::uint64_t multiplier = 0x9e3779b97f4a7c15ull;

    std::uint64_t hash_ = initial;
};

/**
 * The one word encoding of a retired instruction (RetiredInstr-shaped:
 * pc, target, kind, trapLevel, taken). Both engines must fold the
 * exact same words or the cross-engine digest oracle is meaningless —
 * which is why this lives here, once, instead of in each replay loop.
 */
template <typename Instr>
inline void
digestRetire(StreamDigest &digest, const Instr &instr)
{
    digest.add(instr.pc);
    digest.add(instr.target);
    digest.add((static_cast<std::uint64_t>(instr.kind) << 16) |
               (static_cast<std::uint64_t>(instr.trapLevel) << 8) |
               (instr.taken ? 1 : 0));
}

/**
 * The one word encoding of a fetch access (FetchAccess-shaped: block,
 * trapLevel, correctPath). hit/wasPrefetched are deliberately
 * excluded — fill timing legitimately differs across engines; the
 * fetch *sequence* must not.
 */
template <typename Access>
inline void
digestAccess(StreamDigest &digest, const Access &access)
{
    digest.add((access.block << 8) |
               (static_cast<std::uint64_t>(access.trapLevel) << 1) |
               (access.correctPath ? 1 : 0));
}

} // namespace pifetch
