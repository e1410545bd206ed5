/**
 * @file
 * Index table implementation.
 */

#include "pif/index_table.hh"

namespace pifetch {

namespace {

/**
 * Set-selection hash. Trigger PCs are frequently block-aligned
 * (function entries), so using low PC bits directly would alias whole
 * sets; a multiplicative (Fibonacci) hash spreads them.
 */
std::uint64_t
setHash(Addr pc)
{
    return (pc >> 2) * 0x9e3779b97f4a7c15ull >> 32;
}

} // namespace

IndexTable::IndexTable(unsigned entries, unsigned assoc)
    : unbounded_(entries == 0)
{
    if (unbounded_)
        return;
    if (assoc == 0 || entries % assoc != 0)
        fatalError("index table entries must be a multiple of assoc");
    const std::uint64_t sets = entries / assoc;
    if ((sets & (sets - 1)) != 0)
        fatalError("index table set count must be a power of two");
    assoc_ = assoc;
    setMask_ = sets - 1;
    entries_.resize(entries);
}

void
IndexTable::insert(Addr pc, std::uint64_t seq)
{
    if (unbounded_) {
        map_.insertOrAssign(pc, seq);
        return;
    }

    const std::uint64_t base = (setHash(pc) & setMask_) * assoc_;
    Entry *victim = nullptr;
    for (unsigned w = 0; w < assoc_; ++w) {
        Entry &e = entries_[base + w];
        if (e.valid && e.pc == pc) {
            e.seq = seq;
            e.stamp = ++tick_;
            return;
        }
        if (!e.valid) {
            if (!victim || victim->valid)
                victim = &e;
        } else if (!victim ||
                   (victim->valid && e.stamp < victim->stamp)) {
            victim = &e;
        }
    }
    victim->pc = pc;
    victim->seq = seq;
    victim->valid = true;
    victim->stamp = ++tick_;
}

std::optional<std::uint64_t>
IndexTable::lookup(Addr pc)
{
    ++lookups_;
    if (unbounded_) {
        const std::uint64_t *seq = map_.find(pc);
        if (!seq)
            return std::nullopt;
        ++hits_;
        return *seq;
    }

    const std::uint64_t base = (setHash(pc) & setMask_) * assoc_;
    for (unsigned w = 0; w < assoc_; ++w) {
        Entry &e = entries_[base + w];
        if (e.valid && e.pc == pc) {
            e.stamp = ++tick_;
            ++hits_;
            return e.seq;
        }
    }
    return std::nullopt;
}

} // namespace pifetch
