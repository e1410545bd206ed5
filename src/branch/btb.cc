/**
 * @file
 * BTB implementation.
 */

#include "branch/btb.hh"

namespace pifetch {

Btb::Btb(unsigned entries, unsigned assoc)
    : assoc_(assoc)
{
    if (entries == 0 || assoc == 0 || entries % assoc != 0)
        fatalError("BTB entries must be a nonzero multiple of assoc");
    const std::uint64_t sets = entries / assoc;
    if ((sets & (sets - 1)) != 0)
        fatalError("BTB set count must be a power of two");
    setMask_ = sets - 1;
    entries_.resize(entries);
}

Addr
Btb::lookup(Addr pc)
{
    ++lookups_;
    const std::uint64_t base = setOf(pc) * assoc_;
    for (unsigned w = 0; w < assoc_; ++w) {
        Entry &e = entries_[base + w];
        if (e.valid && e.tag == pc) {
            e.stamp = ++tick_;
            ++hits_;
            return e.target;
        }
    }
    return invalidAddr;
}

void
Btb::update(Addr pc, Addr target)
{
    const std::uint64_t base = setOf(pc) * assoc_;
    Entry *victim = nullptr;
    for (unsigned w = 0; w < assoc_; ++w) {
        Entry &e = entries_[base + w];
        if (e.valid && e.tag == pc) {
            e.target = target;
            e.stamp = ++tick_;
            return;
        }
        if (!e.valid) {
            if (!victim || victim->valid)
                victim = &e;
        } else if (!victim || (victim->valid && e.stamp < victim->stamp)) {
            victim = &e;
        }
    }
    victim->tag = pc;
    victim->target = target;
    victim->valid = true;
    victim->stamp = ++tick_;
}

} // namespace pifetch
