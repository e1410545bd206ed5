/**
 * @file
 * Return address stack implementation.
 */

#include "branch/ras.hh"

namespace pifetch {

ReturnAddressStack::ReturnAddressStack(unsigned entries)
    : capacity_(entries), stack_(entries, invalidAddr)
{
    if (entries == 0)
        fatalError("RAS needs at least one entry");
}

void
ReturnAddressStack::push(Addr ret_addr)
{
    topIdx_ = (topIdx_ + 1) % capacity_;
    stack_[topIdx_] = ret_addr;
    if (depth_ < capacity_)
        ++depth_;
}

Addr
ReturnAddressStack::pop()
{
    if (depth_ == 0)
        return invalidAddr;
    const Addr a = stack_[topIdx_];
    topIdx_ = (topIdx_ + capacity_ - 1) % capacity_;
    --depth_;
    return a;
}

Addr
ReturnAddressStack::top() const
{
    return depth_ == 0 ? invalidAddr : stack_[topIdx_];
}

} // namespace pifetch
