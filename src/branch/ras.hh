/**
 * @file
 * Return address stack.
 */

#pragma once

#include <vector>

#include "common/types.hh"

namespace pifetch {

/**
 * Circular return address stack.
 *
 * Overflow wraps (overwriting the oldest entry); underflow returns
 * invalidAddr, which the front-end treats as an unpredicted return
 * (sequential wrong-path fetch until resolution).
 */
class ReturnAddressStack
{
  public:
    explicit ReturnAddressStack(unsigned entries);

    /** Push a return address on a call. */
    void push(Addr ret_addr);

    /** Pop the predicted return address; invalidAddr on underflow. */
    Addr pop();

    /** Peek without popping; invalidAddr when empty. */
    Addr top() const;

    /** Number of live entries (saturates at capacity). */
    unsigned depth() const { return depth_; }

    unsigned capacity() const { return capacity_; }

  private:
    unsigned capacity_;
    unsigned topIdx_ = 0;
    unsigned depth_ = 0;
    std::vector<Addr> stack_;
};

} // namespace pifetch
