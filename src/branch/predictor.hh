/**
 * @file
 * The two-bit saturating counter the direction predictors share.
 *
 * The front-end model uses a Table I-style hybrid predictor (16K gshare
 * + 16K bimodal with a chooser) to decide, per conditional branch,
 * whether the fetch unit follows the correct path or wanders onto the
 * wrong path — the noise source of Section 2.2.
 */

#pragma once

#include <cstdint>

#include "common/types.hh"

namespace pifetch {

/** Two-bit saturating counter used by all direction predictors. */
class SatCounter2
{
  public:
    /** @param init Initial state in [0,3]; 2 = weakly taken. */
    explicit SatCounter2(std::uint8_t init = 2) : v_(init) {}

    /** Predicted direction. */
    bool taken() const { return v_ >= 2; }

    /** Train toward @p t. */
    void
    update(bool t)
    {
        if (t && v_ < 3)
            ++v_;
        else if (!t && v_ > 0)
            --v_;
    }

    std::uint8_t raw() const { return v_; }

  private:
    std::uint8_t v_;
};

} // namespace pifetch
