/**
 * @file
 * Generic temporal-stream predictor for the observation-point studies.
 *
 * Section 2 (Figure 2) evaluates the same record-and-replay predictor
 * over four different observation streams (Miss, Access, Retire,
 * RetireSep). This class implements that predictor over an arbitrary
 * element stream: an append-only history, an index from element to its
 * most recent history position, and a small pool of replay streams
 * with a bounded lookahead window. Per-stream episode statistics feed
 * the jump-distance (Figure 7) and stream-length (Figure 9 left)
 * studies.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/types.hh"
#include "pif/index_table.hh"

namespace pifetch {

/**
 * Sizing for TemporalStreamPredictor. The defaults are the one sizing
 * of the Figure 2, 7 and 9-left studies, which construct it as
 * `TemporalPredictorConfig{}`.
 */
struct TemporalPredictorConfig
{
    /** History elements retained; 0 = unbounded. */
    std::uint64_t historyCapacity = 0;
    /** Index entries; 0 = unbounded. */
    unsigned indexEntries = 0;
    unsigned indexAssoc = 4;
    /** Concurrent replay streams. */
    unsigned numStreams = 4;
    /** Lookahead window (elements) per stream. */
    unsigned window = 16;
};

/**
 * Statistics of one replay episode (stream allocation to death).
 */
struct StreamEpisode
{
    /** History distance from the recurring head to the tail at trigger
     * time ("jump distance", Figure 7). */
    std::uint64_t jumpDistance = 0;
    /** Elements of the stream consumed (its replayed length). */
    std::uint64_t length = 0;
    /** Observations correctly predicted by this stream. */
    std::uint64_t matched = 0;
};

/**
 * Record-and-replay temporal stream predictor over Addr elements.
 */
class TemporalStreamPredictor
{
  public:
    explicit TemporalStreamPredictor(const TemporalPredictorConfig &cfg);

    /** Result of one observation. */
    struct Outcome
    {
        /** The element was found in an active stream window. */
        bool predicted = false;
        /** A new replay stream was triggered from the index. */
        bool triggered = false;
    };

    /**
     * Feed the next element of this predictor's observation stream:
     * checks active windows, advances on a match, triggers a new
     * stream from the index otherwise, then records the element.
     */
    Outcome observe(Addr a);

    /**
     * True if @p a lies in any active stream window. Pure query: used
     * to attribute coverage of events that belong to a *different*
     * observation stream (e.g. asking the retire-stream predictor
     * about an L1-I miss).
     */
    bool covered(Addr a) const;

    /** Install a hook invoked whenever a replay episode ends. */
    void
    onEpisodeEnd(std::function<void(const StreamEpisode &)> hook)
    {
        episodeHook_ = std::move(hook);
    }

    /** Close all active episodes (end of measurement). */
    void finish();

    /** Elements recorded. */
    std::uint64_t recorded() const { return tail_; }

    /** Elements observed. */
    std::uint64_t observations() const { return observations_; }

    /** Observations predicted by an active stream. */
    std::uint64_t predictedCount() const { return predicted_; }

    /** Streams triggered. */
    std::uint64_t triggers() const { return triggers_; }

  private:
    struct Stream
    {
        bool active = false;
        std::uint64_t ptr = 0;    //!< next history position to load
        std::deque<Addr> window;  //!< upcoming elements
        std::uint64_t lastUse = 0;
        StreamEpisode episode;
    };

    bool histValid(std::uint64_t seq) const;
    Addr histAt(std::uint64_t seq) const;
    void append(Addr a);
    void refill(Stream &s);
    void closeEpisode(Stream &s);

    TemporalPredictorConfig cfg_;
    std::vector<Addr> ring_;
    std::uint64_t tail_ = 0;
    IndexTable index_;
    std::vector<Stream> streams_;
    std::uint64_t tick_ = 0;

    std::function<void(const StreamEpisode &)> episodeHook_;

    std::uint64_t observations_ = 0;
    std::uint64_t predicted_ = 0;
    std::uint64_t triggers_ = 0;
};

} // namespace pifetch
