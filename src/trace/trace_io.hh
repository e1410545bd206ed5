/**
 * @file
 * Binary trace file I/O.
 *
 * Lets users capture a retire-order stream once and replay it through
 * predictors and prefetchers (the paper's trace-based methodology,
 * Section 5). The format is a fixed little-endian header followed by
 * packed records (docs/trace_format.md); versioned so future
 * extensions stay readable. Both directions stream one disk chunk at
 * a time: TraceWriter appends records, TraceBatchReader decodes them
 * into RecordBatch columns.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/record.hh"

namespace pifetch {

/** Magic number identifying pifetch trace files ("PIFT"). */
constexpr std::uint32_t traceMagic = 0x54464950;

/** Current trace format version. */
constexpr std::uint32_t traceVersion = 1;

/**
 * Streaming trace writer, the counterpart of TraceBatchReader.
 *
 * Buffers one disk chunk of records (one fwrite per ~32K records),
 * writes the header with a placeholder count, and finish() seeks back
 * to finalize it, so a multi-gigabyte capture never holds more than
 * one chunk in memory. finish() flushes and closes explicitly: a write
 * error that only surfaces at flush/close time (e.g. ENOSPC) is
 * reported as failure, never as silent data loss.
 */
class TraceWriter
{
  public:
    TraceWriter() = default;
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Open @p path for writing. @return false on failure (error()). */
    bool open(const std::string &path);

    /** Append one record (buffered at disk-chunk granularity). */
    void add(const RetiredInstr &r);

    /** Flush the final chunk, rewrite the header with the real count,
     *  flush and close. @return false on any I/O failure. */
    bool finish();

    /** Records appended so far. */
    std::uint64_t count() const { return count_; }

    bool failed() const { return failed_; }
    const std::string &error() const { return error_; }

  private:
    void flushChunk();
    void fail(const std::string &msg);

    void *file_ = nullptr;  //!< std::FILE, opaque to the header
    std::uint64_t count_ = 0;
    std::vector<RetiredInstr> pending_;  //!< records of the open chunk
    bool failed_ = false;
    bool finished_ = false;
    std::string error_;
};

/**
 * Streaming batch decoder for trace files.
 *
 * Hands out the stream one structure-of-arrays RecordBatch at a time:
 * each 32K-record disk chunk is read with a single fread and its
 * fields are scattered into the batch's parallel PC / target / kind
 * columns (block addresses precomputed), ready to feed
 * TraceEngine::replayBatch() without touching AoS form or holding more
 * than one chunk in memory.
 */
class TraceBatchReader
{
  public:
    TraceBatchReader() = default;
    ~TraceBatchReader() { close(); }

    TraceBatchReader(const TraceBatchReader &) = delete;
    TraceBatchReader &operator=(const TraceBatchReader &) = delete;

    /**
     * Open @p path and validate its header: magic, version, and the
     * record count against the file's actual payload size, so a
     * corrupt count fails here instead of mid-stream.
     * @return true if the stream is ready.
     */
    bool open(const std::string &path);

    /** Records the header promises (valid after a successful open). */
    std::uint64_t count() const { return total_; }

    /** Records decoded so far. */
    std::uint64_t decoded() const { return decoded_; }

    /**
     * Decode up to @p max records into @p out (columns filled, block
     * addresses computed). A record whose kind is not an InstrKind
     * fails the stream. @return true if @p out holds at least one
     * record; false at end of stream or on error (check failed(); @p
     * out is then empty).
     */
    bool next(RecordBatch &out, std::uint32_t max = recordBatchLen);

    /** True once an I/O error, short read or invalid record has been
     *  observed. */
    bool failed() const { return failed_; }

    /** Release the underlying file (idempotent). */
    void close();

  private:
    /** Read the next disk chunk into chunk_. Sets failed_ on error. */
    void refill();

    void *file_ = nullptr;       //!< std::FILE, opaque to the header
    std::uint64_t total_ = 0;    //!< records promised by the header
    std::uint64_t remaining_ = 0;  //!< records not yet read from disk
    std::uint64_t decoded_ = 0;
    bool failed_ = false;

    /** Raw bytes of the current disk chunk and the decode cursor. */
    std::vector<std::uint8_t> chunk_;
    std::size_t chunkPos_ = 0;  //!< next undecoded record index
    std::size_t chunkLen_ = 0;  //!< records in the current chunk
};

} // namespace pifetch
