/**
 * @file
 * Trace file I/O implementation.
 *
 * Both directions stream through a fixed-size chunk buffer: one
 * fwrite/fread per chunk instead of one syscall-sized call per
 * 24-byte record.
 */

#include "trace/trace_io.hh"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>

namespace pifetch {

namespace {

/** On-disk record layout (packed, little-endian host assumed). */
struct DiskRecord
{
    std::uint64_t pc;
    std::uint64_t target;
    std::uint8_t kind;
    std::uint8_t trapLevel;
    std::uint8_t taken;
    std::uint8_t pad[5];
};

static_assert(sizeof(DiskRecord) == 24, "unexpected disk record size");

struct Header
{
    std::uint32_t magic;
    std::uint32_t version;
    std::uint64_t count;
};

/** Records buffered per fwrite/fread call (32K records = 768 KiB). */
constexpr std::size_t chunkRecords = 32 * 1024;

/** Largest valid on-disk kind byte (InstrKind's last enumerator). */
constexpr std::uint8_t maxDiskKind =
    static_cast<std::uint8_t>(InstrKind::TrapReturn);

/**
 * Bytes past the header in @p f, or -1 if unknowable (not a regular
 * file). fstat rather than fseek/ftell: st_size is 64-bit where the
 * platform supports large files, so multi-GB traces stay readable.
 */
long long
payloadBytes(std::FILE *f)
{
    struct stat st;
    if (fstat(fileno(f), &st) != 0 || !S_ISREG(st.st_mode))
        return -1;
    const long long size = static_cast<long long>(st.st_size);
    if (size < static_cast<long long>(sizeof(Header)))
        return -1;
    return size - static_cast<long long>(sizeof(Header));
}

} // namespace

TraceWriter::~TraceWriter()
{
    if (file_) {
        std::fclose(static_cast<std::FILE *>(file_));
        file_ = nullptr;
    }
}

void
TraceWriter::fail(const std::string &msg)
{
    if (!failed_) {
        failed_ = true;
        error_ = msg;
    }
    if (file_) {
        std::fclose(static_cast<std::FILE *>(file_));
        file_ = nullptr;
    }
}

bool
TraceWriter::open(const std::string &path)
{
    if (file_ || finished_) {
        fail("trace writer: open() called twice");
        return false;
    }
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        fail("cannot create " + path);
        return false;
    }
    file_ = f;
    pending_.reserve(chunkRecords);

    // Placeholder count; finish() seeks back and writes the real one.
    Header h{traceMagic, traceVersion, 0};
    if (std::fwrite(&h, sizeof(h), 1, f) != 1) {
        fail("cannot write trace header to " + path);
        return false;
    }
    return true;
}

void
TraceWriter::add(const RetiredInstr &r)
{
    if (failed_ || finished_)
        return;
    pending_.push_back(r);
    ++count_;
    if (pending_.size() >= chunkRecords)
        flushChunk();
}

void
TraceWriter::flushChunk()
{
    if (pending_.empty() || failed_)
        return;
    std::vector<DiskRecord> chunk(pending_.size());
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        const RetiredInstr &r = pending_[i];
        DiskRecord d{};
        d.pc = r.pc;
        d.target = r.target;
        d.kind = static_cast<std::uint8_t>(r.kind);
        d.trapLevel = r.trapLevel;
        d.taken = r.taken ? 1 : 0;
        chunk[i] = d;
    }
    if (std::fwrite(chunk.data(), sizeof(DiskRecord), chunk.size(),
                    static_cast<std::FILE *>(file_)) != chunk.size()) {
        fail("cannot write trace chunk");
        return;
    }
    pending_.clear();
}

bool
TraceWriter::finish()
{
    if (failed_)
        return false;
    if (finished_ || file_ == nullptr) {
        fail("trace writer: finish() without an open file");
        return false;
    }
    flushChunk();
    if (failed_)
        return false;
    std::FILE *f = static_cast<std::FILE *>(file_);

    Header h{traceMagic, traceVersion, count_};
    if (std::fseek(f, 0, SEEK_SET) != 0 ||
        std::fwrite(&h, sizeof(h), 1, f) != 1) {
        fail("cannot finalize trace header");
        return false;
    }
    if (std::fflush(f) != 0) {
        fail("flush failed finalizing trace");
        return false;
    }
    file_ = nullptr;
    finished_ = true;
    if (std::fclose(f) != 0) {
        failed_ = true;
        error_ = "close failed finalizing trace";
        return false;
    }
    return true;
}

bool
TraceBatchReader::open(const std::string &path)
{
    close();
    failed_ = false;
    total_ = 0;
    remaining_ = 0;
    decoded_ = 0;
    chunkPos_ = 0;
    chunkLen_ = 0;

    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        failed_ = true;
        return false;
    }
    file_ = f;

    Header h{};
    if (std::fread(&h, sizeof(h), 1, f) != 1 || h.magic != traceMagic ||
        h.version != traceVersion) {
        failed_ = true;
        close();
        return false;
    }

    // The header's count is untrusted input: when the payload size is
    // knowable it must hold everything the header promises, so a
    // corrupt count fails here rather than after a huge allocation or
    // a long stream of reads.
    const long long payload = payloadBytes(f);
    if (payload >= 0 &&
        h.count > static_cast<unsigned long long>(payload) /
                      sizeof(DiskRecord)) {
        failed_ = true;
        close();
        return false;
    }

    total_ = h.count;
    remaining_ = h.count;
    chunk_.resize(sizeof(DiskRecord) *
                  std::min<std::uint64_t>(
                      chunkRecords, std::max<std::uint64_t>(h.count, 1)));
    return true;
}

void
TraceBatchReader::close()
{
    if (file_) {
        std::fclose(static_cast<std::FILE *>(file_));
        file_ = nullptr;
    }
}

void
TraceBatchReader::refill()
{
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(chunkRecords, remaining_));
    if (std::fread(chunk_.data(), sizeof(DiskRecord), n,
                   static_cast<std::FILE *>(file_)) != n) {
        failed_ = true;
        return;
    }
    chunkPos_ = 0;
    chunkLen_ = n;
    remaining_ -= n;
}

bool
TraceBatchReader::next(RecordBatch &out, std::uint32_t max)
{
    out.clear();
    if (failed_ || file_ == nullptr || max == 0)
        return false;
    out.reserve(max);

    while (out.size < max && (chunkPos_ < chunkLen_ || remaining_ > 0)) {
        if (chunkPos_ == chunkLen_) {
            refill();
            if (failed_) {
                out.clear();
                return false;
            }
        }
        const auto *recs =
            reinterpret_cast<const DiskRecord *>(chunk_.data());
        const std::uint32_t take = static_cast<std::uint32_t>(
            std::min<std::size_t>(max - out.size,
                                  chunkLen_ - chunkPos_));
        // Scatter the packed disk fields into the batch columns. One
        // pass per column keeps each destination write stream dense.
        const std::uint32_t b = out.size;
        for (std::uint32_t i = 0; i < take; ++i)
            out.pc[b + i] = recs[chunkPos_ + i].pc;
        for (std::uint32_t i = 0; i < take; ++i)
            out.target[b + i] = recs[chunkPos_ + i].target;
        // A kind byte past InstrKind's range would replay as a control
        // instruction whose nextPc() falls through: reject the stream.
        std::uint8_t kindMax = 0;
        for (std::uint32_t i = 0; i < take; ++i) {
            const std::uint8_t k = recs[chunkPos_ + i].kind;
            out.kind[b + i] = k;
            kindMax = std::max(kindMax, k);
        }
        if (kindMax > maxDiskKind) {
            failed_ = true;
            out.clear();
            return false;
        }
        for (std::uint32_t i = 0; i < take; ++i)
            out.trapLevel[b + i] = recs[chunkPos_ + i].trapLevel;
        for (std::uint32_t i = 0; i < take; ++i)
            out.taken[b + i] = recs[chunkPos_ + i].taken != 0 ? 1 : 0;
        out.size = b + take;
        chunkPos_ += take;
        decoded_ += take;
    }

    out.computeBlocks();
    return out.size > 0;
}

} // namespace pifetch
