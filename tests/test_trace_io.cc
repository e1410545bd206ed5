/**
 * @file
 * Trace file I/O tests: TraceWriter and TraceBatchReader.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "common/rng.hh"
#include "test_util.hh"
#include "trace/trace_io.hh"

namespace pifetch {
namespace {

using testutil::writeRecords;

constexpr std::size_t headerBytes = 16;  // magic+version+count
constexpr std::size_t recordBytes = 24;

std::vector<RetiredInstr>
sampleTrace()
{
    std::vector<RetiredInstr> t;
    RetiredInstr a;
    a.pc = 0x1000;
    a.kind = InstrKind::Plain;
    t.push_back(a);

    RetiredInstr b;
    b.pc = 0x1004;
    b.kind = InstrKind::CondBranch;
    b.target = 0x2000;
    b.taken = true;
    t.push_back(b);

    RetiredInstr c;
    c.pc = 0x2000;
    c.kind = InstrKind::Return;
    c.target = 0x1008;
    c.taken = true;
    c.trapLevel = 1;
    t.push_back(c);
    return t;
}

/** @p count records cycling through kinds, targets and trap levels. */
std::vector<RetiredInstr>
mixedTrace(std::size_t count)
{
    std::vector<RetiredInstr> trace;
    trace.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        RetiredInstr r;
        r.pc = 0x40000000 + i * 4;
        r.kind = static_cast<InstrKind>(i % 5);
        r.target = (i % 3 == 0) ? 0x50000000 + i : invalidAddr;
        r.taken = i % 2 == 0;
        r.trapLevel = static_cast<TrapLevel>(i % 2);
        trace.push_back(r);
    }
    return trace;
}

/**
 * Decode all of @p path through TraceBatchReader into @p out.
 * @return false if the open or any batch fails (@p out is then empty).
 */
bool
readRecords(const std::string &path, std::vector<RetiredInstr> &out)
{
    out.clear();
    TraceBatchReader reader;
    if (!reader.open(path))
        return false;
    RecordBatch batch;
    while (reader.next(batch)) {
        for (std::uint32_t i = 0; i < batch.size; ++i)
            out.push_back(batch.get(i));
    }
    // Whether the stream ended or failed, the last batch is empty.
    EXPECT_EQ(batch.size, 0u);
    if (reader.failed()) {
        out.clear();
        return false;
    }
    EXPECT_EQ(reader.decoded(), out.size());
    EXPECT_EQ(reader.count(), out.size());
    return true;
}

void
expectSameRecords(const std::vector<RetiredInstr> &got,
                  const std::vector<RetiredInstr> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i].pc, want[i].pc) << "record " << i;
        ASSERT_EQ(got[i].target, want[i].target) << "record " << i;
        ASSERT_EQ(got[i].kind, want[i].kind) << "record " << i;
        ASSERT_EQ(got[i].taken, want[i].taken) << "record " << i;
        ASSERT_EQ(got[i].trapLevel, want[i].trapLevel) << "record " << i;
    }
}

class TraceIoTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "pifetch_trace_test.bin";
    }

    void TearDown() override { std::remove(path_.c_str()); }

    /** Overwrite @p len bytes at @p offset of the trace file. */
    void
    patch(long offset, const void *bytes, std::size_t len)
    {
        std::FILE *f = std::fopen(path_.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(0, std::fseek(f, offset, SEEK_SET));
        ASSERT_EQ(len, std::fwrite(bytes, 1, len, f));
        ASSERT_EQ(0, std::fclose(f));
    }

    std::string path_;
};

TEST_F(TraceIoTest, RoundTripPreservesAllFields)
{
    const auto original = sampleTrace();
    ASSERT_TRUE(writeRecords(path_, original));

    std::vector<RetiredInstr> replay;
    ASSERT_TRUE(readRecords(path_, replay));
    expectSameRecords(replay, original);
}

TEST_F(TraceIoTest, EmptyTraceRoundTrips)
{
    ASSERT_TRUE(writeRecords(path_, {}));
    std::vector<RetiredInstr> replay = sampleTrace();
    ASSERT_TRUE(readRecords(path_, replay));
    EXPECT_TRUE(replay.empty());
}

TEST_F(TraceIoTest, MissingFileFails)
{
    TraceBatchReader reader;
    EXPECT_FALSE(reader.open(path_ + ".nope"));
    EXPECT_TRUE(reader.failed());
}

TEST_F(TraceIoTest, BadMagicRejected)
{
    std::FILE *f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[32] = "this is not a pifetch trace";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);

    TraceBatchReader reader;
    EXPECT_FALSE(reader.open(path_));
}

TEST_F(TraceIoTest, TruncatedFileRejected)
{
    ASSERT_TRUE(writeRecords(path_, sampleTrace()));
    // Truncate mid-record.
    std::FILE *f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(0, truncate(path_.c_str(), size - 10));

    TraceBatchReader reader;
    EXPECT_FALSE(reader.open(path_));
}

TEST_F(TraceIoTest, LargeTraceRoundTrips)
{
    std::vector<RetiredInstr> big;
    big.reserve(100000);
    for (Addr i = 0; i < 100000; ++i) {
        RetiredInstr r;
        r.pc = i * 4;
        r.kind = (i % 7 == 0) ? InstrKind::Call : InstrKind::Plain;
        r.target = (i % 7 == 0) ? i * 8 : invalidAddr;
        big.push_back(r);
    }
    ASSERT_TRUE(writeRecords(path_, big));
    std::vector<RetiredInstr> replay;
    ASSERT_TRUE(readRecords(path_, replay));
    expectSameRecords(replay, big);
}

TEST_F(TraceIoTest, CorruptHeaderCountRejectedWithoutAllocating)
{
    // A valid small file whose header then claims ~768 billion
    // records: sizing a buffer for that many would demand ~17 TB
    // before the first record read could fail. The reader must
    // bounds-check the count against the file size and reject up
    // front.
    ASSERT_TRUE(writeRecords(path_, sampleTrace()));
    const std::uint64_t bogus = 0xb2d05e00000000ull;
    patch(8, &bogus, sizeof(bogus));  // magic+version = 8 B

    TraceBatchReader reader;
    EXPECT_FALSE(reader.open(path_));
    EXPECT_TRUE(reader.failed());
}

TEST_F(TraceIoTest, CountLargerThanPayloadRejected)
{
    // Off-by-one flavour: header promises one more record than the
    // payload holds.
    ASSERT_TRUE(writeRecords(path_, sampleTrace()));
    const std::uint64_t bogus = sampleTrace().size() + 1;
    patch(8, &bogus, sizeof(bogus));

    TraceBatchReader reader;
    EXPECT_FALSE(reader.open(path_));
}

TEST_F(TraceIoTest, TrailingBytesBeyondCountAreIgnored)
{
    ASSERT_TRUE(writeRecords(path_, sampleTrace()));
    std::FILE *f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char extra[7] = "extra!";
    ASSERT_EQ(sizeof(extra),
              std::fwrite(extra, 1, sizeof(extra), f));
    ASSERT_EQ(0, std::fclose(f));

    std::vector<RetiredInstr> replay;
    ASSERT_TRUE(readRecords(path_, replay));
    EXPECT_EQ(replay.size(), sampleTrace().size());
}

TEST_F(TraceIoTest, HeaderOnlyFileWithZeroCountSucceeds)
{
    ASSERT_TRUE(writeRecords(path_, {}));
    std::vector<RetiredInstr> replay;
    ASSERT_TRUE(readRecords(path_, replay));
    EXPECT_TRUE(replay.empty());

    // ...but a bare header claiming records is rejected.
    const std::uint64_t bogus = 1;
    patch(8, &bogus, sizeof(bogus));
    TraceBatchReader reader;
    EXPECT_FALSE(reader.open(path_));
}

TEST_F(TraceIoTest, ChunkBoundaryTraceRoundTripsAllFields)
{
    // Sizes straddling the 32K-record chunk: below, exactly one
    // chunk, one over, and a multi-chunk trace with a partial tail.
    const std::size_t sizes[] = {32767, 32768, 32769, 70001};
    for (const std::size_t count : sizes) {
        SCOPED_TRACE(count);
        const std::vector<RetiredInstr> trace = mixedTrace(count);
        ASSERT_TRUE(writeRecords(path_, trace));
        std::vector<RetiredInstr> replay;
        ASSERT_TRUE(readRecords(path_, replay));
        expectSameRecords(replay, trace);
    }
}

TEST_F(TraceIoTest, OutOfRangeKindFailsTheStream)
{
    // docs/trace_format.md: kind is an InstrKind, 0..6. A larger byte
    // would decode as a control instruction whose nextPc() falls
    // through; the reader must fail the stream instead.
    const long kindOffset = headerBytes + 2 * recordBytes + 16;
    for (const std::uint8_t kind : {7, 200, 255}) {
        SCOPED_TRACE(static_cast<int>(kind));
        ASSERT_TRUE(writeRecords(path_, sampleTrace()));
        patch(kindOffset, &kind, 1);

        TraceBatchReader reader;
        ASSERT_TRUE(reader.open(path_));  // the header is intact
        RecordBatch batch;
        EXPECT_FALSE(reader.next(batch));
        EXPECT_TRUE(reader.failed());
        EXPECT_EQ(batch.size, 0u);
        EXPECT_FALSE(reader.next(batch));  // failure is sticky
    }

    // The last valid kind still decodes.
    ASSERT_TRUE(writeRecords(path_, sampleTrace()));
    const auto trapReturn =
        static_cast<std::uint8_t>(InstrKind::TrapReturn);
    patch(kindOffset, &trapReturn, 1);
    std::vector<RetiredInstr> replay;
    ASSERT_TRUE(readRecords(path_, replay));
    ASSERT_EQ(replay.size(), 3u);
    EXPECT_EQ(replay[2].kind, InstrKind::TrapReturn);
}

TEST_F(TraceIoTest, WriteToUnwritablePathFails)
{
    TraceWriter writer;
    EXPECT_FALSE(writer.open("/nonexistent-dir/trace.bin"));
    writer.add(sampleTrace()[0]);
    EXPECT_FALSE(writer.finish());
    EXPECT_TRUE(writer.failed());
    EXPECT_FALSE(writer.error().empty());
}

TEST_F(TraceIoTest, WriteToFullDeviceReportsFailure)
{
    // /dev/full accepts the open and fails every write with ENOSPC.
    // Small traces sit in stdio's buffer until finish() flushes; the
    // 40,000-record one fails at its first full-chunk write. Either
    // way finish() must report the loss, never succeed silently.
    for (const std::size_t count : {0, 10, 40'000}) {
        SCOPED_TRACE(count);
        TraceWriter writer;
        ASSERT_TRUE(writer.open("/dev/full"));
        for (const RetiredInstr &r : mixedTrace(count))
            writer.add(r);
        EXPECT_FALSE(writer.finish());
        EXPECT_TRUE(writer.failed());
        EXPECT_FALSE(writer.error().empty());
    }
}

TEST_F(TraceIoTest, FuzzedCorruptionNeverCrashesOrLeaksState)
{
    // Seeded corruption fuzz over the three failure families the
    // reader must survive: truncation anywhere (including
    // mid-header), random bit flips, and short header-only stubs.
    // The contract under attack: the reader never crashes, never
    // over-allocates, and a failing next() leaves its batch empty
    // (no partial-state leak). A payload-only bit flip may still
    // parse — the format carries no checksum — but then every record
    // has a valid kind and the record count matches whatever the
    // (possibly flipped) header promised against the actual payload.
    const std::vector<RetiredInstr> original = mixedTrace(1'000);
    ASSERT_TRUE(writeRecords(path_, original));

    std::string pristine;
    {
        std::ifstream is(path_, std::ios::binary);
        std::ostringstream buf;
        buf << is.rdbuf();
        ASSERT_TRUE(is);
        pristine = buf.str();
    }
    ASSERT_EQ(pristine.size(), headerBytes + original.size() * recordBytes);

    Rng rng(0x7ace10);
    const std::string mutated_path = path_ + ".fuzz";
    for (int iter = 0; iter < 400; ++iter) {
        SCOPED_TRACE(iter);
        std::string mutated = pristine;
        switch (rng.below(3)) {
          case 0:  // truncate anywhere, including inside the header
            mutated.resize(rng.below(mutated.size() + 1));
            break;
          case 1: {  // flip 1..8 random bits anywhere
            const std::uint64_t flips = rng.range(1, 8);
            for (std::uint64_t f = 0; f < flips; ++f) {
                const std::size_t byte = rng.below(mutated.size());
                mutated[byte] = static_cast<char>(
                    mutated[byte] ^ (1u << rng.below(8)));
            }
            break;
          }
          default:  // header-only stub, possibly partial
            mutated.resize(rng.below(headerBytes + 1));
            break;
        }
        {
            std::ofstream os(mutated_path, std::ios::binary);
            os << mutated;
            ASSERT_TRUE(os.good());
        }

        TraceBatchReader reader;
        if (!reader.open(mutated_path)) {
            EXPECT_TRUE(reader.failed());
            continue;
        }
        // The open succeeds only on an intact header whose count fits
        // the payload.
        ASSERT_GE(mutated.size(), headerBytes);
        std::uint64_t count = 0;
        std::memcpy(&count, mutated.data() + 8, sizeof(count));
        EXPECT_EQ(reader.count(), count);
        EXPECT_LE(headerBytes + count * recordBytes, mutated.size());

        RecordBatch batch;
        bool kindsValid = true;
        while (reader.next(batch)) {
            EXPECT_GT(batch.size, 0u);
            for (std::uint32_t i = 0; i < batch.size; ++i)
                kindsValid = kindsValid &&
                             batch.kind[i] <= static_cast<std::uint8_t>(
                                                  InstrKind::TrapReturn);
        }
        EXPECT_EQ(batch.size, 0u) << "a failed batch leaked records";
        EXPECT_TRUE(kindsValid);
        if (!reader.failed()) {
            EXPECT_EQ(reader.decoded(), count);
        }
    }
    std::remove(mutated_path.c_str());
}

} // namespace
} // namespace pifetch
