/**
 * The seed-capture decoder: round trip, the orientation-flag check, and
 * serial-versus-parallel equivalence.  The parallel decode must accept
 * exactly the inputs the serial one accepts, with an identical SeedCapture,
 * and reject the rest with the same (code, section, offset) — on generated
 * captures and on the truncation/corruption fuzz corpus.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "io/reads_bin.h"
#include "sim/pangenome_gen.h"
#include "sim/read_sim.h"
#include "util/rng.h"
#include "util/status.h"

namespace mg::io {
namespace {

/** One decode's result: the capture, or the error's provenance. */
struct Outcome
{
    std::optional<SeedCapture> capture;
    util::StatusCode code = util::StatusCode::Ok;
    std::string section;
    uint64_t offset = 0;
};

Outcome
decodeWith(const std::vector<uint8_t>& bytes, unsigned threads,
           size_t chunk_bytes = kCaptureChunkBytes)
{
    Outcome outcome;
    try {
        outcome.capture =
            decodeSeedCapture(bytes, "capture.bin", threads, chunk_bytes);
    } catch (const util::StatusError& e) {
        outcome.code = e.status().code;
        outcome.section = e.status().section;
        outcome.offset = e.status().offset;
    }
    return outcome;
}

uint32_t
scoreBits(float score)
{
    uint32_t bits;
    std::memcpy(&bits, &score, sizeof(bits));
    return bits;
}

void
expectSameCapture(const SeedCapture& a, const SeedCapture& b)
{
    EXPECT_EQ(a.pairedEnd, b.pairedEnd);
    ASSERT_EQ(a.entries.size(), b.entries.size());
    for (size_t r = 0; r < a.entries.size(); ++r) {
        const ReadWithSeeds& x = a.entries[r];
        const ReadWithSeeds& y = b.entries[r];
        EXPECT_EQ(x.read.name, y.read.name) << "entry " << r;
        EXPECT_EQ(x.read.sequence, y.read.sequence) << "entry " << r;
        EXPECT_EQ(x.read.mate, y.read.mate) << "entry " << r;
        ASSERT_EQ(x.seeds.size(), y.seeds.size()) << "entry " << r;
        for (size_t s = 0; s < x.seeds.size(); ++s) {
            EXPECT_TRUE(x.seeds[s] == y.seeds[s])
                << "entry " << r << " seed " << s;
            EXPECT_EQ(scoreBits(x.seeds[s].score),
                      scoreBits(y.seeds[s].score))
                << "entry " << r << " seed " << s;
        }
    }
}

void
expectSameOutcome(const Outcome& serial, const Outcome& parallel)
{
    ASSERT_EQ(serial.capture.has_value(), parallel.capture.has_value())
        << "serial " << util::statusCodeName(serial.code) << " @"
        << serial.offset << " vs parallel "
        << util::statusCodeName(parallel.code) << " @" << parallel.offset;
    if (serial.capture) {
        expectSameCapture(*serial.capture, *parallel.capture);
    } else {
        EXPECT_EQ(serial.code, parallel.code);
        EXPECT_EQ(serial.section, parallel.section);
        EXPECT_EQ(serial.offset, parallel.offset);
    }
}

/** Decode serially and in parallel with several shapes; all must agree. */
void
expectPathsAgree(const std::vector<uint8_t>& bytes)
{
    const Outcome serial = decodeWith(bytes, 1);
    for (unsigned threads : {2u, 3u, 8u}) {
        for (size_t chunk_bytes : {size_t{1}, size_t{64}, size_t{4096}}) {
            SCOPED_TRACE(::testing::Message() << threads << " threads, "
                                              << chunk_bytes
                                              << "-byte chunks");
            expectSameOutcome(serial,
                              decodeWith(bytes, threads, chunk_bytes));
        }
    }
}

/**
 * Random capture: `seed_counts[i]` seeds for entry i, with every field
 * drawn over its full width so varints of every length occur.
 */
SeedCapture
randomCapture(util::Rng& rng, const std::vector<size_t>& seed_counts)
{
    SeedCapture capture;
    capture.pairedEnd = rng.chance(0.5);
    for (size_t i = 0; i < seed_counts.size(); ++i) {
        ReadWithSeeds entry;
        entry.read.name = "read" + std::to_string(i) +
                          std::string(rng.uniform(40), 'n');
        for (uint64_t b = rng.uniform(300); b > 0; --b) {
            entry.read.sequence += "ACGT"[rng.uniform(4)];
        }
        entry.read.mate = rng.chance(0.5) ? SIZE_MAX : rng.uniform(1000);
        for (size_t s = 0; s < seed_counts[i]; ++s) {
            map::Seed seed;
            // Below 2^62, so the encoder's signed deltas cannot overflow.
            seed.position.handle = graph::Handle::fromPacked(
                rng.next() >> (2 + rng.uniform(62)));
            seed.position.offset =
                static_cast<uint32_t>(rng.next() >> rng.uniform(64));
            seed.readOffset = static_cast<uint32_t>(rng.uniform(1u << 16));
            seed.onReverseRead = rng.chance(0.5);
            uint32_t bits = static_cast<uint32_t>(rng.next());
            std::memcpy(&seed.score, &bits, sizeof(bits));
            entry.seeds.push_back(seed);
        }
        capture.entries.push_back(std::move(entry));
    }
    return capture;
}

TEST(SeedCaptureTest, RoundTrip)
{
    SeedCapture capture;
    capture.pairedEnd = true;
    for (int r = 0; r < 3; ++r) {
        ReadWithSeeds entry;
        entry.read.name = "read" + std::to_string(r);
        entry.read.sequence = "ACGTACGTAC";
        entry.read.mate = r == 0 ? 1 : SIZE_MAX;
        for (int s = 0; s < 4; ++s) {
            map::Seed seed;
            seed.position.handle = graph::Handle(10 + s, s % 2 == 1);
            seed.position.offset = static_cast<uint32_t>(s * 3);
            seed.readOffset = static_cast<uint32_t>(s);
            seed.onReverseRead = s % 2 == 0;
            seed.score = 0.125f * static_cast<float>(s + 1);
            entry.seeds.push_back(seed);
        }
        capture.entries.push_back(entry);
    }
    std::vector<uint8_t> bytes = encodeSeedCapture(capture);
    SeedCapture loaded = decodeSeedCapture(bytes);
    EXPECT_EQ(loaded.pairedEnd, capture.pairedEnd);
    ASSERT_EQ(loaded.entries.size(), capture.entries.size());
    for (size_t r = 0; r < capture.entries.size(); ++r) {
        EXPECT_EQ(loaded.entries[r].read.name,
                  capture.entries[r].read.name);
        EXPECT_EQ(loaded.entries[r].read.sequence,
                  capture.entries[r].read.sequence);
        EXPECT_EQ(loaded.entries[r].read.mate,
                  capture.entries[r].read.mate);
        ASSERT_EQ(loaded.entries[r].seeds.size(),
                  capture.entries[r].seeds.size());
        for (size_t s = 0; s < capture.entries[r].seeds.size(); ++s) {
            const map::Seed& a = loaded.entries[r].seeds[s];
            const map::Seed& b = capture.entries[r].seeds[s];
            EXPECT_TRUE(a == b);
            EXPECT_EQ(a.score, b.score); // exact float round-trip
        }
    }
}

TEST(SeedCaptureTest, OrientationFlagAboveOneIsCorrupt)
{
    // One entry, one seed with score 0: the capture ends with the
    // orientation flag and the one-byte score varint.
    SeedCapture capture;
    ReadWithSeeds entry;
    entry.read.name = "r";
    entry.read.sequence = "ACGT";
    map::Seed seed;
    seed.onReverseRead = true;
    seed.score = 0.0f;
    entry.seeds.push_back(seed);
    capture.entries.push_back(entry);
    const std::vector<uint8_t> good = encodeSeedCapture(capture);
    const size_t flag_at = good.size() - 2;
    ASSERT_EQ(good[flag_at], 1);

    for (uint8_t flag : {uint8_t{2}, uint8_t{0x7f}, uint8_t{0x81}}) {
        std::vector<uint8_t> bad = good;
        bad[flag_at] = flag;
        for (unsigned threads : {1u, 4u}) {
            Outcome outcome = decodeWith(bad, threads, 1);
            ASSERT_FALSE(outcome.capture) << unsigned{flag};
            EXPECT_EQ(outcome.code, util::StatusCode::Corrupt);
            EXPECT_EQ(outcome.section, "entries");
            EXPECT_EQ(outcome.offset, flag_at);
        }
    }
}

TEST(SeedCaptureTest, ParallelMatchesSerialOnGeneratedCaptures)
{
    util::Rng rng(1201);
    const std::vector<std::vector<size_t>> shapes = {
        {},                      // no entries
        {3},                     // one entry: more threads than entries
        {0},                     // one entry without seeds
        {0, 0, 0},               // only seedless entries
        {2, 0, 5, 0, 1, 0, 0, 9}, // seedless entries among others
        {1, 600, 1, 1},          // one entry far larger than a chunk
    };
    for (const std::vector<size_t>& shape : shapes) {
        SCOPED_TRACE(::testing::Message() << shape.size() << " entries");
        SeedCapture capture = randomCapture(rng, shape);
        std::vector<uint8_t> bytes = encodeSeedCapture(capture);
        expectPathsAgree(bytes);
        Outcome parallel = decodeWith(bytes, 4, 64);
        ASSERT_TRUE(parallel.capture);
        expectSameCapture(*parallel.capture, capture);
    }
    std::vector<size_t> many(200);
    for (size_t& count : many) {
        count = rng.uniform(30);
    }
    SeedCapture capture = randomCapture(rng, many);
    expectPathsAgree(encodeSeedCapture(capture));
}

TEST(SeedCaptureTest, LargeInputDecodesInParallelByDefault)
{
    util::Rng rng(1202);
    SeedCapture capture = randomCapture(rng, std::vector<size_t>(3000, 40));
    std::vector<uint8_t> bytes = encodeSeedCapture(capture);
    ASSERT_GE(bytes.size(), kCaptureParallelMinBytes);
    expectSameCapture(decodeSeedCapture(bytes), capture);
    // A damaged large input reports the serial decode's error.
    bytes.pop_back();
    const Outcome serial = decodeWith(bytes, 1);
    EXPECT_EQ(serial.code, util::StatusCode::Truncated);
    expectSameOutcome(serial, decodeWith(bytes, 0));
}

// ------------------------------------------------------------ fuzz corpus

std::vector<uint8_t>
validCapture()
{
    sim::PangenomeParams params;
    params.seed = 702;
    params.backboneLength = 2000;
    params.haplotypes = 3;
    sim::GeneratedPangenome pg = sim::generatePangenome(params);
    sim::ReadSimParams rparams;
    rparams.seed = 703;
    rparams.count = 10;
    rparams.readLength = 60;
    map::ReadSet reads = sim::simulateReads(pg, rparams);
    SeedCapture capture;
    for (const map::Read& read : reads.reads) {
        ReadWithSeeds entry;
        entry.read = read;
        map::Seed seed;
        seed.position.handle = graph::Handle(1, false);
        seed.readOffset = 3;
        seed.score = 1.0f;
        entry.seeds.push_back(seed);
        capture.entries.push_back(entry);
    }
    return encodeSeedCapture(capture);
}

TEST(FuzzTest, TruncatedCaptureNeverCrashes)
{
    std::vector<uint8_t> bytes = validCapture();
    util::Rng rng(712);
    for (int trial = 0; trial < 60; ++trial) {
        std::vector<uint8_t> cut(
            bytes.begin(),
            bytes.begin() + rng.uniform(bytes.size()));
        SCOPED_TRACE(::testing::Message() << "cut at " << cut.size());
        expectPathsAgree(cut);
    }
}

TEST(FuzzTest, CorruptedCaptureNeverCrashes)
{
    std::vector<uint8_t> bytes = validCapture();
    util::Rng rng(713);
    for (int trial = 0; trial < 120; ++trial) {
        std::vector<uint8_t> bad = bytes;
        size_t at = rng.uniform(bad.size());
        bad[at] ^= static_cast<uint8_t>(1 + rng.uniform(255));
        SCOPED_TRACE(::testing::Message() << "byte " << at);
        expectPathsAgree(bad);
    }
}

TEST(FuzzTest, EveryHighBitFlipAgreesAcrossPaths)
{
    // Flipping a high bit turns a varint terminator into a continuation
    // byte or back, which is exactly what the boundary scan counts.
    std::vector<uint8_t> bytes = validCapture();
    for (size_t at = 0; at < bytes.size(); ++at) {
        std::vector<uint8_t> bad = bytes;
        bad[at] ^= 0x80;
        SCOPED_TRACE(::testing::Message() << "byte " << at);
        const Outcome serial = decodeWith(bad, 1);
        expectSameOutcome(serial, decodeWith(bad, 4, 1));
        expectSameOutcome(serial, decodeWith(bad, 2, 200));
    }
}

} // namespace
} // namespace mg::io
