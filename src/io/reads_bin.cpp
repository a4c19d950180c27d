#include "io/reads_bin.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <thread>

#include "fault/fault.h"
#include "io/file.h"
#include "sched/scheduler.h"
#include "util/common.h"
#include "util/cursor.h"
#include "util/varint.h"

namespace mg::io {

namespace {

constexpr char kMagic[4] = { 'M', 'G', 'S', '1' };

/**
 * A seed is four varints and the orientation byte (0 or 1), so it holds
 * exactly this many bytes with the high bit clear — one terminator per
 * field.  Counting them finds an entry's end without decoding its seeds.
 */
constexpr uint64_t kTerminatorsPerSeed = 5;

constexpr size_t kNoEnd = SIZE_MAX;

/** Decode the magic and the header fields; returns the entry count. */
uint64_t
decodeHeader(util::ByteCursor& cursor, SeedCapture& capture)
{
    cursor.enterSection("magic");
    char magic[4];
    cursor.getBytes(magic, sizeof(magic));
    cursor.check(std::equal(magic, magic + 4, kMagic),
                 util::StatusCode::Corrupt,
                 "not a reads+seeds capture (bad magic)");
    cursor.enterSection("entries");
    capture.pairedEnd = cursor.getByte() != 0;
    uint64_t num_entries = cursor.getVarint();
    cursor.check(num_entries <= cursor.remaining(),
                 util::StatusCode::Corrupt,
                 "capture entry count exceeds remaining payload");
    return num_entries;
}

/** Decode the entry at the cursor.  The one kernel both paths run. */
void
decodeEntry(util::ByteCursor& cursor, ReadWithSeeds& entry)
{
    cursor.getString(entry.read.name);
    cursor.getString(entry.read.sequence);
    uint64_t mate = cursor.getVarint();
    entry.read.mate = mate == 0 ? SIZE_MAX : mate - 1;
    uint64_t num_seeds = cursor.getVarint();
    cursor.check(num_seeds <= cursor.remaining(),
                 util::StatusCode::Corrupt,
                 "seed count exceeds remaining payload");
    entry.seeds.resize(num_seeds);
    // Unsigned, so a damaged delta wraps instead of overflowing.
    uint64_t packed = 0;
    for (map::Seed& seed : entry.seeds) {
        packed += static_cast<uint64_t>(cursor.getSignedVarint());
        seed.position.handle = graph::Handle::fromPacked(packed);
        seed.position.offset = static_cast<uint32_t>(cursor.getVarint());
        seed.readOffset = static_cast<uint32_t>(cursor.getVarint());
        const size_t flag_at = cursor.pos();
        const uint8_t flag = cursor.getByte();
        if (flag > 1) {
            cursor.seek(flag_at);
            cursor.raise(util::StatusCode::Corrupt,
                         util::cat("seed orientation flag ", unsigned{flag},
                                   " is neither 0 nor 1"));
        }
        seed.onReverseRead = flag == 1;
        uint32_t score_bits = static_cast<uint32_t>(cursor.getVarint());
        std::memcpy(&seed.score, &score_bits, sizeof(seed.score));
    }
}

/** The reference decode, on the calling thread. */
SeedCapture
decodeSerial(const std::vector<uint8_t>& input, std::string_view file)
{
    util::ByteCursor cursor(input, file);
    SeedCapture capture;
    uint64_t num_entries = decodeHeader(cursor, capture);
    capture.entries.reserve(num_entries);
    for (uint64_t i = 0; i < num_entries; ++i) {
        decodeEntry(cursor, capture.entries.emplace_back());
    }
    cursor.check(cursor.atEnd(), util::StatusCode::Corrupt,
                 "trailing bytes after seed capture");
    return capture;
}

/** Per byte lane of the 8 bytes at `p`: 1 if its high bit is clear. */
inline uint64_t
terminatorBytes(const uint8_t* p)
{
    constexpr uint64_t kHiBytes = 0x8080808080808080ull;
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    return (~word & kHiBytes) >> 7;
}

/** Sum of the eight byte lanes (each lane and the sum below 256). */
inline uint64_t
sumBytes(uint64_t lanes)
{
    return (lanes * 0x0101010101010101ull) >> 56;
}

/**
 * Offset just past the `count`-th byte with the high bit clear at or after
 * `pos`, or kNoEnd if the input runs out first.  Counts 64 bytes per step
 * with byte-lane sums (no popcount instruction needed), then narrows to
 * the word and the byte.
 */
size_t
skipTerminators(const uint8_t* data, size_t size, size_t pos, uint64_t count)
{
    if (count == 0) {
        return pos;
    }
    constexpr size_t kBlock = 64; // eight words: each lane sums to <= 8
    for (; size - pos >= kBlock; pos += kBlock) {
        uint64_t lanes = 0;
        for (size_t w = 0; w < kBlock; w += 8) {
            lanes += terminatorBytes(data + pos + w);
        }
        uint64_t n = sumBytes(lanes);
        if (n >= count) {
            break;
        }
        count -= n;
    }
    for (; size - pos >= 8; pos += 8) {
        uint64_t n = sumBytes(terminatorBytes(data + pos));
        if (n >= count) {
            break;
        }
        count -= n;
    }
    for (; pos < size; ++pos) {
        if (data[pos] < 0x80 && --count == 0) {
            return pos + 1;
        }
    }
    return kNoEnd;
}

/**
 * Boundary scan: the start offset of every entry, then the end of the
 * last.  Reads only the entry headers and skips the seeds by counting
 * terminators.  Empty if the input is not a sequence of `num_entries`
 * entries that ends exactly at the end of the input; exact whenever the
 * serial decode succeeds.
 *
 * Also appends one entry per scanned header to `entries`, with its
 * strings and seed vector allocated at their decoded sizes.  Allocating
 * here, on the calling thread, keeps the capture in the caller's malloc
 * arena as the serial decode does; the workers then fill that memory in
 * place (first touch, the costly part, stays parallel).
 */
std::vector<size_t>
scanEntries(util::ByteCursor& cursor, uint64_t num_entries,
            std::vector<ReadWithSeeds>& entries)
{
    std::vector<size_t> starts;
    starts.reserve(num_entries + 1);
    entries.reserve(num_entries);
    for (uint64_t i = 0; i < num_entries; ++i) {
        starts.push_back(cursor.pos());
        ReadWithSeeds& entry = entries.emplace_back();
        for (std::string* field : {&entry.read.name, &entry.read.sequence}) {
            uint64_t length = cursor.getVarint();
            if (length > cursor.remaining()) {
                return {};
            }
            field->reserve(length);
            cursor.seek(cursor.pos() + length);
        }
        cursor.getVarint(); // mate
        uint64_t num_seeds = cursor.getVarint();
        if (num_seeds > cursor.remaining()) {
            return {};
        }
        entry.seeds.reserve(num_seeds);
        size_t end = skipTerminators(cursor.data(), cursor.size(),
                                     cursor.pos(),
                                     num_seeds * kTerminatorsPerSeed);
        if (end == kNoEnd) {
            return {};
        }
        cursor.seek(end);
    }
    if (!cursor.atEnd()) {
        return {};
    }
    starts.push_back(cursor.pos());
    return starts;
}

/**
 * Decode entries in contiguous chunks of about `chunk_bytes` over
 * `threads` work-stealing workers.  Each worker seeks to its chunk's first
 * entry and runs decodeEntry.  An entry that decodes started where the
 * serial decode would start it, so it ends where the scan put the next
 * one: the result is the serial result.  Returns nullopt if the input is
 * malformed; the caller then runs the serial decode for the canonical
 * error.  Resource errors (allocation, thread creation) propagate.
 */
std::optional<SeedCapture>
decodeParallel(const std::vector<uint8_t>& input, std::string_view file,
               unsigned threads, size_t chunk_bytes)
{
    SeedCapture capture;
    std::vector<size_t> starts;
    try {
        util::ByteCursor cursor(input, file);
        starts = scanEntries(cursor, decodeHeader(cursor, capture),
                             capture.entries);
    } catch (const util::Error&) {
        return std::nullopt;
    }
    if (starts.empty()) {
        return std::nullopt;
    }
    const size_t num_entries = starts.size() - 1;
    // chunks[c] is the first entry of chunk c; the last element ends them.
    std::vector<size_t> chunks;
    for (size_t e = 0; e < num_entries; ++e) {
        if (chunks.empty() ||
            starts[e] - starts[chunks.back()] >= chunk_bytes) {
            chunks.push_back(e);
        }
    }
    chunks.push_back(num_entries);
    const size_t num_chunks = chunks.size() - 1;

    try {
        auto scheduler =
            sched::makeScheduler(sched::SchedulerKind::WorkStealing);
        scheduler->run(
            num_chunks, 1,
            std::clamp<size_t>(num_chunks, 1, threads),
            [&](size_t, size_t begin, size_t end) {
                for (size_t c = begin; c < end; ++c) {
                    util::ByteCursor cursor(input, file);
                    cursor.enterSection("entries");
                    cursor.seek(starts[chunks[c]]);
                    for (size_t e = chunks[c]; e < chunks[c + 1]; ++e) {
                        decodeEntry(cursor, capture.entries[e]);
                        // decodeEntry consumed exactly the scan's five
                        // terminators per seed, or it threw.
                        MG_ASSERT(cursor.pos() == starts[e + 1]);
                    }
                }
            });
    } catch (const util::Error&) {
        return std::nullopt;
    }
    return capture;
}

} // namespace

std::vector<uint8_t>
encodeSeedCapture(const SeedCapture& capture)
{
    util::ByteWriter writer;
    writer.putBytes(kMagic, sizeof(kMagic));
    writer.putByte(capture.pairedEnd ? 1 : 0);
    writer.putVarint(capture.entries.size());
    for (const ReadWithSeeds& entry : capture.entries) {
        writer.putString(entry.read.name);
        writer.putString(entry.read.sequence);
        writer.putVarint(entry.read.mate == SIZE_MAX
                             ? 0
                             : entry.read.mate + 1);
        writer.putVarint(entry.seeds.size());
        uint64_t prev_packed = 0;
        for (const map::Seed& seed : entry.seeds) {
            writer.putSignedVarint(
                static_cast<int64_t>(seed.position.handle.packed()) -
                static_cast<int64_t>(prev_packed));
            prev_packed = seed.position.handle.packed();
            writer.putVarint(seed.position.offset);
            writer.putVarint(seed.readOffset);
            writer.putByte(seed.onReverseRead ? 1 : 0);
            // Exact float bits: the functional validation requires seeds
            // loaded from a capture to behave identically to inline ones.
            uint32_t score_bits;
            std::memcpy(&score_bits, &seed.score, sizeof(score_bits));
            writer.putVarint(score_bits);
        }
    }
    return writer.takeBytes();
}

SeedCapture
decodeSeedCapture(const std::vector<uint8_t>& bytes, std::string_view file,
                  unsigned threads, size_t chunk_bytes)
{
    // Fault point: damaged capture reaching the decoder.  Applied once, to
    // the whole input, so the scan, the chunks and any serial re-run all
    // see the same bytes.
    std::optional<std::vector<uint8_t>> injected =
        fault::corrupted("io.reads_bin.decode", bytes);
    const std::vector<uint8_t>& input = injected ? *injected : bytes;

    if (threads == 0) {
        threads = input.size() < kCaptureParallelMinBytes
                      ? 1
                      : std::max(1u, std::thread::hardware_concurrency());
    }
    if (threads > 1) {
        std::optional<SeedCapture> capture =
            decodeParallel(input, file, threads, chunk_bytes);
        if (capture) {
            return std::move(*capture);
        }
        // The parallel decode refuses exactly the inputs the serial decode
        // rejects, so this throws the canonical error.
        decodeSerial(input, file);
        MG_ASSERT(!"parallel decode refused a capture the serial one accepts");
    }
    return decodeSerial(input, file);
}

void
saveSeedCapture(const std::string& path, const SeedCapture& capture)
{
    writeFileBytes(path, encodeSeedCapture(capture));
}

SeedCapture
loadSeedCapture(const std::string& path)
{
    return decodeSeedCapture(readFileBytes(path), path);
}

} // namespace mg::io
