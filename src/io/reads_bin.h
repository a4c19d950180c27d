/**
 * @file
 * The reads+seeds binary format — miniGiraffe's primary input.  The paper's
 * proxy consumes a "sequence-seeds.bin" file holding the short reads and
 * the seeds Giraffe's preprocessing found for them, captured right before
 * the seed-and-extend region.  Our parent emulator produces the same
 * capture; the proxy loads it and runs only the critical functions.
 */
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "map/read.h"
#include "map/seed.h"

namespace mg::io {

/** One read plus its precomputed seeds. */
struct ReadWithSeeds
{
    map::Read read;
    map::SeedVector seeds;
};

/** The proxy's input: the captured preprocessing output. */
struct SeedCapture
{
    std::vector<ReadWithSeeds> entries;
    bool pairedEnd = false;
};

/** Serialize a capture to bytes. */
std::vector<uint8_t> encodeSeedCapture(const SeedCapture& capture);

/** Input size from which decodeSeedCapture decodes in parallel. */
inline constexpr size_t kCaptureParallelMinBytes = size_t{1} << 20;
/** Target bytes of entries per parallel decode chunk. */
inline constexpr size_t kCaptureChunkBytes = size_t{64} << 10;

/**
 * Parse capture bytes; throws mg::util::StatusError on malformed input
 * (with `file`, when given, as provenance).
 *
 * `threads` == 0 picks the decode: inputs below kCaptureParallelMinBytes
 * decode serially on the calling thread, larger ones over
 * hardware_concurrency() threads.  1 forces the serial decode, more forces
 * the parallel one with that many threads (tests use this, with a small
 * `chunk_bytes`, to drive the parallel path on small captures).  Every
 * choice returns the same capture or throws the same error.
 */
SeedCapture decodeSeedCapture(const std::vector<uint8_t>& bytes,
                              std::string_view file = {},
                              unsigned threads = 0,
                              size_t chunk_bytes = kCaptureChunkBytes);

/** Convenience file wrappers. */
void saveSeedCapture(const std::string& path, const SeedCapture& capture);
SeedCapture loadSeedCapture(const std::string& path);

} // namespace mg::io
