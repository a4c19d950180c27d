/**
 * Robustness fuzzing of the binary formats: random truncations and byte
 * corruptions of valid images must either decode to something valid or
 * throw mg::util::Error — never crash, hang, or silently misbehave.
 */
#include <gtest/gtest.h>

#include "io/checkpoint.h"
#include "io/extensions_io.h"
#include "io/mgz.h"
#include "io/reads_bin.h"
#include "sim/pangenome_gen.h"
#include "util/common.h"
#include "util/rng.h"
#include "util/status.h"

namespace mg::io {
namespace {

/** Valid MGZ image fixture. */
std::vector<uint8_t>
validMgz()
{
    sim::PangenomeParams params;
    params.seed = 701;
    params.backboneLength = 2000;
    params.haplotypes = 3;
    sim::GeneratedPangenome pg = sim::generatePangenome(params);
    return encodeMgz(pg.graph, pg.gbwt);
}

TEST(FuzzTest, TruncatedMgzNeverCrashes)
{
    std::vector<uint8_t> bytes = validMgz();
    util::Rng rng(710);
    for (int trial = 0; trial < 60; ++trial) {
        std::vector<uint8_t> cut(
            bytes.begin(),
            bytes.begin() + rng.uniform(bytes.size()));
        try {
            Pangenome pg = decodeMgz(cut);
            pg.graph.validate(); // if it decoded, it must be coherent
        } catch (const util::Error&) {
            // expected for most truncations
        }
    }
}

TEST(FuzzTest, CorruptedMgzNeverCrashes)
{
    std::vector<uint8_t> bytes = validMgz();
    util::Rng rng(711);
    for (int trial = 0; trial < 120; ++trial) {
        std::vector<uint8_t> bad = bytes;
        // Flip 1-4 random bytes.
        int flips = 1 + static_cast<int>(rng.uniform(4));
        for (int f = 0; f < flips; ++f) {
            bad[rng.uniform(bad.size())] ^=
                static_cast<uint8_t>(1 + rng.uniform(255));
        }
        try {
            Pangenome pg = decodeMgz(bad);
            // Decoded images may be semantically different but must pass
            // their own structural checks or have thrown above.
            pg.graph.validate();
        } catch (const util::Error&) {
        }
    }
}

TEST(FuzzTest, ExtensionsFileFuzz)
{
    std::vector<ReadExtensions> all(1);
    all[0].readName = "r";
    map::GaplessExtension ext;
    ext.path = {graph::Handle(3, false), graph::Handle(4, false)};
    ext.readEnd = 50;
    ext.mismatchOffsets = {4, 9};
    ext.score = 40;
    all[0].extensions.push_back(ext);
    std::vector<uint8_t> bytes = encodeExtensions(all);

    util::Rng rng(714);
    for (int trial = 0; trial < 100; ++trial) {
        std::vector<uint8_t> bad = bytes;
        if (rng.chance(0.5) && !bad.empty()) {
            bad.resize(rng.uniform(bad.size()));
        } else {
            bad[rng.uniform(bad.size())] ^= 0xff;
        }
        try {
            decodeExtensions(bad);
        } catch (const util::Error&) {
        }
    }
}

/**
 * The structured-error corruption fuzzer: 1000 seeded mutations of a
 * valid V2 container.  Flips avoid the 4-byte magic (which would turn
 * the file into a pseudo-V1 image and exercise the legacy path tested
 * separately below); every failed decode must surface as a StatusError
 * carrying the provenance we passed in — any other exception type
 * escapes the catch and fails the test.
 */
TEST(FuzzTest, MgzV2CorruptionFuzzerReportsStructuredErrors)
{
    std::vector<uint8_t> bytes = validMgz();
    ASSERT_GT(bytes.size(), 8u);
    size_t decoded_ok = 0;
    size_t structured = 0;
    for (uint64_t seed = 0; seed < 1000; ++seed) {
        util::Rng rng(80000 + seed);
        std::vector<uint8_t> bad = bytes;
        if (rng.chance(0.3)) {
            bad.resize(4 + rng.uniform(bad.size() - 4)); // keep the magic
        } else {
            int flips = 1 + static_cast<int>(rng.uniform(4));
            for (int f = 0; f < flips; ++f) {
                bad[4 + rng.uniform(bad.size() - 4)] ^=
                    static_cast<uint8_t>(1 + rng.uniform(255));
            }
        }
        bool decoded = false;
        try {
            Pangenome pg = decodeMgz(bad, "fuzz.mgz");
            decoded = true;
        } catch (const util::StatusError& e) {
            ++structured;
            EXPECT_NE(e.status().code, util::StatusCode::Ok);
            EXPECT_EQ(e.status().file, "fuzz.mgz");
        }
        decoded_ok += decoded ? 1 : 0;
    }
    // Per-section CRCs catch essentially every mutation.
    EXPECT_EQ(decoded_ok + structured, 1000u);
    EXPECT_GT(structured, 990u);
}

/** Same mutations against the legacy unversioned format: no checksums,
 *  so corrupt payloads reach the section decoders — they may throw any
 *  mg::util::Error but must never crash. */
TEST(FuzzTest, MgzV1CorruptionFuzzerNeverCrashes)
{
    sim::PangenomeParams params;
    params.seed = 704;
    params.backboneLength = 2000;
    params.haplotypes = 3;
    sim::GeneratedPangenome pg = sim::generatePangenome(params);
    std::vector<uint8_t> bytes =
        encodeMgz(pg.graph, pg.gbwt, MgzVersion::V1);

    for (uint64_t seed = 0; seed < 300; ++seed) {
        util::Rng rng(81000 + seed);
        std::vector<uint8_t> bad = bytes;
        if (rng.chance(0.3)) {
            bad.resize(rng.uniform(bad.size()));
        } else {
            bad[rng.uniform(bad.size())] ^=
                static_cast<uint8_t>(1 + rng.uniform(255));
        }
        try {
            Pangenome out = decodeMgz(bad);
            out.graph.validate();
        } catch (const util::Error&) {
            // any structured or legacy error is acceptable on V1
        }
    }
}

TEST(FuzzTest, RandomGarbageIsRejected)
{
    util::Rng rng(715);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<uint8_t> garbage(rng.uniform(200));
        for (auto& byte : garbage) {
            byte = static_cast<uint8_t>(rng.uniform(256));
        }
        EXPECT_THROW(decodeMgz(garbage), util::Error);
        EXPECT_THROW(decodeSeedCapture(garbage), util::Error);
        EXPECT_THROW(decodeExtensions(garbage), util::Error);
    }
}

// ------------------------------------------------------ checkpoint files

/** Valid checkpoint shard image. */
std::vector<uint8_t>
validShard()
{
    Shard shard;
    shard.begin = 128;
    shard.end = 160;
    for (uint64_t i = shard.begin; i < shard.end; ++i) {
        shard.gaf += "read" + std::to_string(i) +
                     "\t100\t0\t100\t+\tpath\t1\t0\t1\t1\t1\t60\n";
    }
    shard.stats.stepCapHits = 3;
    shard.stats.cacheLookups = 4096;
    return encodeShard(shard);
}

/** Valid checkpoint manifest image. */
std::vector<uint8_t>
validManifest()
{
    Manifest manifest;
    manifest.totalReads = 1000;
    for (uint64_t b = 0; b < 1000; b += 100) {
        manifest.shards.push_back(
            {b, b + 100, static_cast<uint32_t>(0xabc0 + b),
             shardFileName(b, b + 100)});
    }
    return encodeManifest(manifest);
}

/**
 * The checkpoint decoders are *total*: any truncation or bit flip of a
 * shard or manifest image yields a non-Ok Status — never an exception,
 * crash, or hang.  The trailing CRC makes essentially every mutation
 * detectable, and the structural validator catches what a colliding CRC
 * would let through.
 */
TEST(FuzzTest, CheckpointShardFuzzReturnsStatus)
{
    std::vector<uint8_t> bytes = validShard();
    Shard reference;
    ASSERT_TRUE(decodeShard(bytes, "s.mgs", reference).ok());

    size_t rejected = 0;
    for (uint64_t seed = 0; seed < 400; ++seed) {
        util::Rng rng(90000 + seed);
        std::vector<uint8_t> bad = bytes;
        if (rng.chance(0.4)) {
            bad.resize(rng.uniform(bad.size()));
        } else {
            int flips = 1 + static_cast<int>(rng.uniform(4));
            for (int f = 0; f < flips; ++f) {
                bad[rng.uniform(bad.size())] ^=
                    static_cast<uint8_t>(1 + rng.uniform(255));
            }
        }
        Shard out;
        util::Status status = decodeShard(bad, "s.mgs", out);
        rejected += status.ok() ? 0 : 1;
        if (status.ok()) {
            // A surviving decode must be the unmutated image (CRC
            // collision on a changed payload is the one thing the format
            // cannot promise against, but flips that land on dead bytes
            // do not exist — every byte is covered).
            EXPECT_EQ(out.begin, reference.begin);
            EXPECT_EQ(out.end, reference.end);
            EXPECT_EQ(out.gaf, reference.gaf);
        }
    }
    EXPECT_GT(rejected, 390u);
}

TEST(FuzzTest, CheckpointManifestFuzzReturnsStatus)
{
    std::vector<uint8_t> bytes = validManifest();
    Manifest reference;
    ASSERT_TRUE(decodeManifest(bytes, "m.mgc", reference).ok());

    size_t rejected = 0;
    for (uint64_t seed = 0; seed < 400; ++seed) {
        util::Rng rng(91000 + seed);
        std::vector<uint8_t> bad = bytes;
        if (rng.chance(0.4)) {
            bad.resize(rng.uniform(bad.size()));
        } else {
            int flips = 1 + static_cast<int>(rng.uniform(4));
            for (int f = 0; f < flips; ++f) {
                bad[rng.uniform(bad.size())] ^=
                    static_cast<uint8_t>(1 + rng.uniform(255));
            }
        }
        Manifest out;
        rejected += decodeManifest(bad, "m.mgc", out).ok() ? 0 : 1;
    }
    EXPECT_GT(rejected, 390u);
}

TEST(FuzzTest, CheckpointGarbageAndStructuralViolationsRejected)
{
    util::Rng rng(716);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<uint8_t> garbage(rng.uniform(200));
        for (auto& byte : garbage) {
            byte = static_cast<uint8_t>(rng.uniform(256));
        }
        Shard shard;
        EXPECT_FALSE(decodeShard(garbage, "g.mgs", shard).ok());
        Manifest manifest;
        EXPECT_FALSE(decodeManifest(garbage, "g.mgc", manifest).ok());
    }

    // Well-framed (valid CRC) images with illegal structure: duplicate
    // and overlapping shard ranges, inverted ranges, ranges past the end.
    auto rejects = [](Manifest bad) {
        Manifest out;
        return !decodeManifest(encodeManifest(bad), "m.mgc", out).ok();
    };
    Manifest base;
    base.totalReads = 100;

    Manifest duplicate = base;
    duplicate.shards.push_back({0, 50, 1, shardFileName(0, 50)});
    duplicate.shards.push_back({0, 50, 1, shardFileName(0, 50)});
    EXPECT_TRUE(rejects(duplicate));

    Manifest overlapping = base;
    overlapping.shards.push_back({0, 60, 1, shardFileName(0, 60)});
    overlapping.shards.push_back({40, 100, 2, shardFileName(40, 100)});
    EXPECT_TRUE(rejects(overlapping));

    Manifest inverted = base;
    inverted.shards.push_back({50, 20, 1, shardFileName(50, 20)});
    EXPECT_TRUE(rejects(inverted));

    Manifest past_end = base;
    past_end.shards.push_back({80, 120, 1, shardFileName(80, 120)});
    EXPECT_TRUE(rejects(past_end));

    Manifest nameless = base;
    nameless.shards.push_back({0, 50, 1, ""});
    EXPECT_TRUE(rejects(nameless));
}

} // namespace
} // namespace mg::io
