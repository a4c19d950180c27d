/** Serialization round-trip and validation tests for the io module. */
#include <gtest/gtest.h>

#include "io/extensions_io.h"
#include "io/fastq.h"
#include "io/file.h"
#include "io/mgz.h"
#include "sim/pangenome_gen.h"
#include "util/common.h"
#include "util/status.h"
#include "test_tmpdir.h"

namespace mg::io {
namespace {

sim::GeneratedPangenome
makePangenome(uint64_t seed = 90)
{
    sim::PangenomeParams params;
    params.seed = seed;
    params.backboneLength = 4000;
    params.haplotypes = 5;
    return sim::generatePangenome(params);
}

TEST(FileTest, BytesRoundTrip)
{
    std::string path = test::tempPath("mg_file_test.bin");
    std::vector<uint8_t> bytes = {0, 1, 2, 255, 128, 7};
    writeFileBytes(path, bytes);
    EXPECT_EQ(readFileBytes(path), bytes);
}

TEST(FileTest, MissingFileThrows)
{
    EXPECT_THROW(readFileBytes("/nonexistent/definitely/nope"),
                 util::Error);
}

TEST(MgzTest, RoundTripPreservesEverything)
{
    sim::GeneratedPangenome pg = makePangenome();
    std::vector<uint8_t> bytes = encodeMgz(pg.graph, pg.gbwt);
    Pangenome loaded = decodeMgz(bytes);

    EXPECT_EQ(loaded.graph.numNodes(), pg.graph.numNodes());
    EXPECT_EQ(loaded.graph.numEdges(), pg.graph.numEdges());
    EXPECT_EQ(loaded.graph.numPaths(), pg.graph.numPaths());
    for (graph::NodeId id = 1; id <= pg.graph.numNodes(); ++id) {
        ASSERT_EQ(loaded.graph.forwardSequence(id), pg.graph.forwardSequence(id));
    }
    for (size_t p = 0; p < pg.graph.numPaths(); ++p) {
        EXPECT_EQ(loaded.graph.path(p).name, pg.graph.path(p).name);
        ASSERT_EQ(loaded.graph.path(p).steps, pg.graph.path(p).steps);
    }
    // Edge sets match exactly.
    for (graph::NodeId id = 1; id <= pg.graph.numNodes(); ++id) {
        for (bool reverse : {false, true}) {
            graph::Handle h(id, reverse);
            auto a = pg.graph.successors(h);
            for (graph::Handle succ : a) {
                EXPECT_TRUE(loaded.graph.hasEdge(h, succ))
                    << h.str() << "->" << succ.str();
            }
            EXPECT_EQ(loaded.graph.successors(h).size(), a.size());
        }
    }
    // GBWT queries agree.
    EXPECT_EQ(loaded.gbwt.numPaths(), pg.gbwt.numPaths());
    for (graph::NodeId id = 1; id <= pg.graph.numNodes(); ++id) {
        graph::Handle h(id, false);
        EXPECT_EQ(loaded.gbwt.nodeCount(h), pg.gbwt.nodeCount(h));
    }
    loaded.graph.validate();
}

TEST(MgzTest, FileRoundTrip)
{
    sim::GeneratedPangenome pg = makePangenome(91);
    std::string path = test::tempPath("mg_test.mgz");
    saveMgz(path, pg.graph, pg.gbwt);
    Pangenome loaded = loadMgz(path);
    EXPECT_EQ(loaded.graph.numNodes(), pg.graph.numNodes());
}

TEST(MgzTest, CompressionBeatsNaiveEncoding)
{
    sim::PangenomeParams params;
    params.seed = 92;
    params.backboneLength = 20000;
    params.haplotypes = 8;
    sim::GeneratedPangenome pg = sim::generatePangenome(params);
    std::vector<uint8_t> bytes = encodeMgz(pg.graph, pg.gbwt);
    // Naive cost: 1 byte/base plus 8 bytes per path step plus 8 bytes per
    // GBWT visit.  MGZ's 2-bit packing + varints must beat it handily.
    size_t path_steps = 0;
    for (const graph::PathEntry& path : pg.graph.paths()) {
        path_steps += path.steps.size();
    }
    size_t naive = pg.graph.totalSequenceLength() + 8 * path_steps +
                   8 * pg.gbwt.totalVisits();
    EXPECT_LT(bytes.size(), naive / 2);
}

TEST(MgzTest, BadMagicThrows)
{
    std::vector<uint8_t> bytes = {'N', 'O', 'P', 'E', 0, 0};
    EXPECT_THROW(decodeMgz(bytes), util::Error);
}

TEST(MgzTest, TruncatedPayloadThrows)
{
    sim::GeneratedPangenome pg = makePangenome(93);
    std::vector<uint8_t> bytes = encodeMgz(pg.graph, pg.gbwt);
    bytes.resize(bytes.size() / 2);
    EXPECT_THROW(decodeMgz(bytes), util::Error);
}

TEST(MgzTest, LegacyV1FilesStillDecode)
{
    sim::GeneratedPangenome pg = makePangenome(94);
    std::vector<uint8_t> v1 = encodeMgz(pg.graph, pg.gbwt, MgzVersion::V1);
    std::vector<uint8_t> v2 = encodeMgz(pg.graph, pg.gbwt, MgzVersion::V2);
    EXPECT_NE(v1, v2);

    Pangenome loaded = decodeMgz(v1);
    EXPECT_EQ(loaded.graph.numNodes(), pg.graph.numNodes());
    EXPECT_EQ(loaded.graph.numEdges(), pg.graph.numEdges());
    EXPECT_EQ(loaded.gbwt.numPaths(), pg.gbwt.numPaths());
    loaded.graph.validate();

    MgzInfo info = inspectMgz(v1);
    EXPECT_EQ(info.version, MgzVersion::V1);
    EXPECT_TRUE(info.sections.empty()); // no section table to report
    EXPECT_TRUE(info.allChecksumsOk()); // vacuously
}

TEST(MgzTest, ChecksumMismatchNamesTheDamagedSection)
{
    sim::GeneratedPangenome pg = makePangenome(95);
    std::vector<uint8_t> bytes = encodeMgz(pg.graph, pg.gbwt);
    MgzInfo clean = inspectMgz(bytes, "graph.mgz");
    ASSERT_EQ(clean.sections.size(), 4u);
    EXPECT_TRUE(clean.allChecksumsOk());

    // Flip one byte in the middle of the "edges" payload, located via
    // the inspection report rather than hard-coded offsets.
    const MgzSectionInfo& edges = clean.sections[1];
    ASSERT_STREQ(edges.name, "edges");
    ASSERT_GT(edges.size, 0u);
    std::vector<uint8_t> bad = bytes;
    bad[edges.offset + edges.size / 2] ^= 0x40;

    try {
        decodeMgz(bad, "graph.mgz");
        FAIL() << "expected throw";
    } catch (const util::StatusError& e) {
        EXPECT_EQ(e.status().code, util::StatusCode::ChecksumMismatch);
        EXPECT_EQ(e.status().file, "graph.mgz");
        EXPECT_EQ(e.status().section, "edges");
    }
}

TEST(MgzTest, InspectReportsEveryDamagedSection)
{
    sim::GeneratedPangenome pg = makePangenome(96);
    std::vector<uint8_t> bytes = encodeMgz(pg.graph, pg.gbwt);
    MgzInfo clean = inspectMgz(bytes);
    ASSERT_EQ(clean.sections.size(), 4u);

    // Damage "nodes" and "gbwt"; leave "edges" and "paths" intact.
    std::vector<uint8_t> bad = bytes;
    bad[clean.sections[0].offset] ^= 0x01;
    bad[clean.sections[3].offset] ^= 0x01;

    MgzInfo report = inspectMgz(bad);
    ASSERT_EQ(report.sections.size(), 4u);
    EXPECT_FALSE(report.allChecksumsOk());
    EXPECT_FALSE(report.sections[0].crcOk); // nodes
    EXPECT_TRUE(report.sections[1].crcOk);  // edges
    EXPECT_TRUE(report.sections[2].crcOk);  // paths
    EXPECT_FALSE(report.sections[3].crcOk); // gbwt
    EXPECT_NE(report.sections[0].crcComputed,
              report.sections[0].crcStored);
}

TEST(ExtensionsIoTest, RoundTrip)
{
    std::vector<ReadExtensions> all;
    ReadExtensions entry;
    entry.readName = "readX";
    map::GaplessExtension ext;
    ext.path = {graph::Handle(3, false), graph::Handle(4, true)};
    ext.startOffset = 2;
    ext.readBegin = 5;
    ext.readEnd = 45;
    ext.mismatchOffsets = {7, 20};
    ext.score = 40 - 8;
    ext.onReverseRead = true;
    ext.fullLength = false;
    entry.extensions.push_back(ext);
    all.push_back(entry);

    auto loaded = decodeExtensions(encodeExtensions(all));
    ASSERT_EQ(loaded.size(), 1u);
    ASSERT_EQ(loaded[0].extensions.size(), 1u);
    EXPECT_TRUE(loaded[0].extensions[0] == ext);
    EXPECT_EQ(loaded[0].extensions[0].score, ext.score);
    EXPECT_EQ(loaded[0].extensions[0].fullLength, ext.fullLength);
}

TEST(ExtensionsIoTest, ValidationDetectsPerfectMatch)
{
    std::vector<ReadExtensions> a;
    ReadExtensions entry;
    entry.readName = "r";
    map::GaplessExtension ext;
    ext.path = {graph::Handle(1, false)};
    ext.readEnd = 10;
    ext.score = 10;
    entry.extensions.push_back(ext);
    a.push_back(entry);

    ValidationReport report = validateExtensions(a, a);
    EXPECT_TRUE(report.perfectMatch());
    EXPECT_EQ(report.readsCompared, 1u);
    EXPECT_EQ(report.extensionsExpected, 1u);
    EXPECT_EQ(report.extensionsFound, 1u);
}

TEST(ExtensionsIoTest, ValidationDetectsMissingAndUnexpected)
{
    map::GaplessExtension e1;
    e1.path = {graph::Handle(1, false)};
    e1.readEnd = 10;
    map::GaplessExtension e2 = e1;
    e2.readEnd = 20;

    std::vector<ReadExtensions> expected = {{"r", {e1, e2}}};
    std::vector<ReadExtensions> candidate = {{"r", {e2}}};
    ValidationReport report = validateExtensions(expected, candidate);
    EXPECT_FALSE(report.perfectMatch());
    EXPECT_EQ(report.missing, 1u);
    EXPECT_EQ(report.unexpected, 0u);

    // Swap roles: now there is an unexpected extension.
    report = validateExtensions(candidate, expected);
    EXPECT_EQ(report.missing, 0u);
    EXPECT_EQ(report.unexpected, 1u);
}

TEST(ExtensionsIoTest, ValidationCountsDuplicates)
{
    map::GaplessExtension e;
    e.path = {graph::Handle(1, false)};
    e.readEnd = 10;
    std::vector<ReadExtensions> two = {{"r", {e, e}}};
    std::vector<ReadExtensions> one = {{"r", {e}}};
    ValidationReport report = validateExtensions(two, one);
    EXPECT_EQ(report.missing, 1u);
}

TEST(FastqTest, RoundTrip)
{
    map::ReadSet reads;
    for (int i = 0; i < 3; ++i) {
        map::Read read;
        read.name = "seq" + std::to_string(i);
        read.sequence = "ACGTACGTA";
        reads.reads.push_back(read);
    }
    map::ReadSet loaded = parseFastq(formatFastq(reads));
    ASSERT_EQ(loaded.reads.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(loaded.reads[i].name, reads.reads[i].name);
        EXPECT_EQ(loaded.reads[i].sequence, reads.reads[i].sequence);
    }
}

TEST(FastqTest, MalformedInputThrows)
{
    EXPECT_THROW(parseFastq("@x\nACGT\n"), util::Error);           // 2 lines
    EXPECT_THROW(parseFastq("x\nACGT\n+\nIIII\n"), util::Error);   // no @
    EXPECT_THROW(parseFastq("@x\nAC-T\n+\nIIII\n"), util::Error);  // garbage
    EXPECT_THROW(parseFastq("@x\nACGT\n-\nIIII\n"), util::Error);  // no +
    EXPECT_THROW(parseFastq("@x\nACGT\n+\nII\n"), util::Error);    // short Q
}

TEST(FastqTest, AmbiguityLettersCanonicalized)
{
    // Policy (util/dna.h): ambiguity letters -> 'A', counted; lower-case
    // acgt upper-cased without counting; non-letters reject (test above).
    map::ReadSet set = parseFastq("@x\nACGN\n+\nIIII\n@y\nacgt\n+\nIIII\n");
    ASSERT_EQ(set.reads.size(), 2u);
    EXPECT_EQ(set.reads[0].sequence, "ACGA");
    EXPECT_EQ(set.reads[1].sequence, "ACGT");
    EXPECT_EQ(set.sanitizedBases, 1u);
}

} // namespace
} // namespace mg::io
