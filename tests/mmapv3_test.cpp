/**
 * MGZ v3 zero-copy substrate tests (ctest label `mmapv3`).
 *
 * The contract under test: a v3 container is a pure function of the
 * pangenome (byte-identical across build thread counts), mapping it back
 * produces a pipeline observably identical to the heap-parsed v2 path
 * (GAF byte-for-byte on the A-human and B-yeast analogs), structural
 * damage is rejected with a structured error naming the section — never
 * a crash — and concurrent consumers of one file share a single
 * page-cache copy.
 */
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "gbwt/gbwt.h"
#include "giraffe/parent.h"
#include "index/distance.h"
#include "index/minimizer.h"
#include "io/file.h"
#include "io/gaf.h"
#include "io/mgz.h"
#include "mem/arena.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "sim/input_sets.h"
#include "util/status.h"
#include "test_tmpdir.h"

namespace mg::io {
namespace {

using test::tempPath;

/** One input-set analog with prebuilt indexes and its v2/v3 containers. */
struct V3World
{
    sim::InputSet set;
    index::MinimizerIndex minimizers;
    index::DistanceIndex distance;
    std::string v2Path;
    std::string v3Path;
};

V3World
buildV3World(const std::string& input_set, double scale)
{
    V3World world;
    world.set = sim::buildInputSet(sim::inputSetSpec(input_set), scale);
    index::MinimizerParams mparams;
    mparams.k = 15;
    mparams.w = 8;
    world.minimizers =
        index::MinimizerIndex(world.set.pangenome.graph, mparams);
    world.distance = index::DistanceIndex(world.set.pangenome.graph);
    world.v2Path = tempPath("mmapv3_" + input_set + ".mgz");
    world.v3Path = tempPath("mmapv3_" + input_set + ".mgz3");
    saveMgz(world.v2Path, world.set.pangenome.graph,
            world.set.pangenome.gbwt);
    saveMgz3(world.v3Path, world.set.pangenome.graph,
             world.set.pangenome.gbwt, world.minimizers, world.distance);
    return world;
}

std::string
mapToGaf(const IndexedPangenome& pg, const map::ReadSet& reads)
{
    giraffe::ParentEmulator parent(pg.graph, pg.gbwt, pg.minimizers,
                                   pg.distance, giraffe::ParentParams());
    giraffe::ParentOutputs outputs = parent.run(reads);
    return formatGaf(outputs.alignments, reads, pg.graph);
}

// --------------------------------------------------------------------
// mem substrate units

TEST(MappedFileTest, OpensMapsAndReportsResidency)
{
    std::string path = tempPath("mmapv3_basic.bin");
    std::vector<uint8_t> bytes(3 * mem::MappedFile::pageSize() + 17);
    for (size_t i = 0; i < bytes.size(); ++i) {
        bytes[i] = static_cast<uint8_t>(i * 31u);
    }
    writeFileBytes(path, bytes);

    auto mapping = mem::MappedFile::open(path);
    ASSERT_NE(mapping, nullptr);
    EXPECT_EQ(mapping->size(), bytes.size());
    EXPECT_EQ(mapping->path(), path);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(mapping->data())
                  % mem::MappedFile::pageSize(),
              0u);
    EXPECT_EQ(std::memcmp(mapping->data(), bytes.data(), bytes.size()), 0);
    // Touching every page makes the whole mapping resident.
    EXPECT_GE(mapping->residentBytes(), bytes.size());
    mapping->advise(mem::Advice::Random);
    mapping->advise(0, bytes.size(), mem::Advice::WillNeed);
}

TEST(MappedFileTest, OpenMissingFileThrows)
{
    EXPECT_THROW(mem::MappedFile::open(tempPath("mmapv3_missing.bin")),
                 util::Error);
}

TEST(ArenaViewTest, OwnedAndMappedBackingsAgree)
{
    mem::ArenaView<uint64_t> owned;
    owned.owned() = { 3, 1, 4, 1, 5 };
    EXPECT_FALSE(owned.isMapped());
    EXPECT_EQ(owned.size(), 5u);
    EXPECT_EQ(owned[2], 4u);
    EXPECT_EQ(owned.back(), 5u);
    EXPECT_EQ(owned.bytes(), 5 * sizeof(uint64_t));

    std::string path = tempPath("mmapv3_arena.bin");
    std::vector<uint8_t> raw(5 * sizeof(uint64_t));
    std::memcpy(raw.data(), owned.data(), raw.size());
    writeFileBytes(path, raw);
    auto mapping = mem::MappedFile::open(path);
    mem::ArenaView<uint64_t> mapped;
    mapped.bind(mapping,
                reinterpret_cast<const uint64_t*>(mapping->data()), 5);
    EXPECT_TRUE(mapped.isMapped());
    EXPECT_TRUE(mapped == owned);
    EXPECT_TRUE(owned == mapped);
    // The view keeps the mapping alive after the local handle drops.
    mapping.reset();
    EXPECT_EQ(mapped[4], 5u);
}

// --------------------------------------------------------------------
// Golden round trip: mmap-loaded v3 is observably identical to the
// heap-parsed v2 path, down to the GAF bytes.

class GoldenRoundTrip : public ::testing::TestWithParam<const char*>
{};

TEST_P(GoldenRoundTrip, MappedGafMatchesParsedByteForByte)
{
    V3World world = buildV3World(GetParam(), 0.03);

    IndexedPangenome parsed = loadPangenome(world.v2Path);
    IndexedPangenome mapped = loadPangenome(world.v3Path);

    EXPECT_EQ(parsed.info.mode, LoadMode::Parsed);
    EXPECT_EQ(mapped.info.mode, LoadMode::Mapped);
    EXPECT_STREQ(loadModeName(parsed.info.mode), "parsed");
    EXPECT_STREQ(loadModeName(mapped.info.mode), "mmap");
    EXPECT_EQ(parsed.mapping, nullptr);
    ASSERT_NE(mapped.mapping, nullptr);
    EXPECT_GT(mapped.info.mappedBytes, 0u);
    EXPECT_EQ(parsed.info.mappedBytes, 0u);

    // Same logical structures on both sides.
    EXPECT_EQ(parsed.graph.numNodes(), mapped.graph.numNodes());
    EXPECT_EQ(parsed.graph.numPaths(), mapped.graph.numPaths());
    EXPECT_EQ(parsed.gbwt.numPaths(), mapped.gbwt.numPaths());
    EXPECT_EQ(parsed.minimizers.numKeys(), mapped.minimizers.numKeys());

    // The arena accounting is mode-independent: same section names, same
    // logical byte sizes, whether parsed onto the heap or bound in place.
    ASSERT_EQ(parsed.info.sections.size(), mapped.info.sections.size());
    for (size_t i = 0; i < parsed.info.sections.size(); ++i) {
        EXPECT_EQ(parsed.info.sections[i].first,
                  mapped.info.sections[i].first);
        EXPECT_EQ(parsed.info.sections[i].second,
                  mapped.info.sections[i].second)
            << "section " << parsed.info.sections[i].first;
    }

    std::string parsed_gaf = mapToGaf(parsed, world.set.reads);
    std::string mapped_gaf = mapToGaf(mapped, world.set.reads);
    EXPECT_FALSE(parsed_gaf.empty());
    EXPECT_EQ(parsed_gaf, mapped_gaf)
        << "GAF must be byte-identical across load modes";

    mapped.refreshResidency();
    EXPECT_GT(mapped.info.residentBytes, 0u);
    EXPECT_LE(mapped.info.residentBytes, mapped.info.mappedBytes);
}

INSTANTIATE_TEST_SUITE_P(InputSets, GoldenRoundTrip,
                         ::testing::Values("A-human", "B-yeast"));

// --------------------------------------------------------------------
// Determinism: the v3 encoder is a pure function of the pangenome; the
// parallel GBWT/minimizer builders must not let thread scheduling leak
// into the bytes.

TEST(V3Determinism, ContainerBytesIdenticalAcrossBuildThreads)
{
    sim::InputSet set =
        sim::buildInputSet(sim::inputSetSpec("B-yeast"), 0.02);
    const graph::VariationGraph& graph = set.pangenome.graph;
    index::DistanceIndex distance(graph);

    std::vector<uint8_t> baseline;
    for (unsigned threads : { 1u, 4u, 8u }) {
        gbwt::GbwtBuilder builder;
        for (const graph::PathEntry& path : graph.paths()) {
            builder.addPath(path.steps);
        }
        gbwt::Gbwt gbwt = std::move(builder).build(threads);

        index::MinimizerParams mparams;
        mparams.k = 15;
        mparams.w = 8;
        mparams.buildThreads = threads;
        index::MinimizerIndex minimizers(graph, mparams);

        std::vector<uint8_t> bytes =
            encodeMgz3(graph, gbwt, minimizers, distance);
        if (baseline.empty()) {
            baseline = std::move(bytes);
            ASSERT_FALSE(baseline.empty());
        } else {
            EXPECT_EQ(bytes, baseline)
                << "v3 bytes differ at " << threads << " build threads";
        }
    }
}

TEST(V3Determinism, EncodeIsIdempotent)
{
    V3World world = buildV3World("B-yeast", 0.02);
    std::vector<uint8_t> a =
        encodeMgz3(world.set.pangenome.graph, world.set.pangenome.gbwt,
                   world.minimizers, world.distance);
    std::vector<uint8_t> b =
        encodeMgz3(world.set.pangenome.graph, world.set.pangenome.gbwt,
                   world.minimizers, world.distance);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, readFileBytes(world.v3Path));
}

// --------------------------------------------------------------------
// Inspection + validation

class V3Container : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        world_ = new V3World(buildV3World("B-yeast", 0.02));
        bytes_ = new std::vector<uint8_t>(readFileBytes(world_->v3Path));
    }

    static void
    TearDownTestSuite()
    {
        delete world_;
        delete bytes_;
        world_ = nullptr;
        bytes_ = nullptr;
    }

    /** Write a mutated copy and return its path. */
    std::string
    writeMutant(const std::string& name, std::vector<uint8_t> bytes) const
    {
        std::string path = tempPath("mmapv3_mut_" + name + ".mgz3");
        writeFileBytes(path, bytes);
        return path;
    }

    static V3World* world_;
    static std::vector<uint8_t>* bytes_;
};

V3World* V3Container::world_ = nullptr;
std::vector<uint8_t>* V3Container::bytes_ = nullptr;

TEST_F(V3Container, InspectReportsEverySectionChecksummed)
{
    MgzInfo info = inspectMgz3(bytes_->data(), bytes_->size(), "test");
    EXPECT_EQ(info.version, MgzVersion::V3);
    EXPECT_EQ(info.fileBytes, bytes_->size());
    EXPECT_EQ(info.sections.size(), 15u);
    EXPECT_TRUE(info.allChecksumsOk());
    uint64_t page = 4096;
    for (const MgzSectionInfo& section : info.sections) {
        EXPECT_EQ(section.offset % page, 0u) << section.name;
        EXPECT_TRUE(section.crcOk) << section.name;
        EXPECT_LE(section.offset + section.size, info.fileBytes)
            << section.name;
    }
    // inspectMgz dispatches on the magic and agrees.
    MgzInfo via_v2_entry = inspectMgz(*bytes_, "test");
    EXPECT_EQ(via_v2_entry.version, MgzVersion::V3);
    EXPECT_EQ(via_v2_entry.sections.size(), info.sections.size());
}

TEST_F(V3Container, InspectFlagsDamagedSectionWithoutThrowing)
{
    MgzInfo clean = inspectMgz3(bytes_->data(), bytes_->size(), "test");
    // Flip one byte inside the *payload* of the largest section.
    const MgzSectionInfo* victim = nullptr;
    for (const MgzSectionInfo& section : clean.sections) {
        if (section.size > 0
            && (victim == nullptr || section.size > victim->size)) {
            victim = &section;
        }
    }
    ASSERT_NE(victim, nullptr);
    std::vector<uint8_t> damaged = *bytes_;
    damaged[victim->offset + victim->size / 2] ^= 0x40;
    MgzInfo info = inspectMgz3(damaged.data(), damaged.size(), "test");
    EXPECT_FALSE(info.allChecksumsOk());
    size_t bad = 0;
    for (const MgzSectionInfo& section : info.sections) {
        bad += section.crcOk ? 0 : 1;
    }
    EXPECT_EQ(bad, 1u);
}

TEST_F(V3Container, DecodeMgzRefusesV3WithPointerToLoader)
{
    try {
        decodeMgz(*bytes_, "test.mgz3");
        FAIL() << "decodeMgz must reject v3 containers";
    } catch (const util::StatusError& error) {
        EXPECT_NE(std::string(error.what()).find("loadPangenome"),
                  std::string::npos);
    }
}

TEST_F(V3Container, StructuralDamageRejected)
{
    auto expect_rejected = [&](const std::string& name,
                               std::vector<uint8_t> bytes) {
        std::string path = writeMutant(name, std::move(bytes));
        EXPECT_THROW(loadPangenome(path), util::Error) << name;
    };

    { // bad magic
        std::vector<uint8_t> b = *bytes_;
        b[0] = 'X';
        expect_rejected("magic", std::move(b));
    }
    { // wrong format version
        std::vector<uint8_t> b = *bytes_;
        b[4] = 9;
        expect_rejected("version", std::move(b));
    }
    { // wrong page size
        std::vector<uint8_t> b = *bytes_;
        b[8] = 0x00;
        b[9] = 0x08; // 2048
        expect_rejected("page", std::move(b));
    }
    { // wrong section count
        std::vector<uint8_t> b = *bytes_;
        b[12] = 3;
        expect_rejected("count", std::move(b));
    }
    { // corrupt section table (offset of section 1 bumped: overlap /
      // non-canonical placement *and* a table CRC mismatch)
        std::vector<uint8_t> b = *bytes_;
        b[32 + 40 + 16] ^= 0x01;
        expect_rejected("table", std::move(b));
    }
    { // truncated: header only
        std::vector<uint8_t> b(bytes_->begin(), bytes_->begin() + 64);
        expect_rejected("header_only", std::move(b));
    }
    { // truncated: drop the last page (file size mismatch)
        std::vector<uint8_t> b(bytes_->begin(), bytes_->end() - 4096);
        expect_rejected("truncated", std::move(b));
    }
    { // extended: trailing garbage breaks canonical placement
        std::vector<uint8_t> b = *bytes_;
        b.resize(b.size() + 4096, 0xAB);
        expect_rejected("extended", std::move(b));
    }
}

// 400 randomly damaged containers: every one either loads (damage landed
// in inter-section padding) or fails with a structured error.  Never a
// crash, never an unstructured exception.
TEST_F(V3Container, DamagedContainerFuzz400)
{
    std::mt19937_64 rng(0xDA4A6EDull);
    std::uniform_int_distribution<size_t> pick_offset(0,
                                                      bytes_->size() - 1);
    std::uniform_int_distribution<int> pick_bit(0, 7);
    std::string path = tempPath("mmapv3_fuzz.mgz3");

    LoadOptions options;
    options.verifySectionCrcs = true;

    size_t loaded = 0;
    size_t rejected = 0;
    for (int round = 0; round < 400; ++round) {
        std::vector<uint8_t> damaged = *bytes_;
        if (round % 4 == 3) {
            // Truncate to a random prefix (possibly unmappable: empty).
            size_t keep = pick_offset(rng);
            damaged.resize(keep);
        } else {
            // Flip 1-3 random bits.
            int flips = 1 + round % 3;
            for (int i = 0; i < flips; ++i) {
                damaged[pick_offset(rng)] ^=
                    static_cast<uint8_t>(1u << pick_bit(rng));
            }
        }
        writeFileBytes(path, damaged);
        try {
            IndexedPangenome pg = loadPangenome(path, options);
            // Loaded clean: damage fell into padding.  The pangenome
            // must still be fully usable.
            EXPECT_EQ(pg.graph.numNodes(),
                      world_->set.pangenome.graph.numNodes());
            ++loaded;
        } catch (const util::Error&) {
            ++rejected; // structured rejection is the expected outcome
        }
    }
    EXPECT_EQ(loaded + rejected, 400u);
    // With full-CRC verification on, nearly all mutations must be caught;
    // only padding hits can slip through.
    EXPECT_GT(rejected, 300u);
}

// --------------------------------------------------------------------
// Page-cache sharing: a second consumer of the same container finds the
// pages already resident — the kernel backs every mapping of the file
// with one physical copy.

TEST_F(V3Container, SecondProcessFindsPagesAlreadyResident)
{
    // Child process: map the container and touch every page, then exit.
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        auto mapping = mem::MappedFile::open(world_->v3Path);
        uint64_t sum = 0;
        for (size_t i = 0; i < mapping->size(); i += 512) {
            sum += mapping->data()[i];
        }
        _exit(sum == 0xFFFFFFFFu ? 1 : 0);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);

    // Parent: a fresh mapping of the same file reports the pages resident
    // *before* touching a single byte — they are the child's pages,
    // shared through the page cache.
    auto mapping = mem::MappedFile::open(world_->v3Path);
    size_t resident = mapping->residentBytes();
    EXPECT_GE(resident, mapping->size() / 2)
        << "expected the child's page-cache copy to back this mapping";
}

// --------------------------------------------------------------------
// Serving from a mapped container: two daemon instances over one v3
// file — the mgd deployment shape — answer identically, report the mmap
// load mode, and share the container's pages.

TEST_F(V3Container, TwoDaemonsShareOneMappedContainer)
{
    IndexedPangenome pg1 = loadPangenome(world_->v3Path);
    IndexedPangenome pg2 = loadPangenome(world_->v3Path);
    ASSERT_EQ(pg1.info.mode, LoadMode::Mapped);
    ASSERT_EQ(pg2.info.mode, LoadMode::Mapped);

    auto make_params = [&](const IndexedPangenome& pg,
                           const std::string& name) {
        serve::DaemonParams params;
        params.socketPath = tempPath(name + ".sock");
        params.workers = 2;
        params.queueCapacity = 16;
        params.indexLoadMode = loadModeName(pg.info.mode);
        params.indexLoadSeconds = pg.info.loadSeconds;
        return params;
    };
    serve::Daemon daemon1(pg1.graph, pg1.gbwt, pg1.minimizers,
                          pg1.distance, make_params(pg1, "mmapv3_d1"));
    serve::Daemon daemon2(pg2.graph, pg2.gbwt, pg2.minimizers,
                          pg2.distance, make_params(pg2, "mmapv3_d2"));
    daemon1.start();
    daemon2.start();

    std::vector<map::Read> reads(world_->set.reads.reads.begin(),
                                 world_->set.reads.reads.begin()
                                     + std::min<size_t>(
                                         24,
                                         world_->set.reads.reads.size()));
    auto map_through = [&](const serve::Daemon& daemon) {
        serve::ClientParams cparams;
        cparams.socketPath = daemon.params().socketPath;
        serve::Client client(cparams);
        serve::Response response;
        util::Status status = client.mapReads(
            "default", reads, resilience::WorkBudget(), response);
        EXPECT_TRUE(status.ok()) << status.message;
        EXPECT_EQ(response.status, serve::ResponseStatus::Ok);
        return response.gaf;
    };
    std::string gaf1 = map_through(daemon1);
    std::string gaf2 = map_through(daemon2);
    EXPECT_FALSE(gaf1.empty());
    EXPECT_EQ(gaf1, gaf2)
        << "two daemons on one container must answer identically";

    daemon1.stop();
    daemon2.stop();
    EXPECT_EQ(daemon1.report().indexLoadMode, "mmap");
    EXPECT_EQ(daemon2.report().indexLoadMode, "mmap");
    EXPECT_EQ(daemon1.report().completed, 1u);
    EXPECT_EQ(daemon2.report().completed, 1u);

    // The RSS story: both instances are backed by the same page-cache
    // copy, so each mapping reports (shared) resident pages while the
    // per-process unique cost of the second instance is ~zero.  mincore
    // sees page-cache residency, which is exactly the shared copy.
    size_t resident1 = pg1.mapping->residentBytes();
    size_t resident2 = pg2.mapping->residentBytes();
    EXPECT_GT(resident1, 0u);
    EXPECT_GT(resident2, 0u);
    EXPECT_EQ(pg1.mapping->size(), pg2.mapping->size());
}

} // namespace
} // namespace mg::io
