/** Tests for the region profiler. */
#include <gtest/gtest.h>

#include <fstream>
#include <thread>
#include <vector>

#include "perf/profiler.h"
#include "util/common.h"
#include "test_tmpdir.h"

namespace mg::perf {
namespace {

TEST(ProfilerTest, RegionIdsAreStable)
{
    Profiler profiler;
    RegionId a = profiler.regionId("cluster_seeds");
    RegionId b = profiler.regionId("extend");
    EXPECT_NE(a, b);
    EXPECT_EQ(profiler.regionId("cluster_seeds"), a);
    EXPECT_EQ(profiler.regionName(a), "cluster_seeds");
}

TEST(ProfilerTest, CanonicalRegionsArePreRegistered)
{
    // The canonical regions are registered at construction so trace export
    // and region tables never depend on which code paths happened to run.
    Profiler profiler;
    EXPECT_EQ(profiler.regionName(profiler.regionId(regions::kFindSeeds)),
              regions::kFindSeeds);
    EXPECT_EQ(profiler.regionName(profiler.regionId(regions::kExtend)),
              regions::kExtend);
}

TEST(ProfilerTest, RegionTableFreezesAtFirstRegisterThread)
{
    Profiler profiler;
    RegionId known = profiler.regionId("early_region");
    profiler.registerThread(0);
    // Lookups of known names stay legal after the freeze...
    EXPECT_EQ(profiler.regionId("early_region"), known);
    EXPECT_EQ(profiler.regionId(regions::kClusterSeeds),
              profiler.regionId(regions::kClusterSeeds));
    // ...but new-name registration must throw: the region table is shared
    // with running worker threads.
    EXPECT_THROW(profiler.regionId("late_region"), util::Error);
}

TEST(ProfilerTest, DisabledProfilerRecordsNothing)
{
    Profiler profiler(false);
    EXPECT_EQ(profiler.registerThread(0), nullptr);
    {
        ScopedRegion region(nullptr, 0); // must be a safe no-op
    }
    EXPECT_TRUE(profiler.aggregate().empty());
}

TEST(ProfilerTest, ScopedRegionAccumulatesTime)
{
    Profiler profiler;
    RegionId region = profiler.regionId("work");
    Profiler::ThreadLog* log = profiler.registerThread(0);
    ASSERT_NE(log, nullptr);
    for (int i = 0; i < 3; ++i) {
        ScopedRegion scoped(log, region);
        // Busy loop long enough to be measurable.
        volatile uint64_t x = 0;
        for (int j = 0; j < 10000; ++j) {
            x += j;
        }
    }
    auto totals = profiler.aggregate();
    ASSERT_EQ(totals.size(), 1u);
    EXPECT_EQ(totals[0].region, "work");
    EXPECT_EQ(totals[0].invocations, 3u);
    EXPECT_GT(totals[0].totalNanos, 0u);
    EXPECT_GT(profiler.regionSeconds("work"), 0.0);
    EXPECT_DOUBLE_EQ(profiler.regionSeconds("absent"), 0.0);
}

TEST(ProfilerTest, PerThreadAggregation)
{
    Profiler profiler;
    RegionId region = profiler.regionId("map");
    std::vector<std::thread> threads;
    for (size_t t = 0; t < 4; ++t) {
        threads.emplace_back([&profiler, region, t] {
            Profiler::ThreadLog* log = profiler.registerThread(t);
            for (size_t i = 0; i <= t; ++i) {
                ScopedRegion scoped(log, region);
            }
        });
    }
    for (auto& thread : threads) {
        thread.join();
    }
    auto totals = profiler.aggregate();
    ASSERT_EQ(totals.size(), 4u);
    uint64_t invocations = 0;
    for (const RegionTotal& total : totals) {
        invocations += total.invocations;
    }
    EXPECT_EQ(invocations, 1u + 2u + 3u + 4u);
    EXPECT_EQ(profiler.numThreads(), 4u);
}

TEST(ProfilerTest, DumpCsvWritesRecords)
{
    Profiler profiler;
    RegionId region = profiler.regionId("io");
    Profiler::ThreadLog* log = profiler.registerThread(0);
    {
        ScopedRegion scoped(log, region);
    }
    std::string path = test::tempPath("mg_profile.csv");
    profiler.dumpCsv(path);
    std::ifstream in(path);
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header, "thread,region,start_ns,end_ns");
    std::string row;
    std::getline(in, row);
    EXPECT_NE(row.find("0,io,"), std::string::npos);
}

TEST(ProfilerTest, ClearRecordsKeepsRegions)
{
    Profiler profiler;
    RegionId region = profiler.regionId("r");
    Profiler::ThreadLog* log = profiler.registerThread(0);
    {
        ScopedRegion scoped(log, region);
    }
    profiler.clearRecords();
    EXPECT_TRUE(profiler.aggregate().empty());
    EXPECT_EQ(profiler.regionId("r"), region);
}

} // namespace
} // namespace mg::perf
