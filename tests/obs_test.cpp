/**
 * Tests for the mg::obs telemetry layer: JSON emit/parse, the metrics
 * registry (snapshot, delta, freeze discipline, exporters), the flight
 * recorder ring, the periodic emitter's thread-safety against live worker
 * increments (the tsan preset runs this binary), the Chrome-trace export,
 * and the end-to-end funnel consistency of a hub-instrumented proxy run.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "giraffe/parent.h"
#include "giraffe/proxy.h"
#include "giraffe/run_summary.h"
#include "io/file.h"
#include "obs/emitter.h"
#include "obs/flight_recorder.h"
#include "obs/hub.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perf/profiler.h"
#include "sim/input_sets.h"
#include "util/common.h"
#include "util/timer.h"
#include "test_tmpdir.h"

namespace mg::obs {
namespace {

// ------------------------------------------------------------------- JSON

TEST(JsonWriter, RoundTripsNestedStructure)
{
    JsonWriter w;
    w.beginObject();
    w.field("name", "mini\"giraffe\"\n\t\\");
    w.field("count", uint64_t{42});
    w.field("ratio", 0.5);
    w.field("on", true);
    w.key("nothing").null();
    w.key("list").beginArray();
    w.value(uint64_t{1});
    w.value("two");
    w.beginObject();
    w.field("three", 3);
    w.endObject();
    w.endArray();
    w.endObject();

    json::Value doc = json::parse(w.str(), "test");
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.find("name")->text, "mini\"giraffe\"\n\t\\");
    EXPECT_EQ(doc.find("count")->asUint(), 42u);
    EXPECT_DOUBLE_EQ(doc.find("ratio")->number, 0.5);
    EXPECT_TRUE(doc.find("on")->boolean);
    EXPECT_TRUE(doc.find("nothing")->isNull());
    const json::Value* list = doc.find("list");
    ASSERT_TRUE(list->isArray());
    ASSERT_EQ(list->items.size(), 3u);
    EXPECT_EQ(list->items[1].text, "two");
    EXPECT_EQ(list->items[2].find("three")->asUint(), 3u);
}

TEST(JsonWriter, EscapesControlCharacters)
{
    EXPECT_EQ(JsonWriter::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(JsonWriter::escape("a\\b"), "a\\\\b");
    EXPECT_EQ(JsonWriter::escape("a\nb"), "a\\nb");
    EXPECT_EQ(JsonWriter::escape(std::string_view("a\x01z", 3)),
              "a\\u0001z");
}

TEST(JsonParser, RejectsMalformedInput)
{
    EXPECT_THROW(json::parse("{", "t"), util::Error);
    EXPECT_THROW(json::parse("{\"a\":}", "t"), util::Error);
    EXPECT_THROW(json::parse("[1,2,]", "t"), util::Error);
    EXPECT_THROW(json::parse("{} trailing", "t"), util::Error);
    EXPECT_THROW(json::parse("\"unterminated", "t"), util::Error);
}

TEST(JsonParser, DecodesUnicodeEscapes)
{
    json::Value doc = json::parse("{\"s\": \"a\\u00e9b\"}", "t");
    EXPECT_EQ(doc.find("s")->text, "a\xc3\xa9" "b");
}

// --------------------------------------------------------------- Registry

TEST(Registry, SnapshotSumsCountersAcrossSlabs)
{
    Registry reg;
    CounterId reads = reg.counter("mg_test_reads_total", "reads");
    GaugeId depth = reg.gauge("mg_test_depth", "queue depth peak");
    HistogramId lat = reg.histogram("mg_test_latency_ns", "latency");

    Registry::ThreadSlab* s0 = reg.registerThread(0);
    Registry::ThreadSlab* s1 = reg.registerThread(1);
    s0->add(reads, 10);
    s1->add(reads, 32);
    s0->raise(depth, 5);
    s1->raise(depth, 3);
    s0->observe(lat, 100);
    s1->observe(lat, 1 << 20);

    Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.valueOf("mg_test_reads_total"), 42u);
    // Gauges aggregate by max (peak semantics), not by sum.
    EXPECT_EQ(snap.valueOf("mg_test_depth"), 5u);
    const MetricValue* hist = snap.find("mg_test_latency_ns");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->hist.count(), 2u);
    EXPECT_EQ(hist->hist.sumNanos(), 100u + (1u << 20));
}

TEST(Registry, RegisterThreadIsIdempotentPerSlot)
{
    Registry reg;
    reg.counter("mg_test_a_total", "a");
    EXPECT_EQ(reg.registerThread(0), reg.registerThread(0));
    EXPECT_NE(reg.registerThread(0), reg.registerThread(1));
}

TEST(Registry, FreezesAtFirstRegisterThread)
{
    Registry reg;
    reg.counter("mg_test_early_total", "registered before freeze");
    EXPECT_FALSE(reg.frozen());
    reg.registerThread(0);
    EXPECT_TRUE(reg.frozen());
    EXPECT_THROW(reg.counter("mg_test_late_total", "too late"),
                 util::Error);
    EXPECT_THROW(reg.histogram("mg_test_late_ns", "too late"),
                 util::Error);
}

TEST(Registry, RejectsDuplicateNames)
{
    Registry reg;
    reg.counter("mg_test_dup_total", "first");
    EXPECT_THROW(reg.counter("mg_test_dup_total", "second"), util::Error);
}

TEST(Registry, DeltaSubtractsCountersKeepsGauges)
{
    Registry reg;
    CounterId c = reg.counter("mg_test_c_total", "c");
    GaugeId g = reg.gauge("mg_test_g", "g");
    HistogramId h = reg.histogram("mg_test_h_ns", "h");
    Registry::ThreadSlab* slab = reg.registerThread(0);

    slab->add(c, 10);
    slab->set(g, 7);
    slab->observe(h, 50);
    Snapshot first = reg.snapshot();

    slab->add(c, 5);
    slab->set(g, 3);
    slab->observe(h, 50);
    Snapshot second = reg.snapshot();

    Snapshot d = second.delta(first);
    EXPECT_EQ(d.valueOf("mg_test_c_total"), 5u);
    EXPECT_EQ(d.valueOf("mg_test_g"), 3u); // level, not a rate
    EXPECT_EQ(d.find("mg_test_h_ns")->hist.count(), 1u);
}

// -------------------------------------------------------------- exporters

TEST(Exporters, PrometheusSplicesLabelsAndCumulativeBuckets)
{
    Registry reg;
    CounterId deg = reg.counter(
        "mg_test_degraded_total{reason=\"deadline\"}", "degraded reads");
    HistogramId lat =
        reg.histogram("mg_test_lat_ns{phase=\"extend\"}", "latency");
    Registry::ThreadSlab* slab = reg.registerThread(0);
    slab->add(deg, 3);
    slab->observe(lat, 3); // bucket 2 ([2,4) ns)
    slab->observe(lat, 3);

    std::string prom = toPrometheus(reg.snapshot());
    // HELP/TYPE use the base name; the sample line keeps the labels.
    EXPECT_NE(prom.find("# TYPE mg_test_degraded_total counter"),
              std::string::npos);
    EXPECT_NE(
        prom.find("mg_test_degraded_total{reason=\"deadline\"} 3"),
        std::string::npos);
    // The le label is spliced after the baked-in labels; buckets are
    // cumulative and stop at the highest nonzero bound before +Inf.
    EXPECT_NE(prom.find("mg_test_lat_ns_bucket{phase=\"extend\",le=\"2\"}"
                        " 2"),
              std::string::npos);
    EXPECT_NE(prom.find("mg_test_lat_ns_bucket{phase=\"extend\","
                        "le=\"+Inf\"} 2"),
              std::string::npos);
    EXPECT_NE(prom.find("mg_test_lat_ns_sum{phase=\"extend\"} 6"),
              std::string::npos);
    EXPECT_NE(prom.find("mg_test_lat_ns_count{phase=\"extend\"} 2"),
              std::string::npos);
}

TEST(Exporters, JsonSeriesRoundTripsThroughParser)
{
    Registry reg;
    CounterId c = reg.counter("mg_test_reads_total", "reads mapped");
    HistogramId h = reg.histogram("mg_test_lat_ns", "latency");
    Registry::ThreadSlab* slab = reg.registerThread(0);
    slab->add(c, 7);
    slab->observe(h, 1000);
    Snapshot snap1 = reg.snapshot();
    slab->add(c, 1);
    Snapshot snap2 = reg.snapshot();

    json::Value doc = json::parse(toJson({ snap1, snap2 }), "metrics");
    EXPECT_EQ(doc.find("minigiraffe_metrics")->asUint(), 1u);
    const json::Value* snaps = doc.find("snapshots");
    ASSERT_TRUE(snaps->isArray());
    ASSERT_EQ(snaps->items.size(), 2u);
    const json::Value* metrics = snaps->items[1].find("metrics");
    bool saw_counter = false;
    for (const json::Value& m : metrics->items) {
        if (m.find("name")->text == "mg_test_reads_total") {
            EXPECT_EQ(m.find("kind")->text, "counter");
            EXPECT_EQ(m.find("value")->asUint(), 8u);
            saw_counter = true;
        }
    }
    EXPECT_TRUE(saw_counter);
}

// --------------------------------------------------------- flight recorder

TEST(FlightRecorder, RingWrapsKeepingNewestEntries)
{
    FlightRecorder recorder(1, 4);
    FlightRecorder::Ring* ring = recorder.ring(0);
    for (uint64_t read = 0; read < 10; ++read) {
        ring->begin(read);
        ring->stage(ReadStage::Cluster);
        ring->stage(ReadStage::Extend);
        ring->done();
    }
    std::vector<FlightEntry> entries = recorder.snapshot(0);
    ASSERT_EQ(entries.size(), 4u);
    // Newest first: reads 9, 8, 7, 6 survived the wrap.
    for (size_t i = 0; i < entries.size(); ++i) {
        EXPECT_EQ(entries[i].readIndex, 9u - i);
        EXPECT_EQ(entries[i].stage, ReadStage::Done);
    }
}

TEST(FlightRecorder, ReportNamesReadsAndStages)
{
    FlightRecorder recorder(2, 4);
    recorder.ring(0)->begin(17);
    recorder.ring(0)->stage(ReadStage::Extend);
    std::string report = recorder.report(
        util::nowNanos(),
        [](uint64_t index) { return "read-" + std::to_string(index); });
    EXPECT_NE(report.find("read-17"), std::string::npos);
    EXPECT_NE(report.find("extend"), std::string::npos);
}

// ---------------------------------------------------------------- emitter

TEST(Emitter, ConcurrentWithWorkerIncrements)
{
    // The tsan preset runs this: a periodic emitter snapshotting while two
    // workers hammer their slabs must be race-free.
    Registry reg;
    CounterId c = reg.counter("mg_test_hammer_total", "increments");
    HistogramId h = reg.histogram("mg_test_hammer_ns", "observations");
    Registry::ThreadSlab* slabs[2] = { reg.registerThread(0),
                                       reg.registerThread(1) };

    const std::string path = test::tempPath("obs_emitter_test.json");
    MetricsEmitter emitter(reg, path, 0.005);
    emitter.start();

    std::atomic<bool> stop{false};
    std::thread workers[2];
    for (int t = 0; t < 2; ++t) {
        workers[t] = std::thread([&, t] {
            while (!stop.load(std::memory_order_relaxed)) {
                slabs[t]->add(c);
                slabs[t]->observe(h, 64);
            }
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    stop.store(true);
    workers[0].join();
    workers[1].join();

    Snapshot last = emitter.finalize();
    EXPECT_GE(emitter.snapshotCount(), 2u);
    EXPECT_GT(last.valueOf("mg_test_hammer_total"), 0u);
    // The written series must itself be valid and monotonic.
    json::Value doc = json::parse(io::readFileText(path), path);
    EXPECT_EQ(doc.find("minigiraffe_metrics")->asUint(), 1u);
    const json::Value* snaps = doc.find("snapshots");
    ASSERT_TRUE(snaps->isArray());
    uint64_t prev = 0;
    for (const json::Value& snap : snaps->items) {
        for (const json::Value& m : snap.find("metrics")->items) {
            if (m.find("name")->text == "mg_test_hammer_total") {
                EXPECT_GE(m.find("value")->asUint(), prev);
                prev = m.find("value")->asUint();
            }
        }
    }
}

TEST(Emitter, PrometheusExtensionWritesExposition)
{
    Registry reg;
    CounterId c = reg.counter("mg_test_prom_total", "a counter");
    reg.registerThread(0)->add(c, 9);
    const std::string path = test::tempPath("obs_test.prom");
    MetricsEmitter emitter(reg, path);
    EXPECT_TRUE(emitter.prometheus());
    Snapshot final_snap = emitter.finalize();
    std::string text = io::readFileText(path);
    EXPECT_NE(text.find("# TYPE mg_test_prom_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("mg_test_prom_total 9"), std::string::npos);
    EXPECT_EQ(final_snap.valueOf("mg_test_prom_total"), 9u);
}

TEST(Emitter, FinalizeAppendsExtras)
{
    Registry reg;
    reg.counter("mg_test_base_total", "base");
    reg.registerThread(0);
    const std::string path = test::tempPath("obs_extras.prom");
    MetricsEmitter emitter(reg, path);
    MetricValue extra;
    extra.name = "mg_fault_fires_total{site=\"io.read\"}";
    extra.help = "fires";
    extra.value = 2;
    Snapshot final_snap = emitter.finalize({ extra });
    EXPECT_EQ(final_snap.valueOf("mg_fault_fires_total{site=\"io.read\"}"),
              2u);
    std::string text = io::readFileText(path);
    EXPECT_NE(text.find("mg_fault_fires_total{site=\"io.read\"} 2"),
              std::string::npos);
}

// ------------------------------------------------------------------ trace

TEST(Trace, ChromeTraceParsesAndCarriesEvents)
{
    perf::Profiler profiler(true);
    perf::RegionId extend = profiler.regionId(perf::regions::kExtend);
    perf::Profiler::ThreadLog* log = profiler.registerThread(0);
    for (int i = 0; i < 3; ++i) {
        perf::ScopedRegion region(log, extend);
        util::WallTimer spin;
        while (spin.nanos() < 1000) {
        }
    }
    const std::string path = test::tempPath("obs_trace.json");
    std::vector<TraceInstant> instants;
    instants.push_back(TraceInstant{ "watchdog cancel", 0, 0 });
    writeChromeTrace(path, profiler, instants, "obs_test");

    json::Value doc = json::parse(io::readFileText(path), path);
    const json::Value* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    size_t complete = 0;
    size_t instant = 0;
    size_t metadata = 0;
    for (const json::Value& event : events->items) {
        const std::string& ph = event.find("ph")->text;
        if (ph == "X") {
            ++complete;
            EXPECT_EQ(event.find("name")->text, perf::regions::kExtend);
        } else if (ph == "i") {
            ++instant;
            EXPECT_EQ(event.find("name")->text, "watchdog cancel");
        } else if (ph == "M") {
            ++metadata;
        }
    }
    EXPECT_EQ(complete, 3u);
    EXPECT_EQ(instant, 1u);
    EXPECT_GE(metadata, 2u); // process_name + at least one thread_name
}

} // namespace
} // namespace mg::obs

// ------------------------------------------------------------- end to end

namespace mg::giraffe {
namespace {

class ObsPipelineFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        sim::PangenomeParams pparams;
        pparams.seed = 301;
        pparams.backboneLength = 6000;
        pparams.haplotypes = 4;
        pg_ = sim::generatePangenome(pparams);

        index::MinimizerParams mparams;
        mparams.k = 15;
        mparams.w = 8;
        minimizers_ = index::MinimizerIndex(pg_.graph, mparams);
        distance_ = index::DistanceIndex(pg_.graph);

        sim::ReadSimParams rparams;
        rparams.seed = 302;
        rparams.count = 80;
        rparams.readLength = 110;
        rparams.errorRate = 0.005;
        reads_ = sim::simulateReads(pg_, rparams);
    }

    sim::GeneratedPangenome pg_;
    index::MinimizerIndex minimizers_;
    index::DistanceIndex distance_;
    map::ReadSet reads_;
};

TEST_F(ObsPipelineFixture, ProxyFunnelMetricsAreSelfConsistent)
{
    ParentParams pparams;
    ParentEmulator parent(pg_.graph, pg_.gbwt, minimizers_, distance_,
                          pparams);
    io::SeedCapture capture = parent.capturePreprocessing(reads_);

    ProxyParams params;
    params.numThreads = 2;
    params.batchSize = 16;
    ProxyRunner proxy(pg_.graph, pg_.gbwt, distance_, params);
    obs::Hub hub(params.numThreads);
    ProxyOutputs outputs = proxy.run(capture, nullptr, nullptr, &hub);

    obs::Snapshot snap = hub.registry().snapshot();
    const uint64_t mapped = snap.valueOf("mg_map_reads_total");
    EXPECT_EQ(mapped, capture.entries.size());
    // Funnel ordering: processed clusters are a subset of formed ones,
    // emitted extensions a subset of attempted ones.
    EXPECT_LE(snap.valueOf("mg_map_clusters_processed_total"),
              snap.valueOf("mg_map_clusters_formed_total"));
    EXPECT_LE(snap.valueOf("mg_map_extensions_emitted_total"),
              snap.valueOf("mg_map_extensions_attempted_total"));
    EXPECT_GT(snap.valueOf("mg_map_extensions_emitted_total"), 0u);
    // Per-read latency histogram saw every read exactly once.
    EXPECT_EQ(snap.find("mg_map_read_latency_ns")->hist.count(), mapped);
    // Cache metrics agree with the run's own aggregated stats.
    EXPECT_EQ(snap.valueOf("mg_gbwt_lookups_total"),
              outputs.cacheStats.lookups);
    EXPECT_EQ(snap.valueOf("mg_gbwt_hits_total"),
              outputs.cacheStats.hits);
    // Scheduler counters: at least one batch, nothing failed.
    EXPECT_GE(snap.valueOf("mg_sched_batches_total"),
              (capture.entries.size() + params.batchSize - 1) /
                  params.batchSize);
    EXPECT_EQ(snap.valueOf("mg_sched_quarantined_total"), 0u);
    EXPECT_EQ(snap.find("mg_sched_batch_latency_ns")->hist.count(),
              snap.valueOf("mg_sched_batches_total"));
}

TEST_F(ObsPipelineFixture, ParentRunPopulatesHubAndSummary)
{
    ParentParams params;
    params.numThreads = 2;
    params.batchSize = 16;
    ParentEmulator parent(pg_.graph, pg_.gbwt, minimizers_, distance_,
                          params);
    obs::Hub hub(params.numThreads);
    ParentOutputs outputs = parent.run(reads_, nullptr, nullptr, &hub);

    obs::Snapshot snap = hub.registry().snapshot();
    EXPECT_EQ(snap.valueOf("mg_map_reads_total"), reads_.size());
    EXPECT_EQ(snap.valueOf("mg_gbwt_lookups_total"),
              outputs.cacheStats.lookups);

    // The run summary is valid JSON and carries the failure-isolation
    // counters every summary must have.
    obs::json::Value doc =
        obs::json::parse(summaryJson(outputs, params), "summary");
    EXPECT_EQ(doc.find("kind")->text, "parent");
    const obs::json::Value* failures = doc.find("failures");
    ASSERT_NE(failures, nullptr);
    EXPECT_NE(failures->find("retries"), nullptr);
    EXPECT_NE(failures->find("quarantined"), nullptr);
    EXPECT_NE(failures->find("watchdog_cancels"), nullptr);
    EXPECT_EQ(doc.find("reads")->asUint(), reads_.size());
}

TEST_F(ObsPipelineFixture, UndersizedHubIsRejected)
{
    ProxyParams params;
    params.numThreads = 4;
    ProxyRunner proxy(pg_.graph, pg_.gbwt, distance_, params);
    ParentParams pparams;
    ParentEmulator parent(pg_.graph, pg_.gbwt, minimizers_, distance_,
                          pparams);
    io::SeedCapture capture = parent.capturePreprocessing(reads_);
    obs::Hub hub(2); // too small for 4 workers
    EXPECT_THROW(proxy.run(capture, nullptr, nullptr, &hub), util::Error);
}

} // namespace
} // namespace mg::giraffe
