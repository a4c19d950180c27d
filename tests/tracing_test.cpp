/**
 * End-to-end request tracing and live introspection tests.  The
 * invariants:
 *
 *  - the extended wire frames are backward compatible: an untraced
 *    request/response encodes byte-identically to the pre-tracing
 *    format, and the trailing trace fields round-trip when present;
 *  - a traced request's response echoes the trace id plus the daemon's
 *    queue/map attribution, and its spans land in the stage histograms
 *    and the slowest-N exemplar ring;
 *  - tracing is observation-only: daemon GAF with tracing on is
 *    byte-identical to a direct MapSession's output;
 *  - the STATS control frame answers a parseable introspection snapshot
 *    naming tenants, workers, stages, and in-flight traces;
 *  - the Chrome-trace export is valid JSON with per-lane tracks and
 *    cross-thread flow arrows; `.mgtrace` dumps validate;
 *  - the Prometheus exposition survives a strict text-format parser,
 *    including label values that need escaping.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "giraffe/session.h"
#include "io/file.h"
#include "obs/hub.h"
#include "obs/json.h"
#include "obs/request_trace.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/frame.h"
#include "sim/pangenome_gen.h"
#include "sim/read_sim.h"
#include "test_tmpdir.h"

namespace mg::serve {
namespace {

using test::tempPath;

// --------------------------------------------------------------------
// Wire compatibility: the trace fields are optional trailing varints.

TEST(TraceWire, UntracedRequestEncodesAsPreTracingPrefix)
{
    Request request;
    request.id = 7;
    request.tenant = "gold";
    request.deadlineMicros = 1000;
    map::Read read;
    read.name = "r1";
    read.sequence = "ACGTACGT";
    request.reads.push_back(read);

    std::vector<uint8_t> untraced = encodeRequest(request);
    request.traceId = 0xabcdef12u;
    std::vector<uint8_t> traced = encodeRequest(request);

    // The traced payload extends the untraced one: old peers decode the
    // shared prefix, new peers read the trailing id.
    ASSERT_GT(traced.size(), untraced.size());
    EXPECT_TRUE(std::equal(untraced.begin(), untraced.end(),
                           traced.begin()));

    Request out;
    ASSERT_TRUE(decodeRequest(untraced, out).ok());
    EXPECT_EQ(out.traceId, 0u);
    ASSERT_TRUE(decodeRequest(traced, out).ok());
    EXPECT_EQ(out.traceId, 0xabcdef12u);
    EXPECT_EQ(out.tenant, "gold");
    ASSERT_EQ(out.reads.size(), 1u);
    EXPECT_EQ(out.reads[0].sequence, "ACGTACGT");
}

TEST(TraceWire, ResponseTraceEchoRoundTrips)
{
    Response response;
    response.id = 9;
    response.status = ResponseStatus::Ok;
    response.generation = 3;
    response.gaf = "read1\t100\n";
    response.mappedReads = 1;

    std::vector<uint8_t> untraced = encodeResponse(response);
    response.traceId = 0x1122334455667788ull;
    response.queueNanos = 1500;
    response.mapNanos = 250000;
    std::vector<uint8_t> traced = encodeResponse(response);

    ASSERT_GT(traced.size(), untraced.size());
    EXPECT_TRUE(std::equal(untraced.begin(), untraced.end(),
                           traced.begin()));

    Response out;
    ASSERT_TRUE(decodeResponse(untraced, out).ok());
    EXPECT_EQ(out.traceId, 0u);
    EXPECT_EQ(out.queueNanos, 0u);
    EXPECT_EQ(out.mapNanos, 0u);
    ASSERT_TRUE(decodeResponse(traced, out).ok());
    EXPECT_EQ(out.traceId, 0x1122334455667788ull);
    EXPECT_EQ(out.queueNanos, 1500u);
    EXPECT_EQ(out.mapNanos, 250000u);
    EXPECT_EQ(out.gaf, "read1\t100\n");
}

TEST(TraceWire, StatsControlFrameRoundTrips)
{
    ControlRequest control;
    control.id = 12;
    control.op = ControlOp::Stats;

    ControlRequest out;
    ASSERT_TRUE(decodeControl(encodeControl(control), out).ok());
    EXPECT_EQ(out.id, 12u);
    EXPECT_EQ(out.op, ControlOp::Stats);
    EXPECT_TRUE(out.path.empty());

    Response stats;
    stats.id = 12;
    stats.status = ResponseStatus::StatsOk;
    stats.generation = 2;
    stats.message = "{\"minigiraffe_stats\": 1}";
    Response decoded;
    ASSERT_TRUE(decodeResponse(encodeResponse(stats), decoded).ok());
    EXPECT_EQ(decoded.status, ResponseStatus::StatsOk);
    EXPECT_EQ(decoded.message, "{\"minigiraffe_stats\": 1}");
}

// --------------------------------------------------------------------
// Tracer unit behavior.

TEST(RequestTracer, MintsDistinctNonzeroIds)
{
    obs::RequestTracer::Params params;
    params.lanes = 2;
    obs::RequestTracer tracer(params);
    std::set<uint64_t> ids;
    for (int i = 0; i < 256; ++i) {
        uint64_t id = tracer.mint();
        EXPECT_NE(id, 0u);
        ids.insert(id);
    }
    EXPECT_EQ(ids.size(), 256u);
}

TEST(RequestTracer, HeadSamplingFollowsRate)
{
    obs::RequestTracer::Params params;
    params.lanes = 1;
    params.sampleRate = 0.0;
    obs::RequestTracer never(params);
    for (int i = 0; i < 64; ++i) {
        EXPECT_FALSE(never.sampleHead());
    }
    params.sampleRate = 1.0;
    obs::RequestTracer always(params);
    for (int i = 0; i < 64; ++i) {
        EXPECT_TRUE(always.sampleHead());
    }
    params.sampleRate = 0.25;
    obs::RequestTracer quarter(params);
    int sampled = 0;
    for (int i = 0; i < 2000; ++i) {
        sampled += quarter.sampleHead() ? 1 : 0;
    }
    EXPECT_GT(sampled, 2000 / 8);
    EXPECT_LT(sampled, 2000 / 2);
}

TEST(RequestTracer, TraceIdHexRoundTrips)
{
    const uint64_t id = 0x0123456789abcdefull;
    const std::string hex = obs::traceIdHex(id);
    EXPECT_EQ(hex, "0x0123456789abcdef");
    EXPECT_EQ(obs::parseTraceIdHex(hex), id);
    EXPECT_EQ(obs::parseTraceIdHex("nonsense"), 0u);
    EXPECT_EQ(obs::parseTraceIdHex("0x12"), 0u); // wrong width
}

/** A synthetic request: accept on the reader lane, the rest on worker
 *  lane 0.  `reader_lane` must be the tracer's controlLane() for the
 *  cross-lane flow arrow to materialize. */
obs::TraceContext
makeContext(uint64_t trace_id, uint64_t begin, uint64_t map_nanos,
            uint32_t reader_lane = 1)
{
    obs::TraceContext ctx;
    ctx.traceId = trace_id;
    ctx.beginNanos = begin;
    ctx.endNanos = begin + map_nanos + 2000;
    ctx.tenant = "default";
    ctx.span(obs::SpanStage::Accept, reader_lane, begin, begin + 500);
    ctx.span(obs::SpanStage::QueueWait, 0, begin + 500, begin + 2000);
    ctx.span(obs::SpanStage::Extend, 0, begin + 2000,
             begin + 2000 + map_nanos);
    return ctx;
}

TEST(RequestTracer, ExemplarRingKeepsSlowestN)
{
    obs::RequestTracer::Params params;
    params.lanes = 1;
    params.exemplars = 2;
    obs::RequestTracer tracer(params);
    tracer.commit(0, makeContext(1, 1000, 10'000));
    tracer.commit(0, makeContext(2, 1000, 90'000));
    tracer.commit(0, makeContext(3, 1000, 50'000));
    tracer.commit(0, makeContext(4, 1000, 1'000));

    std::vector<obs::RequestTracer::Exemplar> slowest =
        tracer.exemplars();
    ASSERT_EQ(slowest.size(), 2u);
    EXPECT_EQ(slowest[0].ctx.traceId, 2u);
    EXPECT_EQ(slowest[1].ctx.traceId, 3u);
    EXPECT_GE(slowest[0].totalNanos, slowest[1].totalNanos);
    EXPECT_EQ(tracer.committedTotal(), 4u);

    // The per-stage table names the trace that dominated each stage.
    auto stage = tracer.stageExemplars();
    EXPECT_EQ(
        stage[static_cast<size_t>(obs::SpanStage::Extend)].traceId, 2u);
    EXPECT_EQ(
        stage[static_cast<size_t>(obs::SpanStage::Seed)].traceId, 0u);
}

TEST(RequestTracer, InFlightTableTracksLanes)
{
    obs::RequestTracer::Params params;
    params.lanes = 3;
    obs::RequestTracer tracer(params);
    EXPECT_TRUE(tracer.inFlight().empty());
    tracer.beginInFlight(1, 42, 5000);
    tracer.beginInFlight(2, 43, 1000);
    std::vector<obs::RequestTracer::InFlightEntry> entries =
        tracer.inFlight();
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].traceId, 43u); // oldest first
    EXPECT_EQ(entries[1].traceId, 42u);
    tracer.endInFlight(2);
    entries = tracer.inFlight();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].traceId, 42u);
}

TEST(RequestTracer, ChromeTraceHasTracksAndFlowArrows)
{
    obs::RequestTracer::Params params;
    params.lanes = 2;
    obs::RequestTracer tracer(params);
    // One request crossing from the control lane (reader) to lane 0
    // (worker): the export must draw a flow arrow between them.
    tracer.commit(0, makeContext(77, 10'000, 30'000,
                                 static_cast<uint32_t>(
                                     tracer.controlLane())));
    const std::string path = tempPath("chrome_trace.json");
    tracer.writeChromeTrace(path, "test");

    std::vector<uint8_t> bytes = io::readFileBytes(path);
    obs::json::Value doc = obs::json::parse(
        std::string(bytes.begin(), bytes.end()), path);
    const obs::json::Value* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    size_t spans = 0;
    size_t flow_starts = 0;
    size_t flow_ends = 0;
    std::set<uint64_t> tids;
    for (const obs::json::Value& event : events->items) {
        const obs::json::Value* ph = event.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->text == "X") {
            ++spans;
            tids.insert(event.find("tid")->asUint());
        } else if (ph->text == "s") {
            ++flow_starts;
        } else if (ph->text == "f") {
            ++flow_ends;
        }
    }
    EXPECT_EQ(spans, 3u);
    EXPECT_GE(tids.size(), 2u); // reader track + worker track
    EXPECT_GE(flow_starts, 1u);
    EXPECT_EQ(flow_starts, flow_ends);
}

TEST(RequestTracer, TraceDumpWritesValidatableJson)
{
    obs::RequestTracer::Exemplar exemplar;
    exemplar.ctx = makeContext(0x5555, 1000, 40'000);
    exemplar.ctx.disposition = "ok";
    exemplar.totalNanos = exemplar.ctx.endNanos - exemplar.ctx.beginNanos;
    std::vector<obs::FlightEntry> flight(1);
    flight[0].readIndex = 12;
    flight[0].stage = obs::ReadStage::Extend;
    flight[0].traceId = 0x5555;

    const std::string path = tempPath("exemplar.mgtrace");
    obs::writeTraceDump(path, exemplar, flight);

    std::vector<uint8_t> bytes = io::readFileBytes(path);
    obs::json::Value doc = obs::json::parse(
        std::string(bytes.begin(), bytes.end()), path);
    ASSERT_NE(doc.find("minigiraffe_trace"), nullptr);
    EXPECT_EQ(doc.find("minigiraffe_trace")->asUint(), 1u);
    EXPECT_NE(obs::parseTraceIdHex(doc.find("trace_id")->text), 0u);
    const obs::json::Value* spans = doc.find("spans");
    ASSERT_NE(spans, nullptr);
    ASSERT_EQ(spans->items.size(), 3u);
    uint64_t prev_begin = 0;
    for (const obs::json::Value& span : spans->items) {
        const uint64_t begin = span.find("begin_ns")->asUint();
        const uint64_t end = span.find("end_ns")->asUint();
        EXPECT_LE(begin, end);
        EXPECT_GE(begin, prev_begin); // sorted by begin
        EXPECT_GE(begin, doc.find("begin_ns")->asUint());
        EXPECT_LE(end, doc.find("end_ns")->asUint());
        prev_begin = begin;
    }
    const obs::json::Value* fl = doc.find("flight");
    ASSERT_NE(fl, nullptr);
    ASSERT_EQ(fl->items.size(), 1u);
    EXPECT_EQ(fl->items[0].find("read_index")->asUint(), 12u);
}

// --------------------------------------------------------------------
// Prometheus exposition vs a strict text-format parser.

/**
 * Strict parse of the Prometheus text format: every line is a HELP, a
 * TYPE, or a sample; HELP/TYPE appear at most once per family and
 * before any of its samples; label values have balanced quoting with
 * only \\, \" and \n escapes; sample values are numeric.
 */
void
strictPromParse(const std::string& text)
{
    std::set<std::string> help_seen;
    std::set<std::string> type_seen;
    std::set<std::string> sampled; // families that already emitted data
    size_t pos = 0;
    size_t lineno = 0;
    while (pos < text.size()) {
        size_t eol = text.find('\n', pos);
        ASSERT_NE(eol, std::string::npos)
            << "line " << lineno << " missing newline";
        std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        ++lineno;
        if (line.empty()) {
            continue;
        }
        if (line.rfind("# HELP ", 0) == 0 ||
            line.rfind("# TYPE ", 0) == 0) {
            const bool is_help = line[2] == 'H';
            const size_t name_begin = 7;
            const size_t name_end = line.find(' ', name_begin);
            ASSERT_NE(name_end, std::string::npos) << line;
            const std::string family =
                line.substr(name_begin, name_end - name_begin);
            std::set<std::string>& seen =
                is_help ? help_seen : type_seen;
            EXPECT_TRUE(seen.insert(family).second)
                << "duplicate " << (is_help ? "HELP" : "TYPE")
                << " for " << family;
            EXPECT_EQ(sampled.count(family), 0u)
                << "header after samples for " << family;
            if (is_help) {
                // HELP text must not contain a raw newline (it would
                // have split the line) and escapes must be valid.
                const std::string help = line.substr(name_end + 1);
                for (size_t i = 0; i < help.size(); ++i) {
                    if (help[i] == '\\') {
                        ASSERT_LT(i + 1, help.size()) << line;
                        char next = help[i + 1];
                        EXPECT_TRUE(next == '\\' || next == 'n')
                            << "bad HELP escape in: " << line;
                        ++i;
                    }
                }
            }
            continue;
        }
        ASSERT_NE(line[0], '#') << "unknown comment line: " << line;
        // Sample line: name[{labels}] value
        size_t name_end = line.find_first_of("{ ");
        ASSERT_NE(name_end, std::string::npos) << line;
        std::string name = line.substr(0, name_end);
        for (char c : name) {
            EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) ||
                        c == '_' || c == ':')
                << "bad metric name char in: " << line;
        }
        size_t cursor = name_end;
        if (line[cursor] == '{') {
            // Parse label pairs strictly.
            ++cursor;
            while (line[cursor] != '}') {
                size_t eq = line.find('=', cursor);
                ASSERT_NE(eq, std::string::npos) << line;
                const std::string key =
                    line.substr(cursor, eq - cursor);
                ASSERT_FALSE(key.empty()) << line;
                ASSERT_EQ(line[eq + 1], '"') << line;
                size_t v = eq + 2;
                bool closed = false;
                while (v < line.size()) {
                    if (line[v] == '\\') {
                        ASSERT_LT(v + 1, line.size()) << line;
                        char next = line[v + 1];
                        EXPECT_TRUE(next == '\\' || next == '"' ||
                                    next == 'n')
                            << "bad label escape in: " << line;
                        v += 2;
                        continue;
                    }
                    if (line[v] == '"') {
                        closed = true;
                        break;
                    }
                    ASSERT_NE(line[v], '\n') << line;
                    ++v;
                }
                ASSERT_TRUE(closed) << "unterminated label in: " << line;
                cursor = v + 1;
                if (line[cursor] == ',') {
                    ++cursor;
                }
            }
            ++cursor; // past '}'
        }
        ASSERT_EQ(line[cursor], ' ') << line;
        const std::string value = line.substr(cursor + 1);
        ASSERT_FALSE(value.empty()) << line;
        char* end = nullptr;
        (void)std::strtod(value.c_str(), &end);
        EXPECT_EQ(*end, '\0') << "non-numeric sample value in: " << line;
        // Strip histogram suffixes to find the family for ordering.
        std::string family = name;
        for (const char* suffix : { "_bucket", "_sum", "_count" }) {
            const size_t len = std::string(suffix).size();
            if (family.size() > len &&
                family.compare(family.size() - len, len, suffix) == 0 &&
                type_seen.count(family.substr(0, family.size() - len)) >
                    0) {
                family = family.substr(0, family.size() - len);
                break;
            }
        }
        sampled.insert(family);
        EXPECT_EQ(type_seen.count(family), 1u)
            << "sample without TYPE header: " << line;
    }
}

TEST(Prometheus, ExpositionSurvivesStrictParserWithHostileLabels)
{
    // Tenant names exercising every escape the text format defines.
    std::vector<std::string> tenants = { "plain", "quo\"te", "back\\slash",
                                         "new\nline" };
    obs::Hub hub(2, tenants);
    obs::Registry::ThreadSlab* slab = hub.slab(0);
    for (size_t t = 0; t < tenants.size(); ++t) {
        slab->add(hub.serve().perTenant[t].accepted, t + 1);
        slab->observe(hub.serve().perTenant[t].latency, 1000 * (t + 1));
    }
    slab->observe(
        hub.serve().stageNanos[static_cast<size_t>(
            obs::SpanStage::Extend)],
        123456);

    const std::string prom = obs::toPrometheus(hub.registry().snapshot());
    strictPromParse(prom);
    // The escaped forms actually appear.
    EXPECT_NE(prom.find("tenant=\"quo\\\"te\""), std::string::npos);
    EXPECT_NE(prom.find("tenant=\"back\\\\slash\""), std::string::npos);
    EXPECT_NE(prom.find("tenant=\"new\\nline\""), std::string::npos);
    EXPECT_NE(prom.find("mg_serve_stage_ns"), std::string::npos);
}

// --------------------------------------------------------------------
// End-to-end: a real daemon, traced requests, introspection.

class TracingFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fault::disarmAll();
        sim::PangenomeParams pparams;
        pparams.seed = 501;
        pparams.backboneLength = 6000;
        pparams.haplotypes = 4;
        pg_ = sim::generatePangenome(pparams);

        index::MinimizerParams mparams;
        mparams.k = 15;
        mparams.w = 8;
        minimizers_ = index::MinimizerIndex(pg_.graph, mparams);
        distance_ = index::DistanceIndex(pg_.graph);

        sim::ReadSimParams rparams;
        rparams.seed = 502;
        rparams.count = 48;
        rparams.readLength = 100;
        rparams.errorRate = 0.005;
        reads_ = sim::simulateReads(pg_, rparams).reads;
    }

    void TearDown() override { fault::disarmAll(); }

    std::string
    socketPath(const std::string& name) const
    {
        return tempPath(name + ".sock");
    }

    DaemonParams
    daemonParams(const std::string& name) const
    {
        DaemonParams params;
        params.socketPath = socketPath(name);
        params.workers = 2;
        params.queueCapacity = 8;
        params.watchdogParams.stallSeconds = 2.0;
        return params;
    }

    std::unique_ptr<Daemon>
    makeDaemon(DaemonParams params) const
    {
        return std::make_unique<Daemon>(pg_.graph, pg_.gbwt, minimizers_,
                                        distance_, std::move(params));
    }

    ClientParams
    clientParams(const std::string& name) const
    {
        ClientParams params;
        params.socketPath = socketPath(name);
        params.backoffBaseMillis = 2;
        params.backoffCapMillis = 50;
        return params;
    }

    std::vector<map::Read>
    slice(size_t begin, size_t count) const
    {
        return std::vector<map::Read>(reads_.begin() + begin,
                                      reads_.begin() + begin + count);
    }

    /**
     * Wait until the tracer has committed `n` requests.  The worker
     * commits *after* writing the response, so assertions made the
     * instant the client returns race the final bookkeeping (visible
     * under TSan's slowdown).
     */
    static void
    settleCommitted(Daemon& daemon, uint64_t n)
    {
        for (int spin = 0;
             spin < 2000 && daemon.tracer().committedTotal() < n;
             ++spin) {
            usleep(1000);
        }
        ASSERT_GE(daemon.tracer().committedTotal(), n)
            << "trace commits never settled";
    }

    sim::GeneratedPangenome pg_;
    index::MinimizerIndex minimizers_;
    index::DistanceIndex distance_;
    std::vector<map::Read> reads_;
};

TEST_F(TracingFixture, ClientTaggedRequestEchoesTraceAndFeedsStages)
{
    std::unique_ptr<Daemon> daemon = makeDaemon(daemonParams("tagged"));
    daemon->start();

    ClientParams cparams = clientParams("tagged");
    cparams.traceSample = 1.0; // tag every request
    Client client(cparams);
    Response response;
    util::Status status = client.mapReads(
        "", slice(0, 16), resilience::WorkBudget{}, response);
    ASSERT_TRUE(status.ok()) << status.toString();
    ASSERT_EQ(response.status, ResponseStatus::Ok);

    // The trace echo names the id the client minted and attributes time.
    EXPECT_NE(response.traceId, 0u);
    EXPECT_GT(response.mapNanos, 0u);
    EXPECT_EQ(client.stats().traced, 1u);

    // Spans landed: the tracer committed the request and the stage
    // histograms saw seed/extend/write time.
    settleCommitted(*daemon, 1);
    EXPECT_EQ(daemon->tracer().committedTotal(), 1u);
    std::vector<obs::RequestTracer::Exemplar> exemplars =
        daemon->tracer().exemplars();
    ASSERT_EQ(exemplars.size(), 1u);
    EXPECT_EQ(exemplars[0].ctx.traceId, response.traceId);
    EXPECT_EQ(exemplars[0].ctx.disposition, "ok");
    std::set<obs::SpanStage> stages;
    for (const obs::Span& span : exemplars[0].ctx.spans) {
        EXPECT_LE(span.beginNanos, span.endNanos);
        stages.insert(span.stage);
    }
    EXPECT_EQ(stages.count(obs::SpanStage::Accept), 1u);
    EXPECT_EQ(stages.count(obs::SpanStage::QueueWait), 1u);
    EXPECT_EQ(stages.count(obs::SpanStage::Seed), 1u);
    EXPECT_EQ(stages.count(obs::SpanStage::Extend), 1u);
    EXPECT_EQ(stages.count(obs::SpanStage::Write), 1u);

    obs::Snapshot snap = daemon->hub().registry().snapshot();
    const obs::MetricValue* extend_hist = snap.find(
        "mg_serve_stage_ns{stage=\"extend\"}");
    ASSERT_NE(extend_hist, nullptr);
    EXPECT_GT(extend_hist->hist.count(), 0u);

    daemon->stop();
    EXPECT_EQ(daemon->report().tracedRequests, 1u);
}

TEST_F(TracingFixture, HeadSamplingTracesUntaggedRequests)
{
    DaemonParams dparams = daemonParams("head");
    dparams.traceSample = 1.0; // daemon mints for every untagged request
    std::unique_ptr<Daemon> daemon = makeDaemon(dparams);
    daemon->start();

    Client client(clientParams("head")); // traceSample 0: never tags
    Response response;
    util::Status status = client.mapReads(
        "", slice(0, 8), resilience::WorkBudget{}, response);
    ASSERT_TRUE(status.ok()) << status.toString();
    ASSERT_EQ(response.status, ResponseStatus::Ok);
    EXPECT_EQ(client.stats().traced, 0u);
    EXPECT_NE(response.traceId, 0u); // daemon minted and echoed
    settleCommitted(*daemon, 1);
    EXPECT_EQ(daemon->tracer().committedTotal(), 1u);
}

TEST_F(TracingFixture, TracingIsByteInvisibleInGaf)
{
    std::unique_ptr<Daemon> daemon = makeDaemon(daemonParams("bytes"));
    daemon->start();

    ClientParams cparams = clientParams("bytes");
    cparams.traceSample = 1.0;
    Client traced(cparams);
    Response response;
    ASSERT_TRUE(traced.mapReads("", slice(0, 24),
                                resilience::WorkBudget{}, response)
                    .ok());
    ASSERT_EQ(response.status, ResponseStatus::Ok);
    ASSERT_NE(response.traceId, 0u);

    giraffe::MapSession session(pg_.graph, pg_.gbwt, minimizers_,
                                distance_, giraffe::SessionParams{});
    giraffe::SessionResult direct =
        session.map(0, slice(0, 24), resilience::WorkBudget{});
    EXPECT_EQ(response.gaf, direct.gaf);
    EXPECT_EQ(response.mappedReads, direct.mappedReads);
}

TEST_F(TracingFixture, StatsControlAnswersIntrospectionSnapshot)
{
    DaemonParams dparams = daemonParams("stats");
    dparams.tenants = parseTenantSpec("gold:weight=3,free");
    dparams.traceSample = 1.0;
    std::unique_ptr<Daemon> daemon = makeDaemon(dparams);
    daemon->start();

    ClientParams cparams = clientParams("stats");
    cparams.traceSample = 1.0;
    Client client(cparams);
    Response mapped;
    ASSERT_TRUE(client.mapReads("gold", slice(0, 8),
                                resilience::WorkBudget{}, mapped)
                    .ok());
    ASSERT_EQ(mapped.status, ResponseStatus::Ok);

    // The worker's completed/latency bookkeeping lands after the
    // response is written; settle before snapshotting.
    settleCommitted(*daemon, 1);
    for (int spin = 0; spin < 2000; ++spin) {
        const obs::Snapshot snapshot = daemon->hub().registry().snapshot();
        const obs::MetricValue* done =
            snapshot.find("mg_serve_completed_total{tenant=\"gold\"}");
        if (done != nullptr && done->value >= 1) {
            break;
        }
        usleep(1000);
    }

    Response stats;
    util::Status status = client.queryStats(stats);
    ASSERT_TRUE(status.ok()) << status.toString();
    ASSERT_EQ(stats.status, ResponseStatus::StatsOk);
    EXPECT_EQ(stats.generation, 1u);

    obs::json::Value snap =
        obs::json::parse(stats.message, "stats response");
    ASSERT_NE(snap.find("minigiraffe_stats"), nullptr);
    EXPECT_EQ(snap.find("minigiraffe_stats")->asUint(), 1u);
    EXPECT_EQ(snap.find("state")->text, "running");
    EXPECT_EQ(snap.find("generation")->asUint(), 1u);

    const obs::json::Value* queue = snap.find("queue");
    ASSERT_NE(queue, nullptr);
    EXPECT_EQ(queue->find("capacity")->asUint(), 8u);

    const obs::json::Value* tenants = snap.find("tenants");
    ASSERT_NE(tenants, nullptr);
    ASSERT_EQ(tenants->items.size(), 2u);
    EXPECT_EQ(tenants->items[0].find("name")->text, "gold");
    EXPECT_EQ(tenants->items[0].find("accepted")->asUint(), 1u);
    EXPECT_EQ(tenants->items[0].find("completed")->asUint(), 1u);
    EXPECT_GT(tenants->items[0].find("ewma_service_ns")->asUint(), 0u);
    EXPECT_EQ(tenants->items[1].find("name")->text, "free");
    EXPECT_EQ(tenants->items[1].find("accepted")->asUint(), 0u);

    const obs::json::Value* workers = snap.find("workers");
    ASSERT_NE(workers, nullptr);
    EXPECT_EQ(workers->items.size(), 2u);

    const obs::json::Value* stages = snap.find("stages");
    ASSERT_NE(stages, nullptr);
    bool extend_seen = false;
    for (const obs::json::Value& stage : stages->items) {
        if (stage.find("stage")->text == "extend") {
            extend_seen = true;
            EXPECT_GT(stage.find("count")->asUint(), 0u);
            const obs::json::Value* exemplar = stage.find("exemplar");
            ASSERT_NE(exemplar, nullptr);
            EXPECT_NE(obs::parseTraceIdHex(exemplar->text), 0u);
        }
    }
    EXPECT_TRUE(extend_seen);

    const obs::json::Value* trace = snap.find("trace");
    ASSERT_NE(trace, nullptr);
    EXPECT_EQ(trace->find("committed")->asUint(), 1u);
}

TEST_F(TracingFixture, StopExportsChromeTraceAndExemplarDumps)
{
    DaemonParams dparams = daemonParams("export");
    dparams.traceOut = tempPath("mgd_trace.json");
    dparams.traceDumpPrefix = tempPath("mgd_slow_");
    dparams.traceExemplars = 2;
    std::unique_ptr<Daemon> daemon = makeDaemon(dparams);
    daemon->start();

    ClientParams cparams = clientParams("export");
    cparams.traceSample = 1.0;
    Client client(cparams);
    for (int i = 0; i < 3; ++i) {
        Response response;
        ASSERT_TRUE(client.mapReads("", slice(0, 8),
                                    resilience::WorkBudget{}, response)
                        .ok());
        ASSERT_EQ(response.status, ResponseStatus::Ok);
    }
    daemon->stop();
    EXPECT_EQ(daemon->report().tracedRequests, 3u);
    EXPECT_EQ(daemon->report().traceDumps, 2u);

    // The Chrome trace parses and carries spans from all three requests.
    std::vector<uint8_t> bytes = io::readFileBytes(dparams.traceOut);
    obs::json::Value doc = obs::json::parse(
        std::string(bytes.begin(), bytes.end()), dparams.traceOut);
    const obs::json::Value* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    size_t spans = 0;
    for (const obs::json::Value& event : events->items) {
        spans += event.find("ph")->text == "X" ? 1 : 0;
    }
    EXPECT_GE(spans, 3u * 5u); // >= 5 spans per traced request

    // Each exemplar produced a .mgtrace named by its trace id.
    size_t dumps = 0;
    for (const obs::RequestTracer::Exemplar& exemplar :
         daemon->tracer().exemplars()) {
        const std::string path = dparams.traceDumpPrefix +
                                 obs::traceIdHex(exemplar.ctx.traceId) +
                                 ".mgtrace";
        std::vector<uint8_t> dump = io::readFileBytes(path);
        obs::json::Value parsed = obs::json::parse(
            std::string(dump.begin(), dump.end()), path);
        EXPECT_EQ(parsed.find("minigiraffe_trace")->asUint(), 1u);
        EXPECT_EQ(obs::parseTraceIdHex(parsed.find("trace_id")->text),
                  exemplar.ctx.traceId);
        ++dumps;
    }
    EXPECT_EQ(dumps, 2u);
}

TEST_F(TracingFixture, UntracedRequestsPayNothingAndEchoNothing)
{
    std::unique_ptr<Daemon> daemon = makeDaemon(daemonParams("off"));
    daemon->start();

    Client client(clientParams("off"));
    Response response;
    ASSERT_TRUE(client.mapReads("", slice(0, 8),
                                resilience::WorkBudget{}, response)
                    .ok());
    ASSERT_EQ(response.status, ResponseStatus::Ok);
    EXPECT_EQ(response.traceId, 0u);
    EXPECT_EQ(response.queueNanos, 0u);
    EXPECT_EQ(daemon->tracer().committedTotal(), 0u);

    obs::Snapshot snap = daemon->hub().registry().snapshot();
    const obs::MetricValue* extend_hist = snap.find(
        "mg_serve_stage_ns{stage=\"extend\"}");
    ASSERT_NE(extend_hist, nullptr);
    EXPECT_EQ(extend_hist->hist.count(), 0u);
}

} // namespace
} // namespace mg::serve
