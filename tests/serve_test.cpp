/**
 * mgd end-to-end tests: a real daemon on a real Unix socket, exercised
 * through the real client.  Mapping through the service is byte-identical
 * to mapping through a MapSession directly; deterministic budget caps
 * degrade (dg:Z:) identically across runs; overload is answered with
 * RETRY_AFTER, never silence; graceful drain answers or sheds every
 * admitted request and the accounting proves it; per-tenant metrics add
 * up against client-side ground truth.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "giraffe/session.h"
#include "io/fd.h"
#include "io/file.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "sim/pangenome_gen.h"
#include "sim/read_sim.h"
#include "test_tmpdir.h"

namespace mg::serve {
namespace {

class ServeFixture : public ::testing::Test
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
        return test::tempPath(name + ".sock");
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

    sim::GeneratedPangenome pg_;
    index::MinimizerIndex minimizers_;
    index::DistanceIndex distance_;
    std::vector<map::Read> reads_;
};

TEST_F(ServeFixture, MapsExactlyLikeDirectSession)
{
    DaemonParams dparams = daemonParams("basic");
    std::unique_ptr<Daemon> daemon = makeDaemon(dparams);
    daemon->start();

    Client client(clientParams("basic"));
    Response response;
    util::Status status =
        client.mapReads("", slice(0, 16), resilience::WorkBudget{},
                        response);
    ASSERT_TRUE(status.ok()) << status.toString();
    ASSERT_EQ(response.status, ResponseStatus::Ok);

    // Ground truth: the same reads through a MapSession directly.
    giraffe::MapSession session(pg_.graph, pg_.gbwt, minimizers_,
                                distance_, giraffe::SessionParams{});
    giraffe::SessionResult direct =
        session.map(0, slice(0, 16), resilience::WorkBudget{});

    EXPECT_EQ(response.gaf, direct.gaf);
    EXPECT_EQ(response.mappedReads, direct.mappedReads);
    EXPECT_EQ(response.degradedReads, direct.degradedReads);
    EXPECT_GT(response.mappedReads, 0u);

    daemon->stop();
    EXPECT_EQ(daemon->state(), DaemonState::Stopped);
    EXPECT_EQ(daemon->report().accepted, 1u);
    EXPECT_EQ(daemon->report().completed, 1u);
}

TEST_F(ServeFixture, StepCapDegradesDeterministicallyAcrossRuns)
{
    std::string first;
    for (int run = 0; run < 2; ++run) {
        DaemonParams dparams = daemonParams("degraded");
        std::unique_ptr<Daemon> daemon = makeDaemon(dparams);
        daemon->start();

        Client client(clientParams("degraded"));
        resilience::WorkBudget budget;
        budget.maxExtendSteps = 1; // brutal, deterministic cap
        Response response;
        util::Status status =
            client.mapReads("", slice(0, 12), budget, response);
        ASSERT_TRUE(status.ok()) << status.toString();
        ASSERT_EQ(response.status, ResponseStatus::Ok);
        EXPECT_GT(response.degradedReads, 0u);
        EXPECT_NE(response.gaf.find("dg:Z:"), std::string::npos);
        daemon->stop();

        if (run == 0) {
            first = response.gaf;
        } else {
            EXPECT_EQ(response.gaf, first); // byte-reproducible
        }
    }
}

TEST_F(ServeFixture, MalformedAndOversizedRequestsGetStructuredErrors)
{
    DaemonParams dparams = daemonParams("errors");
    dparams.maxReadsPerRequest = 4;
    std::unique_ptr<Daemon> daemon = makeDaemon(dparams);
    daemon->start();

    Client client(clientParams("errors"));

    // Unknown tenant: Error, not a dropped connection.
    Response response;
    Request request;
    request.id = client.nextId();
    request.tenant = "nonexistent";
    request.reads = slice(0, 2);
    ASSERT_TRUE(client.call(request, response).ok());
    EXPECT_EQ(response.status, ResponseStatus::Error);
    EXPECT_NE(response.message.find("tenant"), std::string::npos);

    // Too many reads: Error naming the limit's existence.
    Request big;
    big.id = client.nextId();
    big.reads = slice(0, 8);
    ASSERT_TRUE(client.call(big, response).ok());
    EXPECT_EQ(response.status, ResponseStatus::Error);

    // The connection is still serviceable afterwards.
    ASSERT_TRUE(client
                    .mapReads("", slice(0, 2), resilience::WorkBudget{},
                              response)
                    .ok());
    EXPECT_EQ(response.status, ResponseStatus::Ok);
    daemon->stop();
}

/**
 * Overload: one worker, a queue of 2, and a pipelined burst of requests
 * written back-to-back before any response is read.  Some must come back
 * RETRY_AFTER with a nonzero hint; every request gets *some* response
 * (the leak-free invariant); the daemon's accounting matches.
 */
TEST_F(ServeFixture, OverloadShedsWithRetryAfterAndAnswersEverything)
{
    DaemonParams dparams = daemonParams("overload");
    dparams.workers = 1;
    dparams.queueCapacity = 2;
    std::unique_ptr<Daemon> daemon = makeDaemon(dparams);
    daemon->start();

    constexpr uint64_t kBurst = 12;
    int fd = io::connectUnix(socketPath("overload"));
    for (uint64_t id = 1; id <= kBurst; ++id) {
        Request request;
        request.id = id;
        request.reads = slice(0, 24);
        ASSERT_TRUE(writeFrame(fd, encodeRequest(request)).ok());
    }
    uint64_t ok = 0;
    uint64_t shed = 0;
    std::vector<bool> answered(kBurst + 1, false);
    for (uint64_t i = 0; i < kBurst; ++i) {
        std::vector<uint8_t> payload;
        ASSERT_TRUE(readFrame(fd, payload).ok());
        Response response;
        ASSERT_TRUE(decodeResponse(payload, response).ok());
        ASSERT_GE(response.id, 1u);
        ASSERT_LE(response.id, kBurst);
        EXPECT_FALSE(answered[response.id]); // exactly one response each
        answered[response.id] = true;
        if (response.status == ResponseStatus::Ok) {
            ++ok;
        } else {
            ASSERT_EQ(response.status, ResponseStatus::RetryAfter);
            EXPECT_GT(response.retryAfterMillis, 0u);
            ++shed;
        }
    }
    ::close(fd);

    EXPECT_EQ(ok + shed, kBurst);
    EXPECT_GT(shed, 0u) << "burst was supposed to overwhelm the queue";
    EXPECT_GT(ok, 0u);

    daemon->stop();
    EXPECT_EQ(daemon->report().accepted, ok);
    EXPECT_EQ(daemon->report().completed, ok);
    EXPECT_EQ(daemon->report().shed, shed);

    // The registry agrees with the wire-level ground truth.
    const obs::Snapshot snapshot = daemon->hub().registry().snapshot();
    EXPECT_EQ(snapshot.valueOf("mg_serve_requests_total"), kBurst);
    EXPECT_EQ(
        snapshot.valueOf("mg_serve_accepted_total{tenant=\"default\"}"),
        ok);
    EXPECT_EQ(snapshot.valueOf("mg_serve_shed_total{tenant=\"default\"}"),
              shed);
}

TEST_F(ServeFixture, PerTenantMetricsMatchClientGroundTruth)
{
    DaemonParams dparams = daemonParams("tenants");
    TenantConfig gold;
    gold.name = "gold";
    gold.weight = 3;
    TenantConfig free_tier;
    free_tier.name = "free";
    free_tier.weight = 1;
    dparams.tenants = { gold, free_tier };
    std::unique_ptr<Daemon> daemon = makeDaemon(dparams);
    daemon->start();

    std::thread gold_client([&] {
        Client client(clientParams("tenants"));
        for (int i = 0; i < 6; ++i) {
            Response response;
            ASSERT_TRUE(client
                            .mapReads("gold", slice(0, 4),
                                      resilience::WorkBudget{}, response)
                            .ok());
            EXPECT_EQ(response.status, ResponseStatus::Ok);
        }
    });
    Client client(clientParams("tenants"));
    for (int i = 0; i < 3; ++i) {
        Response response;
        ASSERT_TRUE(client
                        .mapReads("free", slice(4, 4),
                                  resilience::WorkBudget{}, response)
                        .ok());
        EXPECT_EQ(response.status, ResponseStatus::Ok);
    }
    gold_client.join();
    daemon->stop();

    const obs::Snapshot snapshot = daemon->hub().registry().snapshot();
    EXPECT_EQ(snapshot.valueOf("mg_serve_accepted_total{tenant=\"gold\"}"),
              6u);
    EXPECT_EQ(
        snapshot.valueOf("mg_serve_completed_total{tenant=\"gold\"}"), 6u);
    EXPECT_EQ(snapshot.valueOf("mg_serve_accepted_total{tenant=\"free\"}"),
              3u);
    EXPECT_EQ(daemon->report().accepted, 9u);
    EXPECT_EQ(daemon->report().completed, 9u);
}

TEST_F(ServeFixture, DrainAnswersShuttingDownAndStopsClean)
{
    DaemonParams dparams = daemonParams("drain");
    std::unique_ptr<Daemon> daemon = makeDaemon(dparams);
    daemon->start();
    EXPECT_EQ(daemon->state(), DaemonState::Running);

    // A request before the drain maps normally.
    Client client(clientParams("drain"));
    Response response;
    ASSERT_TRUE(client
                    .mapReads("", slice(0, 4), resilience::WorkBudget{},
                              response)
                    .ok());
    EXPECT_EQ(response.status, ResponseStatus::Ok);

    daemon->requestDrain();
    EXPECT_EQ(daemon->state(), DaemonState::Draining);

    // New work on the existing connection is refused with ShuttingDown
    // (the one-shot call shows the raw verdict the retry loop would see).
    Request request;
    request.id = client.nextId();
    request.reads = slice(0, 2);
    util::Status status = client.call(request, response);
    if (status.ok()) {
        EXPECT_EQ(response.status, ResponseStatus::ShuttingDown);
        EXPECT_GT(response.retryAfterMillis, 0u);
    } // else: the daemon already tore the connection down — also valid.

    daemon->stop();
    EXPECT_EQ(daemon->state(), DaemonState::Stopped);
    EXPECT_TRUE(daemon->report().drainClean);
    EXPECT_EQ(daemon->report().accepted, daemon->report().completed);

    // The socket is unlinked: a fresh connect must fail.
    EXPECT_THROW(io::connectUnix(socketPath("drain")), util::Error);
}

TEST_F(ServeFixture, ClientRetriesThenReportsExhaustion)
{
    DaemonParams dparams = daemonParams("exhaust");
    std::unique_ptr<Daemon> daemon = makeDaemon(dparams);
    daemon->start();
    daemon->requestDrain(); // permanently ShuttingDown from the client's view

    ClientParams cparams = clientParams("exhaust");
    cparams.maxAttempts = 3;
    Client client(cparams);
    Response response;
    util::Status status = client.mapReads(
        "", slice(0, 2), resilience::WorkBudget{}, response);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code, util::StatusCode::ResourceExhausted);
    EXPECT_EQ(client.stats().exhausted, 1u);
    EXPECT_GT(client.stats().retries, 0u);
    daemon->stop();
}

/** Ids on the wire stay strictly monotone even across retry attempts —
 *  the invariant mg_verify checks on .mgreq captures. */
TEST_F(ServeFixture, CaptureFilesValidateAfterRetries)
{
    DaemonParams dparams = daemonParams("capture");
    std::unique_ptr<Daemon> daemon = makeDaemon(dparams);
    daemon->start();

    ClientParams cparams = clientParams("capture");
    cparams.capturePrefix = test::tempPath("serve_capture");
    {
        Client client(cparams);
        Response response;
        for (int i = 0; i < 3; ++i) {
            ASSERT_TRUE(client
                            .mapReads("", slice(0, 2),
                                      resilience::WorkBudget{}, response)
                            .ok());
        }
    }
    daemon->stop();

    std::vector<uint8_t> req_bytes =
        io::readFileBytes(cparams.capturePrefix + ".mgreq");
    std::vector<std::vector<uint8_t>> frames =
        parseFrameStream(req_bytes, "serve_capture.mgreq");
    ASSERT_EQ(frames.size(), 3u);
    uint64_t prev = 0;
    for (const std::vector<uint8_t>& payload : frames) {
        Request request;
        ASSERT_TRUE(decodeRequest(payload, request).ok());
        EXPECT_GT(request.id, prev);
        prev = request.id;
    }
    std::vector<uint8_t> resp_bytes =
        io::readFileBytes(cparams.capturePrefix + ".mgresp");
    EXPECT_EQ(parseFrameStream(resp_bytes, "serve_capture.mgresp").size(),
              3u);
}

} // namespace
} // namespace mg::serve
