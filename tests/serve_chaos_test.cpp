/**
 * Chaos matrix for mgd: torn and truncated frames on the wire, peers
 * that vanish mid-request, injected failures on the accept and enqueue
 * paths, a stalled worker rescued by the watchdog, and SIGKILL during
 * drain.  The invariant under every row: the daemon never crashes, and
 * no admitted request disappears without a response or a logged shed.
 */
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "io/fd.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "sim/pangenome_gen.h"
#include "sim/read_sim.h"
#include "test_tmpdir.h"

namespace mg::serve {
namespace {

class ServeChaosFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fault::disarmAll();
        sim::PangenomeParams pparams;
        pparams.seed = 611;
        pparams.backboneLength = 5000;
        pparams.haplotypes = 4;
        pg_ = sim::generatePangenome(pparams);

        index::MinimizerParams mparams;
        mparams.k = 15;
        mparams.w = 8;
        minimizers_ = index::MinimizerIndex(pg_.graph, mparams);
        distance_ = index::DistanceIndex(pg_.graph);

        sim::ReadSimParams rparams;
        rparams.seed = 612;
        rparams.count = 24;
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

    Request
    sampleRequest(uint64_t id, size_t read_count) const
    {
        Request request;
        request.id = id;
        request.reads = slice(0, read_count);
        return request;
    }

    sim::GeneratedPangenome pg_;
    index::MinimizerIndex minimizers_;
    index::DistanceIndex distance_;
    std::vector<map::Read> reads_;
};

/**
 * A frame whose CRC fails is answered with a structured Error and the
 * connection is dropped — never a crash, never silence.  The damage is
 * hand-crafted (a flipped payload byte) so the test is deterministic.
 */
TEST_F(ServeChaosFixture, CorruptFrameGetsErrorResponseAndDaemonSurvives)
{
    std::unique_ptr<Daemon> daemon = makeDaemon(daemonParams("corrupt"));
    daemon->start();

    std::vector<uint8_t> frame =
        frameBytes(encodeRequest(sampleRequest(1, 4)));
    frame[frame.size() - 6] ^= 0x40; // payload byte: CRC must catch it

    int fd = io::connectUnix(socketPath("corrupt"));
    ASSERT_EQ(io::writeFull(fd, frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));

    std::vector<uint8_t> payload;
    util::Status status = readFrame(fd, payload);
    ASSERT_TRUE(status.ok()) << status.toString();
    Response response;
    ASSERT_TRUE(decodeResponse(payload, response).ok());
    EXPECT_EQ(response.status, ResponseStatus::Error);
    EXPECT_FALSE(response.message.empty());
    // The stream is desynchronized after damage: the daemon drops it.
    EXPECT_FALSE(readFrame(fd, payload).ok());
    ::close(fd);

    // The daemon is still fully serviceable for the next client.
    Client client(clientParams("corrupt"));
    Response ok;
    ASSERT_TRUE(client
                    .mapReads("", slice(0, 4), resilience::WorkBudget{},
                              ok)
                    .ok());
    EXPECT_EQ(ok.status, ResponseStatus::Ok);

    daemon->stop();
    EXPECT_GE(daemon->report().badFrames, 1u);
    EXPECT_EQ(daemon->report().completed, 1u);
}

/**
 * A torn frame — the peer dies mid-frame — is indistinguishable from
 * truncation.  The daemon counts it and keeps serving.
 */
TEST_F(ServeChaosFixture, TruncatedFrameThenDisconnectIsCountedNotLeaked)
{
    std::unique_ptr<Daemon> daemon = makeDaemon(daemonParams("torn"));
    daemon->start();

    std::vector<uint8_t> frame =
        frameBytes(encodeRequest(sampleRequest(1, 4)));
    int fd = io::connectUnix(socketPath("torn"));
    size_t half = frame.size() / 2;
    ASSERT_EQ(io::writeFull(fd, frame.data(), half),
              static_cast<ssize_t>(half));
    ::close(fd); // tear the frame

    Client client(clientParams("torn"));
    Response ok;
    ASSERT_TRUE(client
                    .mapReads("", slice(0, 4), resilience::WorkBudget{},
                              ok)
                    .ok());
    EXPECT_EQ(ok.status, ResponseStatus::Ok);

    daemon->stop();
    EXPECT_GE(daemon->report().badFrames, 1u);
    EXPECT_EQ(daemon->report().accepted, 1u);
    EXPECT_EQ(daemon->report().completed, 1u);
}

/**
 * The client vanishes after sending a valid request.  The work is done,
 * the response has nowhere to go — the daemon logs and counts the lost
 * response (errors), never leaking the request from the accounting.
 */
TEST_F(ServeChaosFixture, DisconnectMidRequestCountsTheLostResponse)
{
    std::unique_ptr<Daemon> daemon = makeDaemon(daemonParams("vanish"));
    daemon->start();

    std::vector<uint8_t> payload = encodeRequest(sampleRequest(7, 8));
    int fd = io::connectUnix(socketPath("vanish"));
    ASSERT_TRUE(writeFrame(fd, payload).ok());
    ::close(fd); // gone before the answer

    // A follow-up client proves the daemon shrugged it off.
    Client client(clientParams("vanish"));
    Response ok;
    ASSERT_TRUE(client
                    .mapReads("", slice(0, 4), resilience::WorkBudget{},
                              ok)
                    .ok());
    EXPECT_EQ(ok.status, ResponseStatus::Ok);

    // stop() drains the queue, so the vanished peer's job has been
    // processed (and its lost response counted) by the time we look.
    daemon->stop();
    DaemonReport report = daemon->report();
    EXPECT_EQ(report.accepted, 2u);
    EXPECT_EQ(report.completed, 1u);
    EXPECT_GE(report.errors, 1u);
}

/**
 * Injected torn write on the wire (fault site serve.write): the client's
 * first frame goes out deterministically mangled; the daemon's CRC
 * catches it, answers Error, and the client recovers on a clean retry.
 */
TEST_F(ServeChaosFixture, InjectedTornWriteIsCaughtByCrc)
{
    std::unique_ptr<Daemon> daemon = makeDaemon(daemonParams("tornwrite"));
    daemon->start();

    // The site is process-global; the client's request write is the
    // first writeFrame in this process, so limit=1 pins the fault to it.
    fault::Spec spec;
    spec.kind = fault::Kind::Corrupt;
    spec.limit = 1;
    fault::arm("serve.write", spec);

    Client client(clientParams("tornwrite"));
    Response response;
    util::Status status = client.mapReads(
        "", slice(0, 4), resilience::WorkBudget{}, response);
    ASSERT_TRUE(status.ok()) << status.toString();
    if (response.status != ResponseStatus::Ok) {
        // The mangled frame earned a structured Error; a clean retry
        // must succeed.
        EXPECT_EQ(response.status, ResponseStatus::Error);
        ASSERT_TRUE(client
                        .mapReads("", slice(0, 4),
                                  resilience::WorkBudget{}, response)
                        .ok());
        EXPECT_EQ(response.status, ResponseStatus::Ok);
    }

    daemon->stop();
    EXPECT_GE(daemon->report().badFrames, 1u);
}

/**
 * Fault on the accept path: the daemon skips the poll wakeup, counts it,
 * and accepts the (still pending) connection on the next loop — the
 * client never notices beyond a few hundred milliseconds of latency.
 */
TEST_F(ServeChaosFixture, AcceptFaultDelaysButNeverDropsTheDaemon)
{
    std::unique_ptr<Daemon> daemon = makeDaemon(daemonParams("accept"));
    daemon->start();

    fault::Spec spec;
    spec.kind = fault::Kind::Throw;
    spec.limit = 1;
    fault::arm("serve.accept", spec);

    Client client(clientParams("accept"));
    Response response;
    ASSERT_TRUE(client
                    .mapReads("", slice(0, 4), resilience::WorkBudget{},
                              response)
                    .ok());
    EXPECT_EQ(response.status, ResponseStatus::Ok);

    daemon->stop();
    EXPECT_GE(daemon->report().badFrames, 1u);
    EXPECT_EQ(daemon->report().completed, 1u);
    EXPECT_EQ(fault::stats("serve.accept").fires, 1u);
}

/**
 * Fault on the enqueue step: handleRequest throws after admission
 * control picked the tenant.  The reader loop converts it into a
 * structured Error on the same connection and keeps serving it.
 */
TEST_F(ServeChaosFixture, EnqueueFaultYieldsStructuredErrorAndRecovers)
{
    std::unique_ptr<Daemon> daemon = makeDaemon(daemonParams("enq"));
    daemon->start();

    fault::Spec spec;
    spec.kind = fault::Kind::Throw;
    spec.limit = 1;
    fault::arm("serve.enqueue", spec);

    Client client(clientParams("enq"));
    Response response;
    util::Status status = client.mapReads(
        "", slice(0, 4), resilience::WorkBudget{}, response);
    ASSERT_TRUE(status.ok()) << status.toString();
    EXPECT_EQ(response.status, ResponseStatus::Error);

    // Same client, same connection: the next request maps fine.
    ASSERT_TRUE(client
                    .mapReads("", slice(0, 4), resilience::WorkBudget{},
                              response)
                    .ok());
    EXPECT_EQ(response.status, ResponseStatus::Ok);
    EXPECT_EQ(client.stats().reconnects, 0u);

    daemon->stop();
    EXPECT_EQ(daemon->report().completed, 1u);
}

/**
 * A worker wedges mid-read (injected stall far beyond the heartbeat
 * threshold).  The watchdog cancels the batch token; the remaining reads
 * degrade; the request is still *answered* (Ok, degraded) and the daemon
 * keeps running.
 */
TEST_F(ServeChaosFixture, StalledWorkerIsCancelledByWatchdogAndAnswered)
{
    DaemonParams dparams = daemonParams("stall");
    dparams.workers = 1;
    dparams.watchdogParams.stallSeconds = 0.05;
    dparams.watchdogParams.pollMillis = 10.0;
    std::unique_ptr<Daemon> daemon = makeDaemon(dparams);
    daemon->start();

    fault::Spec spec;
    spec.kind = fault::Kind::Stall;
    spec.stallMillis = 400; // >> stallSeconds: the watchdog must fire
    spec.limit = 1;
    fault::arm("map.read", spec);

    Client client(clientParams("stall"));
    Response response;
    ASSERT_TRUE(client
                    .mapReads("", slice(0, 8), resilience::WorkBudget{},
                              response)
                    .ok());
    EXPECT_EQ(response.status, ResponseStatus::Ok);
    EXPECT_GT(response.degradedReads, 0u);
    EXPECT_NE(response.gaf.find("dg:Z:"), std::string::npos);

    // The daemon is healthy afterwards: a clean request fully maps.
    fault::disarmAll();
    ASSERT_TRUE(client
                    .mapReads("", slice(0, 8), resilience::WorkBudget{},
                              response)
                    .ok());
    EXPECT_EQ(response.status, ResponseStatus::Ok);
    EXPECT_EQ(response.degradedReads, 0u);

    daemon->stop();
    EXPECT_GE(daemon->report().watchdogCancels, 1u);
    EXPECT_EQ(daemon->report().completed, 2u);
}

/**
 * SIGKILL during drain: the hardest exit leaves nothing behind that
 * prevents a fresh daemon from binding the same socket path and serving.
 */
TEST_F(ServeChaosFixture, SigkillDuringDrainLeavesRestartableSocket)
{
    const std::string path = socketPath("kill9");
    int ready[2];
    ASSERT_EQ(::pipe(ready), 0);

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::close(ready[0]);
        {
            DaemonParams dparams = daemonParams("kill9");
            std::unique_ptr<Daemon> child_daemon =
                makeDaemon(std::move(dparams));
            child_daemon->start();
            child_daemon->requestDrain();
            char byte = 'r';
            if (::write(ready[1], &byte, 1) != 1) {
                _exit(4);
            }
            ::sleep(30); // parent SIGKILLs us mid-drain
        }
        _exit(5); // the backstop tripped: the kill never arrived
    }
    ::close(ready[1]);
    char byte = 0;
    ASSERT_EQ(::read(ready[0], &byte, 1), 1);
    ::close(ready[0]);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wstatus));
    EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);

    // The stale socket file is still on disk; a fresh daemon must
    // reclaim the path and serve.
    std::unique_ptr<Daemon> daemon = makeDaemon(daemonParams("kill9"));
    daemon->start();
    Client client(clientParams("kill9"));
    Response response;
    ASSERT_TRUE(client
                    .mapReads("", slice(0, 4), resilience::WorkBudget{},
                              response)
                    .ok());
    EXPECT_EQ(response.status, ResponseStatus::Ok);
    daemon->stop();
    EXPECT_TRUE(daemon->report().drainClean);
}

} // namespace
} // namespace mg::serve
