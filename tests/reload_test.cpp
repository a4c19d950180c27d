/**
 * Chaos matrix for the zero-downtime hot swap (serve::IndexManager +
 * the mgd RELOAD path).  The invariants under every row:
 *
 *  - no admitted request is ever dropped or answered from a
 *    half-published generation;
 *  - a replacement that fails validation is rejected with the old
 *    generation still serving (validated rollback) — including 400
 *    randomly damaged images, every one of which must roll back;
 *  - once the last pinned request of a retired generation completes,
 *    its arenas are provably unmapped (the weak_ptr proof);
 *  - a crash mid-swap (SIGKILL via the fault layer) leaves both the
 *    old and the replacement containers intact on disk, and a daemon
 *    in another process keeps serving.
 */
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "giraffe/session.h"
#include "index/distance.h"
#include "index/minimizer.h"
#include "io/file.h"
#include "io/mgz.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/frame.h"
#include "serve/index_manager.h"
#include "sim/pangenome_gen.h"
#include "sim/read_sim.h"
#include "test_tmpdir.h"

namespace mg::serve {
namespace {

using test::tempPath;

class ReloadFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fault::disarmAll();
        sim::PangenomeParams pparams;
        pparams.seed = 911;
        pparams.backboneLength = 5000;
        pparams.haplotypes = 4;
        pg_ = sim::generatePangenome(pparams);

        index::MinimizerParams mparams;
        mparams.k = 15;
        mparams.w = 8;
        minimizers_ = index::MinimizerIndex(pg_.graph, mparams);
        distance_ = index::DistanceIndex(pg_.graph);

        sim::ReadSimParams rparams;
        rparams.seed = 912;
        rparams.count = 24;
        rparams.readLength = 100;
        rparams.errorRate = 0.005;
        reads_ = sim::simulateReads(pg_, rparams).reads;

        v3Path_ = tempPath("reload_base.mgz3");
        io::saveMgz3(v3Path_, pg_.graph, pg_.gbwt, minimizers_,
                     distance_);
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
        params.queueCapacity = 16;
        params.retryBaseMillis = 2;
        return params;
    }

    /** Daemon serving the v3 container as an *owned* first generation
     *  (the hot-swappable configuration mgd uses for file loads). */
    std::unique_ptr<Daemon>
    makeDaemon(DaemonParams params) const
    {
        io::IndexedPangenome loaded = io::loadPangenome(v3Path_);
        return std::make_unique<Daemon>(std::move(loaded), v3Path_,
                                        std::move(params));
    }

    ClientParams
    clientParams(const std::string& name) const
    {
        ClientParams params;
        params.socketPath = socketPath(name);
        params.backoffBaseMillis = 1;
        params.backoffCapMillis = 40;
        params.maxAttempts = 32;
        return params;
    }

    /** A byte-identical replacement container at its own path. */
    std::string
    replacementPath(const std::string& name) const
    {
        std::string path = tempPath("reload_" + name + ".mgz3");
        io::writeFileBytes(path, io::readFileBytes(v3Path_));
        return path;
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
    std::string v3Path_;
};

// --------------------------------------------------------------------
// Wire protocol for the new statuses and the RELOAD control frame.

TEST_F(ReloadFixture, FrameRoundTripsReloadStatusesAndControl)
{
    for (ResponseStatus status :
         { ResponseStatus::ReloadOk, ResponseStatus::ReloadRejected,
           ResponseStatus::DeadlineShed }) {
        Response in;
        in.id = 77;
        in.status = status;
        in.generation = 12345;
        if (status == ResponseStatus::DeadlineShed) {
            in.retryAfterMillis = 9;
        } else {
            in.message = "because";
        }
        Response out;
        ASSERT_TRUE(decodeResponse(encodeResponse(in), out).ok());
        EXPECT_EQ(out.id, in.id);
        EXPECT_EQ(out.status, in.status);
        EXPECT_EQ(out.generation, 12345u);
        EXPECT_EQ(out.message, in.message);
        EXPECT_EQ(out.retryAfterMillis, in.retryAfterMillis);
    }

    ControlRequest control;
    control.id = 9;
    control.path = "/some/graph.mgz3";
    std::vector<uint8_t> payload = encodeControl(control);
    MessageKind kind = MessageKind::Request;
    ASSERT_TRUE(peekKind(payload, kind).ok());
    EXPECT_EQ(kind, MessageKind::Control);
    ControlRequest decoded;
    ASSERT_TRUE(decodeControl(payload, decoded).ok());
    EXPECT_EQ(decoded.id, 9u);
    EXPECT_EQ(decoded.op, ControlOp::Reload);
    EXPECT_EQ(decoded.path, control.path);

    // Total decoder: trailing garbage is a structured rejection.
    payload.push_back(0xEE);
    EXPECT_FALSE(decodeControl(payload, decoded).ok());
}

// --------------------------------------------------------------------
// The happy path: swap under a live daemon, generation tags, golden GAF.

TEST_F(ReloadFixture, SwapPublishesNewGenerationWithIdenticalGaf)
{
    std::unique_ptr<Daemon> daemon = makeDaemon(daemonParams("swap"));
    daemon->start();

    Client client(clientParams("swap"));
    Response before;
    ASSERT_TRUE(client
                    .mapReads("", slice(0, 16), resilience::WorkBudget{},
                              before)
                    .ok());
    ASSERT_EQ(before.status, ResponseStatus::Ok);
    EXPECT_EQ(before.generation, 1u);

    // Ground truth: the same reads through a MapSession directly.
    giraffe::MapSession session(pg_.graph, pg_.gbwt, minimizers_,
                                distance_, giraffe::SessionParams{});
    giraffe::SessionResult direct =
        session.map(0, slice(0, 16), resilience::WorkBudget{});
    EXPECT_EQ(before.gaf, direct.gaf);

    Response verdict;
    ASSERT_TRUE(client.reload(replacementPath("swap"), verdict).ok());
    ASSERT_EQ(verdict.status, ResponseStatus::ReloadOk) << verdict.message;
    EXPECT_EQ(verdict.generation, 2u);

    Response after;
    ASSERT_TRUE(client
                    .mapReads("", slice(0, 16), resilience::WorkBudget{},
                              after)
                    .ok());
    ASSERT_EQ(after.status, ResponseStatus::Ok);
    EXPECT_EQ(after.generation, 2u);
    // Byte-identical replacement => byte-identical GAF across the swap.
    EXPECT_EQ(after.gaf, before.gaf);

    daemon->stop();
    const DaemonReport& report = daemon->report();
    EXPECT_EQ(report.reloads, 1u);
    EXPECT_EQ(report.reloadsRejected, 0u);
    EXPECT_EQ(report.finalGeneration, 2u);
    EXPECT_EQ(report.generationsRetired, 1u);
    EXPECT_EQ(client.stats().reloadsOk, 1u);
}

TEST_F(ReloadFixture, GafGenerationCommentTagsEachResponse)
{
    DaemonParams dparams = daemonParams("gencomment");
    dparams.gafGenerationComment = true;
    std::unique_ptr<Daemon> daemon = makeDaemon(dparams);
    daemon->start();

    Client client(clientParams("gencomment"));
    Response response;
    ASSERT_TRUE(client
                    .mapReads("", slice(0, 8), resilience::WorkBudget{},
                              response)
                    .ok());
    ASSERT_EQ(response.status, ResponseStatus::Ok);
    EXPECT_EQ(response.gaf.rfind("# mg:gen=1 ", 0), 0u) << response.gaf;

    Response verdict;
    ASSERT_TRUE(client.reload(replacementPath("gencomment"), verdict).ok());
    ASSERT_EQ(verdict.status, ResponseStatus::ReloadOk) << verdict.message;

    ASSERT_TRUE(client
                    .mapReads("", slice(0, 8), resilience::WorkBudget{},
                              response)
                    .ok());
    ASSERT_EQ(response.status, ResponseStatus::Ok);
    EXPECT_EQ(response.gaf.rfind("# mg:gen=2 ", 0), 0u) << response.gaf;

    daemon->stop();
}

// --------------------------------------------------------------------
// Validated rollback.

TEST_F(ReloadFixture, CorruptReplacementIsRejectedAndOldIndexServes)
{
    std::unique_ptr<Daemon> daemon = makeDaemon(daemonParams("corrupt"));
    daemon->start();

    // Damage one payload byte inside a section: the deep CRC sweep in
    // the load step must catch it before any serving state changes.
    std::string bad = replacementPath("corrupt");
    std::vector<uint8_t> bytes = io::readFileBytes(bad);
    io::MgzInfo info = io::inspectMgz3(bytes.data(), bytes.size(), bad);
    const io::MgzSectionInfo* victim = nullptr;
    for (const io::MgzSectionInfo& section : info.sections) {
        if (section.size > 0) {
            victim = &section;
        }
    }
    ASSERT_NE(victim, nullptr);
    bytes[victim->offset + victim->size / 2] ^= 0x40;
    io::writeFileBytes(bad, bytes);

    Client client(clientParams("corrupt"));
    Response verdict;
    ASSERT_TRUE(client.reload(bad, verdict).ok());
    EXPECT_EQ(verdict.status, ResponseStatus::ReloadRejected);
    EXPECT_FALSE(verdict.message.empty());
    EXPECT_EQ(verdict.generation, 1u); // the old one still serving

    Response response;
    ASSERT_TRUE(client
                    .mapReads("", slice(0, 8), resilience::WorkBudget{},
                              response)
                    .ok());
    EXPECT_EQ(response.status, ResponseStatus::Ok);
    EXPECT_EQ(response.generation, 1u);

    daemon->stop();
    EXPECT_EQ(daemon->report().reloads, 0u);
    EXPECT_EQ(daemon->report().reloadsRejected, 1u);
    EXPECT_EQ(daemon->report().finalGeneration, 1u);
    EXPECT_EQ(client.stats().reloadsRejected, 1u);
}

/**
 * 400 damaged replacement images, every flip restricted to bytes the
 * format actually covers (the header page and section payloads — the
 * CRCs do not cover inter-section padding, so a padding flip would load
 * clean and publish, which is correct but not what this test measures).
 * Every single attempt must roll back: generation stays 1, pin() stays
 * serviceable, and the manager afterwards still swaps a clean image.
 */
TEST_F(ReloadFixture, DamagedReplacementFuzz400AlwaysRollsBack)
{
    io::IndexedPangenome loaded = io::loadPangenome(v3Path_);
    IndexManager manager(std::move(loaded), giraffe::SessionParams{},
                         v3Path_);

    const std::vector<uint8_t> clean = io::readFileBytes(v3Path_);
    io::MgzInfo info =
        io::inspectMgz3(clean.data(), clean.size(), v3Path_);

    // Damageable byte ranges: the header page + every section payload.
    std::vector<std::pair<uint64_t, uint64_t>> ranges;
    ranges.emplace_back(0, 64);
    for (const io::MgzSectionInfo& section : info.sections) {
        if (section.size > 0) {
            ranges.emplace_back(section.offset,
                                section.offset + section.size);
        }
    }

    std::mt19937_64 rng(0xBADC0DEull);
    std::uniform_int_distribution<size_t> pick_range(0, ranges.size() - 1);
    std::uniform_int_distribution<int> pick_bit(0, 7);
    const std::string path = tempPath("reload_fuzz.mgz3");

    for (int round = 0; round < 400; ++round) {
        std::vector<uint8_t> damaged = clean;
        if (round % 8 == 7) {
            // Truncate into a covered range (always detectable).
            const auto& [begin, end] = ranges[pick_range(rng)];
            std::uniform_int_distribution<uint64_t> pick(begin, end - 1);
            damaged.resize(pick(rng));
        } else {
            const int flips = 1 + round % 3;
            for (int i = 0; i < flips; ++i) {
                const auto& [begin, end] = ranges[pick_range(rng)];
                std::uniform_int_distribution<uint64_t> pick(begin,
                                                             end - 1);
                damaged[pick(rng)] ^=
                    static_cast<uint8_t>(1u << pick_bit(rng));
            }
        }
        io::writeFileBytes(path, damaged);
        SwapOutcome outcome = manager.swap(path);
        EXPECT_FALSE(outcome.accepted)
            << "round " << round << " published damaged image";
        EXPECT_FALSE(outcome.reason.empty());
        EXPECT_EQ(manager.generation(), 1u);
        ASSERT_NE(manager.pin(), nullptr);
    }
    EXPECT_EQ(manager.retiredTotal(), 0u);

    // Rollback left the manager fully functional: a clean image swaps.
    io::writeFileBytes(path, clean);
    SwapOutcome outcome = manager.swap(path);
    EXPECT_TRUE(outcome.accepted) << outcome.reason;
    EXPECT_EQ(manager.generation(), 2u);
}

// --------------------------------------------------------------------
// Swap under sustained load: nothing dropped, arenas provably unmapped.

TEST_F(ReloadFixture, SwapUnderSustainedLoadDropsNothingAndUnmapsOld)
{
    std::unique_ptr<Daemon> daemon = makeDaemon(daemonParams("load"));
    daemon->start();

    constexpr size_t kClients = 3;
    constexpr int kCallsPerClient = 30;
    std::atomic<uint64_t> failures{0};
    std::vector<std::string> gafByGeneration[kClients];
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            Client client(clientParams("load"));
            for (int i = 0; i < kCallsPerClient; ++i) {
                Response response;
                util::Status status =
                    client.mapReads("", slice(0, 8),
                                    resilience::WorkBudget{}, response);
                if (!status.ok() ||
                    response.status != ResponseStatus::Ok) {
                    ++failures;
                    continue;
                }
                // Per-generation GAF: every generation serves the same
                // container bytes, so all GAF must be byte-identical.
                if (response.generation >=
                    gafByGeneration[c].size() + 1) {
                    gafByGeneration[c].resize(response.generation);
                }
                std::string& seen =
                    gafByGeneration[c][response.generation - 1];
                if (seen.empty()) {
                    seen = response.gaf;
                } else if (seen != response.gaf) {
                    ++failures;
                }
            }
        });
    }

    // Swap repeatedly while the load runs.
    const std::string replacement = replacementPath("load");
    size_t published = 0;
    for (int s = 0; s < 4; ++s) {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        SwapOutcome outcome = daemon->reloadIndex(replacement);
        ASSERT_TRUE(outcome.accepted) << outcome.reason;
        ++published;
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(failures.load(), 0u);

    // Cross-generation golden equality (threads only checked within
    // themselves; generations must also agree with each other).
    std::string golden;
    for (size_t c = 0; c < kClients; ++c) {
        for (const std::string& gaf : gafByGeneration[c]) {
            if (gaf.empty()) {
                continue; // this thread never hit that generation
            }
            if (golden.empty()) {
                golden = gaf;
            }
            EXPECT_EQ(gaf, golden);
        }
    }
    EXPECT_FALSE(golden.empty());

    // The unmap proof: with no request in flight, every retired
    // generation's weak_ptrs must expire — including the MappedFile
    // keepalives, whose expiry means munmap already ran.
    IndexManager& manager = daemon->indexManager();
    EXPECT_EQ(manager.retiredTotal(), published);
    for (int wait = 0; manager.retiredAlive() != 0 && wait < 100; ++wait) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(manager.retiredAlive(), 0u);
    EXPECT_EQ(manager.retiredMappingsAlive(), 0u);

    daemon->stop();
    const DaemonReport& report = daemon->report();
    EXPECT_EQ(report.reloads, published);
    EXPECT_EQ(report.generationsRetired, published);
    EXPECT_EQ(report.finalGeneration, published + 1);
}

TEST_F(ReloadFixture, RapidRepeatedSwapsStayCoherent)
{
    std::unique_ptr<Daemon> daemon = makeDaemon(daemonParams("rapid"));
    daemon->start();

    const std::string replacement = replacementPath("rapid");
    Client client(clientParams("rapid"));
    for (uint64_t s = 1; s <= 6; ++s) {
        SwapOutcome outcome = daemon->reloadIndex(replacement);
        ASSERT_TRUE(outcome.accepted) << outcome.reason;
        EXPECT_EQ(outcome.generation, s + 1);

        Response response;
        ASSERT_TRUE(client
                        .mapReads("", slice(0, 4),
                                  resilience::WorkBudget{}, response)
                        .ok());
        ASSERT_EQ(response.status, ResponseStatus::Ok);
        EXPECT_EQ(response.generation, s + 1);
    }
    EXPECT_EQ(daemon->indexManager().retiredTotal(), 6u);
    daemon->stop();
    EXPECT_EQ(daemon->report().finalGeneration, 7u);
}

// --------------------------------------------------------------------
// The publish window: late admissions see RETRY_AFTER, never a
// half-published handle.

TEST_F(ReloadFixture, StalledPublishYieldsRetryAfterNeverHalfPublished)
{
    std::unique_ptr<Daemon> daemon = makeDaemon(daemonParams("publish"));
    daemon->start();

    fault::Spec spec;
    spec.kind = fault::Kind::Stall;
    spec.stallMillis = 250;
    spec.limit = 1;
    fault::arm("serve.swap.publish", spec);

    std::atomic<bool> swapped{false};
    std::thread swapper([&] {
        SwapOutcome outcome =
            daemon->reloadIndex(replacementPath("publish"));
        EXPECT_TRUE(outcome.accepted) << outcome.reason;
        swapped.store(true);
    });

    // Hammer the admission path with unretried calls while the publish
    // window is held open.  Every response must be a *complete* verdict:
    // Ok from generation 1 or 2 with non-empty GAF, or RETRY_AFTER with
    // a hint.  Anything else is a half-published observation.  Calls go
    // on until one is issued after the swap returned, so they span the
    // whole window however the swap's start races the first call.
    Client client(clientParams("publish"));
    size_t retry_after = 0;
    size_t ok = 0;
    bool after_swap = false;
    for (int i = 0; i < 400 || !after_swap; ++i) {
        after_swap = swapped.load();
        Request request;
        request.id = client.nextId();
        request.reads = slice(0, 2);
        Response response;
        util::Status status = client.call(request, response);
        ASSERT_TRUE(status.ok()) << status.toString();
        if (response.status == ResponseStatus::Ok) {
            ++ok;
            EXPECT_TRUE(response.generation == 1 ||
                        response.generation == 2)
                << response.generation;
            EXPECT_FALSE(response.gaf.empty());
        } else {
            ASSERT_EQ(response.status, ResponseStatus::RetryAfter);
            ++retry_after;
            EXPECT_GT(response.retryAfterMillis, 0u);
            EXPECT_EQ(response.generation, 1u); // old one still serving
        }
    }
    swapper.join();
    EXPECT_GT(ok, 0u);
    // The 250 ms window must have refused at least one admission.
    EXPECT_GT(retry_after, 0u);

    // After the window closes, service resumes on the new generation.
    Response response;
    ASSERT_TRUE(client
                    .mapReads("", slice(0, 4), resilience::WorkBudget{},
                              response)
                    .ok());
    EXPECT_EQ(response.status, ResponseStatus::Ok);
    EXPECT_EQ(response.generation, 2u);
    daemon->stop();
}

// --------------------------------------------------------------------
// Swap racing graceful drain.

TEST_F(ReloadFixture, ReloadDuringDrainIsRejected)
{
    std::unique_ptr<Daemon> daemon = makeDaemon(daemonParams("drainrej"));
    daemon->start();
    daemon->requestDrain();

    SwapOutcome outcome =
        daemon->reloadIndex(replacementPath("drainrej"));
    EXPECT_FALSE(outcome.accepted);
    EXPECT_NE(outcome.reason.find("not running"), std::string::npos)
        << outcome.reason;
    EXPECT_EQ(outcome.generation, 1u);

    daemon->stop();
    EXPECT_EQ(daemon->report().reloadsRejected, 1u);
    EXPECT_EQ(daemon->report().finalGeneration, 1u);
}

TEST_F(ReloadFixture, SwapRacingDrainNeverHangsOrCrashes)
{
    std::unique_ptr<Daemon> daemon = makeDaemon(daemonParams("drainrace"));
    daemon->start();

    // Hold the swap inside its load step while the drain runs past it.
    fault::Spec spec;
    spec.kind = fault::Kind::Stall;
    spec.stallMillis = 150;
    spec.limit = 1;
    fault::arm("serve.swap.load", spec);

    SwapOutcome outcome;
    std::thread swapper([&] {
        outcome = daemon->reloadIndex(replacementPath("drainrace"));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    daemon->requestDrain();
    swapper.join();
    daemon->stop();

    // Either side may win the race; both must leave a coherent daemon.
    if (outcome.accepted) {
        EXPECT_EQ(daemon->report().finalGeneration, 2u);
    } else {
        EXPECT_EQ(daemon->report().finalGeneration, 1u);
        EXPECT_FALSE(outcome.reason.empty());
    }
    EXPECT_EQ(daemon->state(), DaemonState::Stopped);
}

// --------------------------------------------------------------------
// Crash mid-swap (fault-layer SIGKILL in a forked child): both
// containers stay intact on disk and the parent keeps serving.

TEST_F(ReloadFixture, SigkillMidSwapLeavesContainersIntactAndServing)
{
    const std::string replacement = replacementPath("kill9");

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: crash at the publish boundary — after load+validate,
        // mid-flip.  Kind::Crash raises SIGKILL (no unwinding, no
        // flush), the closest stand-in for power loss.
        fault::Spec spec;
        spec.kind = fault::Kind::Crash;
        spec.limit = 1;
        fault::arm("serve.swap.publish", spec);
        io::IndexedPangenome loaded = io::loadPangenome(v3Path_);
        IndexManager manager(std::move(loaded), giraffe::SessionParams{},
                             v3Path_);
        manager.swap(replacement);
        _exit(7); // unreachable: the fault killed us
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wstatus));
    EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);

    // The swap machinery only ever *reads* the containers: both images
    // must still deep-validate after the crash.
    EXPECT_TRUE(io::validatePangenomeFile(v3Path_, true).ok());
    EXPECT_TRUE(io::validatePangenomeFile(replacement, true).ok());

    // And a daemon (the "old socket" in the deployment story) serves
    // the original container untouched by the child's death.
    std::unique_ptr<Daemon> daemon = makeDaemon(daemonParams("kill9"));
    daemon->start();
    Client client(clientParams("kill9"));
    Response response;
    ASSERT_TRUE(client
                    .mapReads("", slice(0, 4), resilience::WorkBudget{},
                              response)
                    .ok());
    EXPECT_EQ(response.status, ResponseStatus::Ok);
    EXPECT_EQ(response.generation, 1u);
    daemon->stop();
}

// --------------------------------------------------------------------
// SLO-aware shedding: queued requests whose deadline is already
// unmeetable are answered DEADLINE_SHED instead of mapped late.

TEST_F(ReloadFixture, ExpiredQueuedRequestsAreDeadlineShed)
{
    DaemonParams dparams = daemonParams("slo");
    dparams.workers = 1;
    std::unique_ptr<Daemon> daemon = makeDaemon(dparams);
    daemon->start();

    // Wedge the single worker on request A long enough for B and C's
    // 1 ms deadlines to lapse while they sit in the queue.
    fault::Spec spec;
    spec.kind = fault::Kind::Stall;
    spec.stallMillis = 300;
    spec.limit = 1;
    fault::arm("map.read", spec);

    std::thread busy([&] {
        Client client(clientParams("slo"));
        Request request;
        request.id = client.nextId();
        request.reads = slice(0, 8);
        Response response;
        util::Status status = client.call(request, response);
        EXPECT_TRUE(status.ok()) << status.toString();
        EXPECT_EQ(response.status, ResponseStatus::Ok);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    std::atomic<int> shed_count{0};
    std::vector<std::thread> doomed;
    for (int i = 0; i < 2; ++i) {
        doomed.emplace_back([&] {
            Client client(clientParams("slo"));
            Request request;
            request.id = client.nextId();
            request.deadlineMicros = 1000; // 1 ms: cannot be met
            request.reads = slice(0, 4);
            Response response;
            util::Status status = client.call(request, response);
            ASSERT_TRUE(status.ok()) << status.toString();
            EXPECT_EQ(response.status, ResponseStatus::DeadlineShed);
            EXPECT_EQ(response.generation, 1u);
            ++shed_count;
        });
    }
    busy.join();
    for (std::thread& thread : doomed) {
        thread.join();
    }
    EXPECT_EQ(shed_count.load(), 2);

    daemon->stop();
    EXPECT_EQ(daemon->report().deadlineShed, 2u);
    EXPECT_EQ(daemon->report().completed, 1u);
}

// --------------------------------------------------------------------
// Observability continuity: a hot swap must not tear the metric space.

TEST_F(ReloadFixture, MetricsStayContinuousAcrossHotSwap)
{
    DaemonParams dparams = daemonParams("continuity");
    dparams.tenants = parseTenantSpec("gold:weight=3,free");
    dparams.traceSample = 1.0; // feed the stage histograms too
    std::unique_ptr<Daemon> daemon = makeDaemon(dparams);
    daemon->start();

    Client client(clientParams("continuity"));
    auto mapOk = [&](const std::string& tenant) {
        Response response;
        util::Status status = client.mapReads(
            tenant, slice(0, 8), resilience::WorkBudget{}, response);
        ASSERT_TRUE(status.ok()) << status.toString();
        ASSERT_EQ(response.status, ResponseStatus::Ok);
    };
    // The worker accounts a request *after* writing its response, so a
    // snapshot taken the instant the client returns can race the final
    // counter bump; settle on the expected totals first.
    auto settledSnapshot = [&](uint64_t gold_done, uint64_t free_done) {
        for (int spin = 0; spin < 2000; ++spin) {
            obs::Snapshot snap = daemon->hub().registry().snapshot();
            const obs::MetricValue* gold =
                snap.find("mg_serve_completed_total{tenant=\"gold\"}");
            const obs::MetricValue* free_tenant =
                snap.find("mg_serve_completed_total{tenant=\"free\"}");
            const obs::MetricValue* extend =
                snap.find("mg_serve_stage_ns{stage=\"extend\"}");
            if (gold != nullptr && free_tenant != nullptr &&
                extend != nullptr && gold->value >= gold_done &&
                free_tenant->value >= free_done &&
                extend->hist.count() >= gold_done + free_done) {
                return snap;
            }
            usleep(1000);
        }
        ADD_FAILURE() << "counters never settled";
        return daemon->hub().registry().snapshot();
    };

    mapOk("gold");
    mapOk("gold");
    mapOk("free");
    obs::Snapshot before = settledSnapshot(2, 1);

    SwapOutcome outcome =
        daemon->reloadIndex(replacementPath("continuity"));
    ASSERT_TRUE(outcome.accepted) << outcome.reason;
    EXPECT_EQ(outcome.generation, 2u);

    mapOk("gold");
    mapOk("free");
    obs::Snapshot after = settledSnapshot(3, 2);

    // The metric space is identical across the swap: every series that
    // existed before exists after, same kind — no torn or re-registered
    // series — and counters/histograms only ever move forward.
    ASSERT_EQ(before.metrics.size(), after.metrics.size());
    for (const obs::MetricValue& old : before.metrics) {
        const obs::MetricValue* now = after.find(old.name);
        ASSERT_NE(now, nullptr) << "series vanished: " << old.name;
        EXPECT_EQ(now->kind, old.kind) << old.name;
        if (old.kind == obs::MetricKind::Counter) {
            EXPECT_GE(now->value, old.value)
                << "counter went backwards: " << old.name;
        } else if (old.kind == obs::MetricKind::Histogram) {
            EXPECT_GE(now->hist.count(), old.hist.count())
                << "histogram shrank: " << old.name;
            EXPECT_GE(now->hist.sumNanos(), old.hist.sumNanos())
                << old.name;
        }
    }

    // Work after the swap landed in the *same* per-tenant series.
    auto counter = [](const obs::Snapshot& snap, const std::string& name) {
        const obs::MetricValue* m = snap.find(name);
        EXPECT_NE(m, nullptr) << name;
        return m != nullptr ? m->value : 0;
    };
    EXPECT_EQ(counter(before, "mg_serve_completed_total{tenant=\"gold\"}"),
              2u);
    EXPECT_EQ(counter(after, "mg_serve_completed_total{tenant=\"gold\"}"),
              3u);
    EXPECT_EQ(counter(before, "mg_serve_completed_total{tenant=\"free\"}"),
              1u);
    EXPECT_EQ(counter(after, "mg_serve_completed_total{tenant=\"free\"}"),
              2u);

    // The swap itself is accounted, and the generation gauge moved.
    EXPECT_EQ(counter(after, "mg_serve_reloads_total"), 1u);
    EXPECT_EQ(after.find("mg_serve_generation")->value, 2u);
    const obs::MetricValue* reload_latency =
        after.find("mg_serve_reload_latency_ns");
    ASSERT_NE(reload_latency, nullptr);
    EXPECT_EQ(reload_latency->hist.count(), 1u);

    // Stage histograms kept accumulating across the swap (requests were
    // traced on both sides of it).
    const obs::MetricValue* extend_before =
        before.find("mg_serve_stage_ns{stage=\"extend\"}");
    const obs::MetricValue* extend_after =
        after.find("mg_serve_stage_ns{stage=\"extend\"}");
    ASSERT_NE(extend_before, nullptr);
    ASSERT_NE(extend_after, nullptr);
    EXPECT_EQ(extend_before->hist.count(), 3u);
    EXPECT_EQ(extend_after->hist.count(), 5u);

    daemon->stop();
    EXPECT_EQ(daemon->report().completed, 5u);
    EXPECT_EQ(daemon->report().reloads, 1u);
    EXPECT_EQ(daemon->report().tracedRequests, 5u);
}

} // namespace
} // namespace mg::serve
