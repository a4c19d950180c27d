/**
 * mg::io fd primitives + mg::serve frame codec tests: EINTR and
 * partial-transfer resilience of readFull/writeFull under a storm of
 * real signals, Unix-socket plumbing, frame encode/decode roundtrips,
 * and the rejection paths for torn, truncated, oversized, and
 * checksum-damaged frames.
 */
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstring>
#include <thread>
#include <vector>

#include "io/fd.h"
#include "serve/frame.h"
#include "util/rng.h"
#include "test_tmpdir.h"

namespace mg::serve {
namespace {

// ---------------------------------------------------------- readFull/write

TEST(FdFullTest, PipeRoundtripAcrossManySmallKernelBuffers)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);

    // Well beyond the default pipe buffer, so writeFull must loop.
    std::vector<uint8_t> sent(1 << 20);
    util::Rng rng(7);
    for (uint8_t& byte : sent) {
        byte = static_cast<uint8_t>(rng.next());
    }
    std::thread writer([&] {
        EXPECT_EQ(io::writeFull(fds[1], sent.data(), sent.size()),
                  static_cast<ssize_t>(sent.size()));
        ::close(fds[1]);
    });
    std::vector<uint8_t> got(sent.size());
    EXPECT_EQ(io::readFull(fds[0], got.data(), got.size()),
              static_cast<ssize_t>(got.size()));
    writer.join();
    EXPECT_EQ(got, sent);
    ::close(fds[0]);
}

TEST(FdFullTest, ReadFullReportsEarlyEofWithPartialCount)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const char some[] = "abc";
    ASSERT_EQ(io::writeFull(fds[1], some, 3), 3);
    ::close(fds[1]);

    char buf[16];
    EXPECT_EQ(io::readFull(fds[0], buf, sizeof buf), 3);  // partial
    EXPECT_EQ(io::readFull(fds[0], buf, sizeof buf), 0);  // clean EOF
    ::close(fds[0]);
}

namespace eintr {
std::atomic<uint64_t> signals{0};
void onAlarm(int) { signals.fetch_add(1); }
} // namespace eintr

/**
 * The EINTR gauntlet: a SIGALRM interval timer fires every millisecond
 * (installed *without* SA_RESTART, so raw read/write would fail with
 * EINTR constantly) while a large transfer crosses a socketpair.  The
 * *Full primitives must complete the transfer bit-exact anyway.
 */
TEST(FdFullTest, SurvivesSignalStormWithoutSaRestart)
{
    int pair[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);

    struct sigaction action = {};
    action.sa_handler = eintr::onAlarm;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0; // deliberately no SA_RESTART
    struct sigaction old_action;
    ASSERT_EQ(::sigaction(SIGALRM, &action, &old_action), 0);

    struct itimerval timer = {};
    timer.it_interval.tv_usec = 1000;
    timer.it_value.tv_usec = 1000;
    struct itimerval old_timer;
    ASSERT_EQ(::setitimer(ITIMER_REAL, &timer, &old_timer), 0);

    std::vector<uint8_t> sent(4 << 20);
    util::Rng rng(11);
    for (uint8_t& byte : sent) {
        byte = static_cast<uint8_t>(rng.next());
    }
    std::vector<uint8_t> got(sent.size());
    std::thread reader([&] {
        EXPECT_EQ(io::readFull(pair[1], got.data(), got.size()),
                  static_cast<ssize_t>(got.size()));
    });
    EXPECT_EQ(io::writeFull(pair[0], sent.data(), sent.size()),
              static_cast<ssize_t>(sent.size()));
    reader.join();

    ::setitimer(ITIMER_REAL, &old_timer, nullptr);
    ::sigaction(SIGALRM, &old_action, nullptr);
    EXPECT_EQ(got, sent);
    // The storm must actually have been a storm for the test to mean
    // anything; at 1 kHz over a multi-MB transfer some signals landed.
    EXPECT_GT(eintr::signals.load(), 0u);
    ::close(pair[0]);
    ::close(pair[1]);
}

TEST(FdFullTest, WriteFullToClosedPeerFailsWithoutSignal)
{
    io::ignoreSigpipe();
    int pair[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
    ::close(pair[1]);
    std::vector<uint8_t> bytes(1 << 16, 0xAB);
    // EPIPE as a return value, not a process-killing SIGPIPE.
    EXPECT_EQ(io::writeFull(pair[0], bytes.data(), bytes.size()), -1);
    ::close(pair[0]);
}

TEST(UnixSocketTest, ListenConnectRoundtrip)
{
    const std::string path = test::tempPath("net_test.sock");
    int listener = io::listenUnix(path);
    ASSERT_GE(listener, 0);

    int client = io::connectUnix(path);
    ASSERT_GE(client, 0);
    int server = ::accept(listener, nullptr, nullptr);
    ASSERT_GE(server, 0);

    const char ping[] = "ping";
    EXPECT_EQ(io::writeFull(client, ping, 4), 4);
    char buf[4];
    EXPECT_EQ(io::readFull(server, buf, 4), 4);
    EXPECT_EQ(std::memcmp(buf, ping, 4), 0);

    ::close(client);
    ::close(server);
    ::close(listener);
    ::unlink(path.c_str());
}

// ---------------------------------------------------------------- codec

Request
sampleRequest()
{
    Request request;
    request.id = 42;
    request.tenant = "gold";
    request.deadlineMicros = 250000;
    request.maxExtendSteps = 64;
    request.maxGbwtLookups = 128;
    map::Read read;
    read.name = "r1";
    read.sequence = "ACGTACGTACGT";
    request.reads.push_back(read);
    read.name = "r2";
    read.sequence = "TTTTGGGGCCCC";
    request.reads.push_back(read);
    return request;
}

TEST(FrameCodecTest, RequestRoundtrip)
{
    const Request request = sampleRequest();
    std::vector<uint8_t> payload = encodeRequest(request);

    MessageKind kind;
    ASSERT_TRUE(peekKind(payload, kind).ok());
    EXPECT_EQ(kind, MessageKind::Request);

    Request out;
    util::Status status = decodeRequest(payload, out);
    ASSERT_TRUE(status.ok()) << status.toString();
    EXPECT_EQ(out.id, 42u);
    EXPECT_EQ(out.tenant, "gold");
    EXPECT_EQ(out.deadlineMicros, 250000u);
    EXPECT_EQ(out.maxExtendSteps, 64u);
    EXPECT_EQ(out.maxGbwtLookups, 128u);
    ASSERT_EQ(out.reads.size(), 2u);
    EXPECT_EQ(out.reads[0].name, "r1");
    EXPECT_EQ(out.reads[1].sequence, "TTTTGGGGCCCC");
}

TEST(FrameCodecTest, ResponseRoundtripPerStatus)
{
    Response ok;
    ok.id = 7;
    ok.status = ResponseStatus::Ok;
    ok.gaf = "r1\t12\t0\t12\t+\tdg:Z:deadline\n";
    ok.mappedReads = 1;
    ok.degradedReads = 1;
    Response out;
    ASSERT_TRUE(decodeResponse(encodeResponse(ok), out).ok());
    EXPECT_EQ(out.id, 7u);
    EXPECT_EQ(out.gaf, ok.gaf);
    EXPECT_EQ(out.mappedReads, 1u);
    EXPECT_EQ(out.degradedReads, 1u);

    Response retry;
    retry.id = 8;
    retry.status = ResponseStatus::RetryAfter;
    retry.retryAfterMillis = 75;
    ASSERT_TRUE(decodeResponse(encodeResponse(retry), out).ok());
    EXPECT_EQ(out.status, ResponseStatus::RetryAfter);
    EXPECT_EQ(out.retryAfterMillis, 75u);

    Response error;
    error.id = 9;
    error.status = ResponseStatus::Error;
    error.message = "unknown tenant";
    ASSERT_TRUE(decodeResponse(encodeResponse(error), out).ok());
    EXPECT_EQ(out.status, ResponseStatus::Error);
    EXPECT_EQ(out.message, "unknown tenant");
}

TEST(FrameCodecTest, KindConfusionIsRejected)
{
    Request request;
    ASSERT_FALSE(decodeRequest(encodeResponse(Response{}), request).ok());
    Response response;
    ASSERT_FALSE(decodeResponse(encodeRequest(Request{}), response).ok());
}

TEST(FrameCodecTest, FrameStreamRoundtripAndDamageOffsets)
{
    std::vector<uint8_t> stream;
    for (uint64_t id = 1; id <= 3; ++id) {
        Request request = sampleRequest();
        request.id = id;
        std::vector<uint8_t> frame = frameBytes(encodeRequest(request));
        stream.insert(stream.end(), frame.begin(), frame.end());
    }
    std::vector<std::vector<uint8_t>> payloads =
        parseFrameStream(stream, "cap.mgreq");
    ASSERT_EQ(payloads.size(), 3u);
    Request out;
    ASSERT_TRUE(decodeRequest(payloads[2], out).ok());
    EXPECT_EQ(out.id, 3u);

    // Flip one payload byte: the CRC of that frame must catch it.
    std::vector<uint8_t> damaged = stream;
    damaged[damaged.size() / 2] ^= 0x40;
    EXPECT_THROW(parseFrameStream(damaged, "cap.mgreq"),
                 util::StatusError);

    // Truncate mid-frame: structured truncation error, not a crash.
    std::vector<uint8_t> torn(stream.begin(),
                              stream.begin() + stream.size() - 5);
    EXPECT_THROW(parseFrameStream(torn, "cap.mgreq"), util::StatusError);
}

/** Frame-level socket roundtrip through writeFrame/readFrame. */
TEST(FrameIoTest, SocketRoundtrip)
{
    int pair[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);

    const Request request = sampleRequest();
    ASSERT_TRUE(writeFrame(pair[0], encodeRequest(request)).ok());
    std::vector<uint8_t> payload;
    ASSERT_TRUE(readFrame(pair[1], payload).ok());
    Request out;
    ASSERT_TRUE(decodeRequest(payload, out).ok());
    EXPECT_EQ(out.id, request.id);

    // Clean close between frames is the clean-EOF marker, nothing else.
    ::close(pair[0]);
    util::Status status = readFrame(pair[1], payload);
    EXPECT_FALSE(status.ok());
    EXPECT_TRUE(isCleanEof(status));
    ::close(pair[1]);
}

TEST(FrameIoTest, DamagedMagicAndOversizedLengthAreCorrupt)
{
    int pair[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);

    // Wrong magic.
    const uint8_t junk[] = { 'X', 'F', 0x01, 0x00, 0x00, 0x00, 0x00 };
    ASSERT_EQ(io::writeFull(pair[0], junk, sizeof junk),
              static_cast<ssize_t>(sizeof junk));
    std::vector<uint8_t> payload;
    util::Status status = readFrame(pair[1], payload);
    EXPECT_FALSE(status.ok());
    EXPECT_FALSE(isCleanEof(status));

    // A hostile varint length over kMaxFramePayload must be rejected
    // before any allocation happens.
    const uint8_t huge[] = { 'M', 'F', 0xFF, 0xFF, 0xFF, 0xFF,
                             0xFF, 0xFF, 0xFF, 0xFF, 0x7F };
    ASSERT_EQ(io::writeFull(pair[0], huge, sizeof huge),
              static_cast<ssize_t>(sizeof huge));
    status = readFrame(pair[1], payload);
    EXPECT_FALSE(status.ok());

    ::close(pair[0]);
    ::close(pair[1]);
}

TEST(FrameIoTest, CrcMismatchOnTheWireIsDetected)
{
    int pair[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
    std::vector<uint8_t> frame = frameBytes(encodeRequest(sampleRequest()));
    frame[frame.size() - 6] ^= 0x01; // payload byte, CRC left stale
    ASSERT_EQ(io::writeFull(pair[0], frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
    std::vector<uint8_t> payload;
    util::Status status = readFrame(pair[1], payload);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code, util::StatusCode::ChecksumMismatch);
    ::close(pair[0]);
    ::close(pair[1]);
}

// --------------------------------------------------------------- budget

TEST(RequestBudgetTest, CeilingClampsEveryField)
{
    Request request;
    request.deadlineMicros = 10'000'000; // wants 10 s
    request.maxExtendSteps = 0;          // wants unlimited
    request.maxGbwtLookups = 1000;

    resilience::WorkBudget ceiling;
    ceiling.wallSeconds = 0.5;
    ceiling.maxExtendSteps = 64;
    ceiling.maxGbwtLookups = 0; // operator imposes no lookup ceiling

    resilience::WorkBudget budget = requestBudget(request, ceiling);
    EXPECT_DOUBLE_EQ(budget.wallSeconds, 0.5);
    EXPECT_EQ(budget.maxExtendSteps, 64u); // unlimited -> the ceiling
    EXPECT_EQ(budget.maxGbwtLookups, 1000u);

    resilience::WorkBudget open = requestBudget(request, {});
    EXPECT_DOUBLE_EQ(open.wallSeconds, 10.0);
    EXPECT_EQ(open.maxExtendSteps, 0u);
    EXPECT_EQ(open.maxGbwtLookups, 1000u);
}

} // namespace
} // namespace mg::serve
