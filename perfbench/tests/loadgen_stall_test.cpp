// Self-test of the open-loop generator: a server stub that stalls once for
// 300 ms must show the stall in the latency tail.  A generator that waited
// for each reply before sending the next request, or that started its
// clock at send time, would record one slow request and a clean p99
// (coordinated omission); timed from the schedule, every request queued
// behind the stall is late too.
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "harness.h"
#include "io/fd.h"
#include "loadgen.h"
#include "serve/frame.h"

namespace {

constexpr size_t kRequests = 500;
constexpr uint64_t kSpacingNanos = 2'000'000;
constexpr uint64_t kStalledId = 100;
constexpr int kStallMillis = 300;

/** Answers every request Ok, in order, stalling once before one reply. */
void
serveStub(int listen_fd)
{
    const int fd = accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
        return;
    }
    std::vector<uint8_t> payload;
    while (mg::serve::readFrame(fd, payload).ok()) {
        mg::serve::Request request;
        if (!mg::serve::decodeRequest(payload, request).ok()) {
            break;
        }
        if (request.id == kStalledId) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(kStallMillis));
        }
        mg::serve::Response response;
        response.id = request.id;
        if (!mg::serve::writeFrame(fd, mg::serve::encodeResponse(response))
                 .ok()) {
            break;
        }
    }
    close(fd);
}

bool
expect(bool cond, const char* what, double value)
{
    std::printf("%s %s (%.3f)\n", cond ? "ok  " : "FAIL", what, value);
    return cond;
}

} // namespace

int
main()
{
    const std::string socket =
        "loadgen_stall_test." + std::to_string(getpid()) + ".sock";
    const int listen_fd = mg::io::listenUnix(socket);
    std::thread server(serveStub, listen_fd);

    std::vector<perfbench::Arrival> arrivals(kRequests);
    for (size_t i = 0; i < kRequests; ++i) {
        mg::serve::Request request;
        request.id = i + 1;
        request.tenant = "interactive";
        arrivals[i].atNanos = i * kSpacingNanos;
        arrivals[i].frame =
            mg::serve::frameBytes(mg::serve::encodeRequest(request));
    }
    const perfbench::LoadResult result =
        perfbench::runOpenLoop(socket, 1, arrivals, 5.0);
    server.join();
    close(listen_fd);
    unlink(socket.c_str());

    std::vector<double> latency;
    std::vector<double> late;
    size_t ok = 0;
    for (const perfbench::Outcome& o : result.outcomes) {
        ok += o.ok();
        latency.push_back(o.ok() ? o.latencyMs() : 1e9);
        late.push_back(o.lateMs());
    }
    // The stall delays about kStallMillis / 2 ms = 150 requests, so the
    // 99th percentile sits inside the stalled run.
    bool pass = true;
    pass &= expect(ok == kRequests, "every request answered",
                   static_cast<double>(ok));
    pass &= expect(perfbench::quantile(latency, 0.99) > 0.8 * kStallMillis,
                   "p99 shows the stall (ms)",
                   perfbench::quantile(latency, 0.99));
    pass &= expect(perfbench::quantile(latency, 0.25) < 50.0,
                   "p25 stays below the stall (ms)",
                   perfbench::quantile(latency, 0.25));
    pass &= expect(perfbench::quantile(late, 0.9) < 20.0,
                   "sender kept its schedule: p90 lateness (ms)",
                   perfbench::quantile(late, 0.9));
    return pass ? 0 : 1;
}
