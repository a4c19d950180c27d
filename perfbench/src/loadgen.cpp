#include "loadgen.h"

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "io/fd.h"
#include "util/timer.h"

namespace perfbench {

namespace {

double
threadCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_THREAD, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           static_cast<double>(usage.ru_utime.tv_usec +
                               usage.ru_stime.tv_usec) *
               1e-6;
}

/** Sleep until `deadline` (steady-clock ns); spin the last stretch, which
 *  a sleep on a loaded host can overshoot. */
void
waitUntil(uint64_t deadline)
{
    constexpr uint64_t kSpinNanos = 100'000;
    for (;;) {
        const uint64_t now = mg::util::nowNanos();
        if (now >= deadline) {
            return;
        }
        if (deadline - now > 2 * kSpinNanos) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(deadline - now - kSpinNanos));
        } else {
            std::this_thread::yield();
        }
    }
}

/**
 * The generator's sockets and their receiver threads.  Shutting a socket
 * down ends its receiver; every receiver is joined before the sockets
 * close, on every exit path.
 */
class Connections
{
  public:
    Connections() = default;
    Connections(const Connections&) = delete;
    Connections& operator=(const Connections&) = delete;
    ~Connections() { finish(); }

    void
    finish()
    {
        for (int fd : fds) {
            shutdown(fd, SHUT_RDWR);
        }
        for (std::thread& t : receivers) {
            if (t.joinable()) {
                t.join();
            }
        }
        for (int fd : fds) {
            close(fd);
        }
        fds.clear();
    }

    std::vector<int> fds;
    std::vector<std::thread> receivers;
};

} // namespace

LoadResult
runOpenLoop(const std::string& socket, size_t connections,
            const std::vector<Arrival>& arrivals, double drainSeconds)
{
    const double sender_cpu0 = threadCpuSeconds();
    LoadResult result;
    result.outcomes.resize(arrivals.size());
    std::atomic<uint64_t> received{0};
    std::atomic<uint64_t> stray{0};
    std::vector<double> receiver_cpu(connections, 0.0);
    // Declared after everything its receivers touch, so it joins them
    // before those go away.
    Connections conns;
    for (size_t c = 0; c < connections; ++c) {
        conns.fds.push_back(mg::io::connectUnix(socket));
    }
    for (size_t c = 0; c < connections; ++c) {
        conns.receivers.emplace_back([&, c, fd = conns.fds[c]] {
            std::vector<uint8_t> payload;
            for (;;) {
                if (!mg::serve::readFrame(fd, payload).ok()) {
                    receiver_cpu[c] = threadCpuSeconds();
                    return;
                }
                const uint64_t now = mg::util::nowNanos();
                mg::serve::Response response;
                if (!mg::serve::decodeResponse(payload, response).ok() ||
                    response.id == 0 || response.id > arrivals.size()) {
                    stray.fetch_add(1);
                    continue;
                }
                Outcome& outcome = result.outcomes[response.id - 1];
                if (outcome.received != 0) {
                    stray.fetch_add(1);
                    continue;
                }
                outcome.received = now;
                outcome.response = std::move(response);
                received.fetch_add(1, std::memory_order_release);
            }
        });
    }

    // The sender: every frame goes out at its scheduled time, whatever the
    // replies are doing.  A blocked write makes later sends late; lateness
    // is recorded and latency still counts from the schedule.
    result.startNanos = mg::util::nowNanos() + 2'000'000;
    uint64_t sent = 0;
    for (size_t i = 0; i < arrivals.size(); ++i) {
        const Arrival& arrival = arrivals[i];
        Outcome& outcome = result.outcomes[i];
        outcome.scheduled = result.startNanos + arrival.atNanos;
        waitUntil(outcome.scheduled);
        const int fd = conns.fds[arrival.connection];
        if (mg::io::writeFull(fd, arrival.frame.data(),
                              arrival.frame.size()) < 0) {
            ++result.sendErrors;
            continue;
        }
        outcome.sent = mg::util::nowNanos();
        ++sent;
    }

    const uint64_t drain_end =
        mg::util::nowNanos() + static_cast<uint64_t>(drainSeconds * 1e9);
    while (received.load(std::memory_order_acquire) < sent &&
           mg::util::nowNanos() < drain_end) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    conns.finish();
    result.lost = sent - received.load();
    result.strayResponses = stray.load();
    result.generatorCpuSeconds = threadCpuSeconds() - sender_cpu0;
    for (double cpu : receiver_cpu) {
        result.generatorCpuSeconds += cpu;
    }
    return result;
}

} // namespace perfbench
