/**
 * @file
 * Open-loop request generator for the serving workload.  Every request has
 * a scheduled send time fixed before the run starts; the sender writes
 * each pre-encoded frame at its time whatever the replies are doing, and
 * one receiver thread per connection matches responses by request id, so
 * a slow reply never holds back the schedule.  Latency is taken from the
 * *scheduled* send time: a stall that delays later requests shows in their
 * latency (no coordinated omission), and the generator's own lateness is
 * reported next to it.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/frame.h"

namespace perfbench {

/** One scheduled request.  Its frame's request id must be index + 1. */
struct Arrival
{
    /** Send time, as an offset from the run start. */
    uint64_t atNanos = 0;
    /** Connection to send on (one per tenant). */
    uint32_t connection = 0;
    /** Reads in the request (throughput accounting). */
    uint32_t reads = 0;
    /** The whole request frame: serve::frameBytes(serve::encodeRequest). */
    std::vector<uint8_t> frame;
};

/** What happened to one arrival (all times absolute, steady clock). */
struct Outcome
{
    uint64_t scheduled = 0;
    /** 0 when the frame could not be written. */
    uint64_t sent = 0;
    /** 0 when no response arrived before the drain timeout. */
    uint64_t received = 0;
    mg::serve::Response response;

    bool ok() const
    {
        return received != 0 &&
               response.status == mg::serve::ResponseStatus::Ok;
    }
    /** Latency from the scheduled send time (ms). */
    double latencyMs() const
    {
        return static_cast<double>(received - scheduled) * 1e-6;
    }
    /** How late the generator sent (ms). */
    double lateMs() const
    {
        return static_cast<double>(sent - scheduled) * 1e-6;
    }
};

/** A whole open-loop run. */
struct LoadResult
{
    std::vector<Outcome> outcomes;
    uint64_t startNanos = 0;
    /** Sent frames that got no response before the drain timeout. */
    uint64_t lost = 0;
    /** Frames that failed to send (connection refused or broken). */
    uint64_t sendErrors = 0;
    /** Responses that did not decode or named no pending request. */
    uint64_t strayResponses = 0;
    /** User + system CPU of the generator's own threads. */
    double generatorCpuSeconds = 0.0;
};

/**
 * Run `arrivals` (sorted by time) against the server at `socket` over
 * `connections` Unix-socket connections; wait up to `drainSeconds` after
 * the last send for the remaining responses.
 */
LoadResult runOpenLoop(const std::string& socket, size_t connections,
                       const std::vector<Arrival>& arrivals,
                       double drainSeconds);

} // namespace perfbench
