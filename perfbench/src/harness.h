/**
 * @file
 * Shared pieces of the repository benchmark: run options, the metric
 * record every workload fills, percentile rules, process resource probes
 * (rusage, software perf events) and the in-memory span log of the traced
 * replays.  Nothing here instruments the mapper: spans wrap calls into the
 * libraries' public functions from the benchmark's side.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Command-line options of one `mg_perfbench run`. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    /** Length of the timed phase. */
    double seconds = 10.0;
    /** 0: untraced end-to-end run; 1: traced per-layer run. */
    bool trace = false;
    /** Directory holding the generated inputs (and the span dump). */
    std::string dir;
    /** Where the full JSON record goes. */
    std::string out;
    /** Threads/connections ceiling (the host's online CPUs). */
    size_t nproc = 1;
    /** Commit of the measured tree, or why it is unknown. */
    std::string commit;
    /** Interactive latency limit of the rps_at_slo ladder (ms). */
    double sloP99Ms = 0.0;
};

/** One named number with its unit and the samples behind it. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    /** Observations the value summarizes (reads, requests, runs...). */
    uint64_t samples = 0;
    /** How it was computed, or why the layer did no work ("not run"). */
    std::string note;
    /** The per-pass values a median summarizes (record file only). */
    std::vector<double> series;
};

/** One correctness check of the run. */
struct Check
{
    std::string name;
    bool pass = false;
    std::string detail;
};

/** Everything one run reports; written as JSON at the end. */
class Record
{
  public:
    void set(const std::string& name, double value, const std::string& unit,
             uint64_t samples, const std::string& note = {});
    /** The median of `values`, keeping them in the record. */
    void setMedian(const std::string& name, std::vector<double> values,
                   const std::string& unit, const std::string& note);
    /** A layer the workload never calls: a measured zero, labelled. */
    void notRun(const std::string& name, const std::string& unit,
                const std::string& why);
    void check(const std::string& name, bool pass,
               const std::string& detail = {});
    void stamp(const std::string& key, const std::string& value);
    /** Operations attempted / failed (failed_share numerator, denominator). */
    void count(uint64_t attempted, uint64_t failed);
    /** A measurement outside its validity limit (the run is invalid). */
    void invalid(const std::string& why);

    bool correct() const;

    /** Human-readable table + verdict on stdout. */
    void print(const Options& options) const;
    /** Full record (stamp, checks, metrics with units and counts). */
    void write(const Options& options) const;

  private:
    std::map<std::string, Metric> metrics_;
    std::vector<Check> checks_;
    std::vector<std::pair<std::string, std::string>> stamp_;
    std::vector<std::string> invalid_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** Stamp commit, host, toolchain, build options and seed into a record. */
void stampRun(Record& record, const Options& options);

// --- statistics ---------------------------------------------------------

double median(std::vector<double> values);

/** Linear-interpolated quantile q in [0, 1] of unsorted values. */
double quantile(std::vector<double> values, double q);

/**
 * The highest percentile that has at least ten samples beyond it, capped
 * at 0.99 (so 1000+ samples give the true p99).  Returns 0.5 for fewer
 * than 20 samples.
 */
double tailQuantileLevel(size_t samples);

/** "p99" / "p97.3": how a tail value was taken, for metric notes. */
std::string tailLabel(size_t samples);

// --- process probes -----------------------------------------------------

/** User + system CPU seconds of the whole process (all threads). */
double processCpuSeconds();
/** Peak resident set of the process so far (MB). */
double peakRssMb();
/** Current resident set (MB), from /proc/self/status. */
double currentRssMb();

/**
 * A software perf event (task-clock or page faults) counted for the
 * calling thread and the threads it creates afterwards.  When the kernel
 * refuses perf_event_open, available() is false and error() says why;
 * callers then fall back to rusage and say so.
 */
class SoftwareCounter
{
  public:
    enum class Kind { TaskClock, PageFaults };
    explicit SoftwareCounter(Kind kind);
    ~SoftwareCounter();
    SoftwareCounter(const SoftwareCounter&) = delete;
    SoftwareCounter& operator=(const SoftwareCounter&) = delete;

    bool available() const { return fd_ >= 0; }
    const std::string& error() const { return error_; }
    uint64_t read() const;

  private:
    int fd_ = -1;
    std::string error_;
};

/** CPU time of the calling thread (ns): the perf task-clock when the
 *  kernel allows it, else rusage of the thread. */
class ThreadCpuClock
{
  public:
    uint64_t nanos() const;
    const char* source() const
    {
        return counter_.available() ? "perf task-clock" : "rusage";
    }

  private:
    SoftwareCounter counter_{SoftwareCounter::Kind::TaskClock};
};

/** Page faults since construction: the perf software event when the
 *  kernel allows it, else process rusage. */
class FaultMeter
{
  public:
    FaultMeter() : start_(now()) {}
    double read() const { return static_cast<double>(now() - start_); }

  private:
    uint64_t now() const;

    SoftwareCounter counter_{SoftwareCounter::Kind::PageFaults};
    uint64_t start_;
};

/** Probe the hardware PMU: "available" or "unavailable (<reason>)". */
std::string hardwarePmuStatus();

/** Minor + major page faults of the process so far (rusage). */
uint64_t processPageFaults();

// --- spans --------------------------------------------------------------

/** One timed call: name, start, end, parent span, read or request id. */
struct Span
{
    const char* name = "";
    uint64_t start = 0;
    uint64_t end = 0;
    /** Index of the enclosing span, -1 at the root. */
    int64_t parent = -1;
    uint64_t id = 0;
};

/**
 * Spans of a single-threaded traced replay, kept in memory and written
 * when the run ends.  Self time is a span's duration minus the time its
 * direct children cover.
 */
class SpanLog
{
  public:
    explicit SpanLog(size_t reserve = 0) { spans_.reserve(reserve); }

    int64_t begin(const char* name, int64_t parent, uint64_t id);
    void end(int64_t span);

    const std::vector<Span>& spans() const { return spans_; }
    /** Summed duration of every span with this name (ns). */
    uint64_t total(const std::string& name) const;
    /** Summed self time of every span with this name (ns). */
    uint64_t self(const std::string& name) const;

    /** CSV: index,name,start_ns,end_ns,parent,id (times from the root). */
    void write(const std::string& path) const;

  private:
    std::vector<Span> spans_;
};

/** RAII span. */
class SpanScope
{
  public:
    SpanScope(SpanLog& log, const char* name, int64_t parent, uint64_t id)
        : log_(log), span_(log.begin(name, parent, id))
    {}
    ~SpanScope() { log_.end(span_); }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

    int64_t index() const { return span_; }

  private:
    SpanLog& log_;
    int64_t span_;
};

// --- workloads ----------------------------------------------------------

/** Write a workload's generated inputs for a seed into `dir`. */
void generateInputs(const std::string& workload, uint64_t seed,
                    const std::string& dir, size_t nproc);

void runHumanProxy(const Options& options, Record& record);
void runYeastGiraffe(const Options& options, Record& record);
void runYeastServe(const Options& options, Record& record);

} // namespace perfbench
