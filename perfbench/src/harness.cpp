#include "harness.h"

#include <linux/perf_event.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "obs/json.h"
#include "util/common.h"
#include "util/timer.h"

namespace perfbench {

// --- record -------------------------------------------------------------

void
Record::set(const std::string& name, double value, const std::string& unit,
            uint64_t samples, const std::string& note)
{
    metrics_[name] = Metric{value, unit, samples, note, {}};
}

void
Record::setMedian(const std::string& name, std::vector<double> values,
                  const std::string& unit, const std::string& note)
{
    const double value = median(values);
    const uint64_t samples = values.size();
    metrics_[name] = Metric{value, unit, samples, note, std::move(values)};
}

void
Record::notRun(const std::string& name, const std::string& unit,
               const std::string& why)
{
    metrics_[name] = Metric{0.0, unit, 0, "not run: " + why, {}};
}

void
Record::check(const std::string& name, bool pass, const std::string& detail)
{
    checks_.push_back(Check{name, pass, detail});
}

void
Record::stamp(const std::string& key, const std::string& value)
{
    stamp_.emplace_back(key, value);
}

void
Record::count(uint64_t attempted, uint64_t failed)
{
    attempted_ += attempted;
    failed_ += failed;
}

void
Record::invalid(const std::string& why)
{
    invalid_.push_back(why);
}

bool
Record::correct() const
{
    if (checks_.empty()) {
        return false;
    }
    for (const Check& c : checks_) {
        if (!c.pass) {
            return false;
        }
    }
    return true;
}

void
Record::print(const Options& options) const
{
    std::printf("== perfbench %s seed=%llu trace=%d ==\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.trace ? 1 : 0);
    for (const auto& [key, value] : stamp_) {
        std::printf("  %-18s %s\n", key.c_str(), value.c_str());
    }
    std::printf("  %-40s %16s  %-8s %10s  %s\n", "metric", "value", "unit",
                "samples", "note");
    for (const auto& [name, m] : metrics_) {
        std::printf("  %-40s %16.6g  %-8s %10llu  %s\n", name.c_str(),
                    m.value, m.unit.c_str(),
                    static_cast<unsigned long long>(m.samples),
                    m.note.c_str());
    }
    for (const Check& c : checks_) {
        std::printf("  check %-34s %s  %s\n", c.name.c_str(),
                    c.pass ? "PASS" : "FAIL", c.detail.c_str());
    }
    for (const std::string& why : invalid_) {
        std::printf("  INVALID: %s\n", why.c_str());
    }
    std::printf("  failed_share %llu/%llu\n",
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
    std::printf("  verdict: %s\n", correct() ? "PASS" : "FAIL");
}

void
Record::write(const Options& options) const
{
    mg::obs::JsonWriter json(true);
    json.beginObject();
    json.field("workload", options.workload);
    json.field("seed", options.seed);
    json.field("trace", options.trace);
    json.field("seconds", options.seconds);
    json.key("stamp").beginObject();
    for (const auto& [key, value] : stamp_) {
        json.field(key, value);
    }
    json.endObject();
    json.field("correct", correct());
    json.field("valid", invalid_.empty());
    json.key("invalid").beginArray();
    for (const std::string& why : invalid_) {
        json.value(why);
    }
    json.endArray();
    json.field("attempted", attempted_);
    json.field("failed", failed_);
    json.field("failed_share",
               attempted_ == 0 ? 0.0
                               : static_cast<double>(failed_) /
                                     static_cast<double>(attempted_));
    json.key("checks").beginArray();
    for (const Check& c : checks_) {
        json.beginObject();
        json.field("name", c.name);
        json.field("pass", c.pass);
        json.field("detail", c.detail);
        json.endObject();
    }
    json.endArray();
    json.key("metrics").beginObject();
    for (const auto& [name, m] : metrics_) {
        json.key(name).beginObject();
        json.field("value", m.value);
        json.field("unit", m.unit);
        json.field("samples", m.samples);
        json.field("note", m.note);
        if (!m.series.empty()) {
            json.key("series").beginArray();
            for (double v : m.series) {
                json.value(v);
            }
            json.endArray();
        }
        json.endObject();
    }
    json.endObject();
    json.endObject();
    json.writeFile(options.out);
}

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos) {
                return line.substr(line.find_first_not_of(' ', colon + 1));
            }
        }
    }
    return "unknown";
}

} // namespace

void
stampRun(Record& record, const Options& options)
{
    record.stamp("commit", options.commit);
    record.stamp("nproc", std::to_string(options.nproc));
    record.stamp("cpu", cpuModel());
    record.stamp("compiler", MG_BENCH_COMPILER);
    record.stamp("build_type", MG_BENCH_BUILD_TYPE);
    record.stamp("MG_NATIVE", MG_BENCH_NATIVE ? "ON" : "OFF");
    record.stamp("seed", std::to_string(options.seed));
    record.stamp("hardware_pmu", hardwarePmuStatus());
    SoftwareCounter clock(SoftwareCounter::Kind::TaskClock);
    record.stamp("task_clock",
                 clock.available()
                     ? "perf_event_open"
                     : "rusage (perf_event_open: " + clock.error() + ")");
    SoftwareCounter faults(SoftwareCounter::Kind::PageFaults);
    record.stamp("page_faults",
                 faults.available()
                     ? "perf_event_open"
                     : "rusage (perf_event_open: " + faults.error() + ")");
}

// --- statistics ---------------------------------------------------------

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(values.size() - 1, lo + 1);
    const double frac = pos - static_cast<double>(lo);
    if (values[lo] == values[hi]) {
        return values[lo];
    }
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
tailQuantileLevel(size_t samples)
{
    if (samples < 20) {
        return 0.5;
    }
    const double level = 1.0 - 10.0 / static_cast<double>(samples);
    return std::min(0.99, level);
}

std::string
tailLabel(size_t samples)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "p%.3g",
                  100.0 * tailQuantileLevel(samples));
    return buf;
}

// --- process probes -----------------------------------------------------

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
currentRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmRSS:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
        }
    }
    return 0.0;
}

uint64_t
processPageFaults()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<uint64_t>(usage.ru_minflt + usage.ru_majflt);
}

namespace {

int
openEvent(uint32_t type, uint64_t config, std::string& error)
{
    perf_event_attr attr{};
    attr.size = sizeof(attr);
    attr.type = type;
    attr.config = config;
    attr.inherit = 1;
    attr.exclude_hv = 1;
    const long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
    if (fd < 0) {
        error = std::strerror(errno);
        return -1;
    }
    return static_cast<int>(fd);
}

} // namespace

SoftwareCounter::SoftwareCounter(Kind kind)
{
    fd_ = openEvent(PERF_TYPE_SOFTWARE,
                    kind == Kind::TaskClock ? PERF_COUNT_SW_TASK_CLOCK
                                            : PERF_COUNT_SW_PAGE_FAULTS,
                    error_);
}

SoftwareCounter::~SoftwareCounter()
{
    if (fd_ >= 0) {
        close(fd_);
    }
}

uint64_t
SoftwareCounter::read() const
{
    uint64_t value = 0;
    if (fd_ < 0 || ::read(fd_, &value, sizeof(value)) != sizeof(value)) {
        return 0;
    }
    return value;
}

uint64_t
ThreadCpuClock::nanos() const
{
    if (counter_.available()) {
        return counter_.read();
    }
    rusage usage{};
    getrusage(RUSAGE_THREAD, &usage);
    auto ns = [](const timeval& tv) {
        return static_cast<uint64_t>(tv.tv_sec) * 1'000'000'000u +
               static_cast<uint64_t>(tv.tv_usec) * 1000u;
    };
    return ns(usage.ru_utime) + ns(usage.ru_stime);
}

uint64_t
FaultMeter::now() const
{
    return counter_.available() ? counter_.read() : processPageFaults();
}

std::string
hardwarePmuStatus()
{
    std::string error;
    const int fd =
        openEvent(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, error);
    if (fd < 0) {
        return "unavailable (cycles: " + error + ")";
    }
    close(fd);
    return "available";
}

// --- spans --------------------------------------------------------------

int64_t
SpanLog::begin(const char* name, int64_t parent, uint64_t id)
{
    Span span;
    span.name = name;
    span.parent = parent;
    span.id = id;
    span.start = mg::util::nowNanos();
    spans_.push_back(span);
    return static_cast<int64_t>(spans_.size() - 1);
}

void
SpanLog::end(int64_t span)
{
    spans_[static_cast<size_t>(span)].end = mg::util::nowNanos();
}

uint64_t
SpanLog::total(const std::string& name) const
{
    uint64_t sum = 0;
    for (const Span& s : spans_) {
        if (name == s.name) {
            sum += s.end - s.start;
        }
    }
    return sum;
}

uint64_t
SpanLog::self(const std::string& name) const
{
    std::vector<uint64_t> children(spans_.size(), 0);
    for (const Span& s : spans_) {
        if (s.parent >= 0) {
            children[static_cast<size_t>(s.parent)] += s.end - s.start;
        }
    }
    uint64_t sum = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
        if (name == spans_[i].name) {
            const uint64_t duration = spans_[i].end - spans_[i].start;
            sum += duration - std::min(duration, children[i]);
        }
    }
    return sum;
}

void
SpanLog::write(const std::string& path) const
{
    std::ofstream out(path);
    mg::util::require(static_cast<bool>(out), "cannot write ", path);
    const uint64_t origin = spans_.empty() ? 0 : spans_.front().start;
    out << "index,name,start_ns,end_ns,parent,id\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << i << ',' << s.name << ',' << s.start - origin << ','
            << s.end - origin << ',' << s.parent << ',' << s.id << '\n';
    }
    mg::util::require(static_cast<bool>(out), "short write to ", path);
}

} // namespace perfbench
