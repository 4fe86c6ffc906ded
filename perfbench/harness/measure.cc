#include "harness/measure.hh"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "support/json.hh"

namespace perfbench {

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

/** The reference work: formatting numbers into a keyed document. */
size_t
referenceWork()
{
    std::map<std::string, uint64_t> fields;
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    char buf[64];
    for (int i = 0; i < 4000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::snprintf(buf, sizeof buf, "field_%03u",
                      static_cast<unsigned>(x % 256));
        fields[buf] += x & 0xffff;
    }
    std::string doc = "{";
    for (const auto &[key, value] : fields) {
        std::snprintf(buf, sizeof buf, "\"%s\": %.6f, ", key.c_str(),
                      static_cast<double>(value) / 7.0);
        doc += buf;
    }
    doc += "}";
    return doc.size();
}

} // namespace

double
referenceWorkSeconds()
{
    // The untimed first pass fills the caches, so the timed one does
    // not depend on what the thread ran before.
    volatile size_t keep = referenceWork();
    const double c0 = threadCpuSeconds();
    keep = referenceWork();
    (void)keep;
    return threadCpuSeconds() - c0;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

std::string
procPath(pid_t pid, const char *leaf)
{
    return pid == 0 ? std::string("/proc/self/") + leaf
                    : "/proc/" + std::to_string(pid) + "/" + leaf;
}

} // namespace

double
peakRssMb(pid_t pid)
{
    std::ifstream in(procPath(pid, "status"));
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    throw std::runtime_error("no VmHWM in " + procPath(pid, "status"));
}

double
processCpuSeconds(pid_t pid)
{
    std::ifstream in(procPath(pid, "stat"));
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // The command name may hold spaces; fields resume after its ')'.
    size_t close = text.rfind(')');
    if (close == std::string::npos)
        throw std::runtime_error("unreadable " + procPath(pid, "stat"));
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    double utime = 0, stime = 0;
    // Fields 3..13 precede utime (14) and stime (15).
    for (int i = 3; i <= 15 && (fields >> field); ++i) {
        if (i == 14)
            utime = std::stod(field);
        else if (i == 15)
            stime = std::stod(field);
    }
    return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::string
Result::json() const
{
    elag::JsonWriter w(0);
    w.beginObject();
    w.field("correct", failed == 0);
    w.field("attempted", attempted);
    w.field("failed", failed);
    w.key("metrics").beginObject();
    for (const auto &[name, metric] : metrics) {
        w.key(name).beginObject();
        w.field("value", metric.value);
        w.field("unit", metric.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return w.str();
}

std::map<std::string, ExpectedRun>
readExpected(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read expected values '" + path +
                                 "'");
    std::map<std::string, ExpectedRun> table;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string workload, program, machine;
        ExpectedRun run;
        if (!(fields >> workload >> program >> machine >> run.cycles >>
              run.instructions))
            throw std::runtime_error("malformed expected line: " + line);
        table[workload + " " + program + " " + machine] = run;
    }
    return table;
}

} // namespace perfbench
