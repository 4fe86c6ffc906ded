/**
 * @file
 * Clocks, order statistics, process probes and the result line.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between @p from and @p to. */
double seconds(Clock::time_point from, Clock::time_point to);

/** CPU seconds consumed by the calling thread. */
double threadCpuSeconds();

/**
 * Run a fixed piece of work that no change to the program under test
 * can alter (formatting numbers into a document keyed through a
 * std::map) twice, and return the calling thread's CPU seconds for
 * the second time, which starts with warm caches.
 */
double referenceWorkSeconds();

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/**
 * Quantile @p q in [0, 1] by linear interpolation between order
 * statistics (0 when empty).
 */
double quantile(std::vector<double> values, double q);

/** VmHWM of @p pid (0 = this process) in MiB, from /proc. */
double peakRssMb(pid_t pid = 0);

/** utime + stime of @p pid in seconds, from /proc/PID/stat. */
double processCpuSeconds(pid_t pid);

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/**
 * The benchmark's result line: the outcome counts plus the metrics,
 * printed as one JSON object.
 */
struct Result
{
    uint64_t attempted = 0;
    /** Operations that failed, were refused or gave wrong output. */
    uint64_t failed = 0;
    std::map<std::string, Metric> metrics;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }

    /** Count one operation and whether it succeeded. */
    void
    op(bool ok)
    {
        ++attempted;
        failed += !ok;
    }

    std::string json() const;
};

/** Cycles and instructions a simulated run must reproduce. */
struct ExpectedRun
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;
};

/**
 * Expected values, keyed "<workload> <program> <machine>", read from
 * the benchmark's expected-values file. Each line holds the three key
 * words followed by cycles and instructions; '#' starts a comment.
 */
std::map<std::string, ExpectedRun>
readExpected(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
