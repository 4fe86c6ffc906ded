/**
 * @file
 * Per-layer probes: each times calls into one layer's public entry
 * points from outside, on a workload's own programs.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/inputs.hh"
#include "harness/measure.hh"
#include "sim/simulator.hh"

namespace perfbench {

/** An in-process answer to one simulate request. */
struct Reference
{
    std::string doc;
    /** Instructions retired by the baseline and requested runs. */
    uint64_t instructions = 0;
};

/**
 * The stats document a simulate request must be answered with,
 * computed in process with sim::compile, sim::runTimed and
 * sim::statsReportJson (no RunCache, no Router).
 */
Reference referenceFor(const elag::serve::Request &request);

/**
 * True when @p result is a correct `generate` answer to @p request:
 * its source and content hash are those synthetic::generateScenario
 * gives for the request's spec.
 */
bool generateMatches(const elag::serve::Request &request,
                     const std::string &result);

/** The key equal simulate requests share: a hash of the request. */
std::string requestKey(const elag::serve::Request &request);

/**
 * Run every in-process layer probe over @p in's ops and programs,
 * repeating the costly ones while @p budget_s lasts, and set the
 * per-layer metrics they give in @p result. @p programs are the
 * compiled inputs, one per Inputs::programs entry.
 * @return for each simulate request the schedule sends as a RunCache
 * hit, keyed by requestKey, the median seconds Router::execute takes
 * to answer it from the cache.
 */
std::map<std::string, double>
probeLayers(const Inputs &in,
            const std::vector<elag::sim::CompiledProgram> &programs,
            double budget_s, Result &result);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
