#include "verify/ckpt_diff.hh"

#include <cstdio>

#include "sim/stats_run.hh"
#include "support/logging.hh"

namespace elag {
namespace verify {

namespace {

/** First byte offset where @p a and @p b differ, with context. */
std::string
describeDivergence(const std::string &a, const std::string &b)
{
    size_t limit = a.size() < b.size() ? a.size() : b.size();
    size_t at = 0;
    while (at < limit && a[at] == b[at])
        ++at;
    size_t from = at > 30 ? at - 30 : 0;
    return formatString(
        "documents diverge at byte %zu (sizes %zu vs %zu): "
        "\"...%s\" vs \"...%s\"",
        at, a.size(), b.size(),
        a.substr(from, 60).c_str(), b.substr(from, 60).c_str());
}

} // anonymous namespace

CkptDiffResult
checkKillResumeEquivalence(const std::string &source,
                           const std::string &ckpt_path,
                           uint64_t max_instructions,
                           uint64_t boundary_retires,
                           bool with_checker)
{
    CkptDiffResult result;

    sim::CompiledProgram prog = sim::compile(source);
    sim::StatsJob job;
    job.machine = pipeline::MachineConfig::proposed();
    job.maxInstructions = max_instructions;
    job.verifyInvariants = with_checker;
    job.checkpoint.emplace();
    job.checkpoint->everyRetires = boundary_retires;
    auto report = [&](const sim::StatsOutcome &out) {
        return sim::statsReportJson("ckptdiff", "proposed", "", prog,
                                    out.base, out.timed, out.telemetry);
    };

    // Reference: one uninterrupted run, chunked at the same
    // boundaries but never snapshotted.
    std::string reference = report(sim::runStats(prog, job));

    // Interrupted side: stop at the first boundary of every leg,
    // discard all live objects, restore from the file into fresh
    // ones — the in-process equivalent of SIGKILL + re-exec. Legs
    // after the first resume explicitly, so an unusable snapshot
    // fails the check instead of silently starting over.
    std::remove(ckpt_path.c_str());
    job.checkpoint->path = ckpt_path;
    job.checkpoint->interrupted = [] { return true; };
    std::string resumed;
    for (;;) {
        sim::StatsOutcome leg = sim::runStats(prog, job);
        if (!leg.interrupted) {
            resumed = report(leg);
            break;
        }
        ++result.legs;
        job.resumeFrom = ckpt_path;
    }

    result.reference = reference;
    result.resumed = resumed;
    result.equivalent = reference == resumed;
    if (!result.equivalent)
        result.detail = describeDivergence(reference, resumed);
    else
        std::remove(ckpt_path.c_str());
    return result;
}

} // namespace verify
} // namespace elag
