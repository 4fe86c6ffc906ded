/**
 * @file
 * Tests for the experiment assembly in sim/stats_run.hh: the machine
 * name parser, and the one stats run against a reference assembled
 * by hand from two sim::runTimed calls — plain, with the invariant
 * checker, with a seeded fault injector, snapshotted, and
 * interrupted then resumed.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>

#include "ckpt/checkpoint.hh"
#include "sim/run_cache.hh"
#include "sim/stats_run.hh"
#include "support/logging.hh"
#include "verify/fault_injector.hh"
#include "verify/invariant_checker.hh"
#include "workloads/workloads.hh"

using namespace elag;
using pipeline::MachineConfig;
using pipeline::SelectionPolicy;

// ---------------------------------------------------------------
// parseMachine.
// ---------------------------------------------------------------

TEST(ParseMachine, EveryAcceptedCombinationMatchesTheHandBuiltConfig)
{
    struct Policy
    {
        const char *name;
        std::optional<SelectionPolicy> policy;
    };
    const Policy policies[] = {
        {"", std::nullopt},
        {"compiler", SelectionPolicy::CompilerSpec},
        {"ev", SelectionPolicy::EvSelect},
        {"all-predict", SelectionPolicy::AllPredict},
        {"all-early", SelectionPolicy::AllEarlyCalc},
    };
    for (const char *machine : {"baseline", "proposed"}) {
        for (const Policy &p : policies) {
            for (uint32_t table : {0u, 64u}) {
                for (uint32_t regs : {0u, 4u}) {
                    MachineConfig want =
                        std::string(machine) == "baseline"
                            ? MachineConfig::baseline()
                            : MachineConfig::proposed();
                    if (table) {
                        want.addressTableEnabled = true;
                        want.addressTableEntries = table;
                    }
                    if (regs) {
                        want.earlyCalcEnabled = true;
                        want.registerCacheSize = regs;
                    }
                    if (p.policy)
                        want.selection = *p.policy;

                    MachineConfig got;
                    std::string error;
                    ASSERT_TRUE(sim::parseMachine(machine, p.name,
                                                  table, regs, got,
                                                  error))
                        << error;
                    EXPECT_EQ(sim::hashConfig(got),
                              sim::hashConfig(want))
                        << machine << " '" << p.name << "' table "
                        << table << " regs " << regs;
                }
            }
        }
    }
}

TEST(ParseMachine, RejectsUnknownNames)
{
    struct Row
    {
        const char *machine;
        const char *selection;
        const char *named; ///< the value the error must name
    };
    const Row rows[] = {
        {"basline", "", "basline"},
        {"Proposed", "", "Proposed"},
        {"", "", "''"},
        {"proposed", "bogus", "bogus"},
        {"baseline", "EV", "EV"},
    };
    for (const Row &row : rows) {
        MachineConfig got;
        std::string error;
        EXPECT_FALSE(sim::parseMachine(row.machine, row.selection, 0, 0,
                                       got, error))
            << row.machine << "/" << row.selection;
        EXPECT_NE(error.find(row.named), std::string::npos) << error;
    }
}

// ---------------------------------------------------------------
// runStats against two hand-assembled runTimed calls.
// ---------------------------------------------------------------

namespace {

enum class Mode
{
    Plain,
    Checker,
    Chaos,
    Snapshots,
    Resumed,
};

constexpr uint64_t kChaosSeed = 7;
constexpr uint64_t kEvery = 100'000;

/** The stats document, assembled by hand from two runTimed calls. */
std::string
referenceDoc(const sim::CompiledProgram &prog, Mode mode)
{
    sim::TimedResult base =
        sim::runTimed(prog, MachineConfig::baseline());
    MachineConfig machine = MachineConfig::proposed();
    std::optional<verify::FaultInjector> injector;
    if (mode == Mode::Chaos) {
        injector.emplace(verify::planByName("chaos"), kChaosSeed);
        machine.faultInjector = &*injector;
    }
    pipeline::LoadTelemetry telemetry;
    verify::InvariantChecker checker;
    std::vector<pipeline::Observer *> observers{&telemetry};
    if (mode == Mode::Checker)
        observers.push_back(&checker);
    sim::TimedResult timed =
        sim::runTimed(prog, machine, 500'000'000, observers);
    if (mode == Mode::Checker)
        checker.finish(timed.pipe);
    return sim::statsReportJson("ref", "proposed", "", prog, base,
                                timed, telemetry);
}

std::string
statsRunDoc(const sim::CompiledProgram &prog, Mode mode,
            const std::string &path)
{
    sim::StatsJob job;
    job.machine = MachineConfig::proposed();
    job.verifyInvariants = mode == Mode::Checker;
    if (mode == Mode::Chaos) {
        job.inject = "chaos";
        job.seed = kChaosSeed;
    }
    if (mode == Mode::Snapshots || mode == Mode::Resumed) {
        std::remove(path.c_str());
        job.checkpoint.emplace();
        job.checkpoint->path = path;
        job.checkpoint->everyRetires = kEvery;
    }
    if (mode == Mode::Resumed) {
        // Stop at the third boundary, then resume from the snapshot
        // with fresh observers, as a restarted process would.
        int polls = 0;
        job.checkpoint->interrupted = [&polls] { return ++polls == 3; };
        sim::StatsOutcome first = sim::runStats(prog, job);
        EXPECT_TRUE(first.interrupted);
        EXPECT_TRUE(ckpt::fileExists(path));
        job.checkpoint->interrupted = nullptr;
        job.resumeFrom = path;
    }
    sim::StatsOutcome out = sim::runStats(prog, job);
    EXPECT_FALSE(out.interrupted);
    EXPECT_EQ(out.resumed, mode == Mode::Resumed);
    if (job.checkpoint) {
        EXPECT_GT(out.snapshots, 0u);
        EXPECT_FALSE(ckpt::fileExists(path)); // removed on completion
    }
    EXPECT_EQ(out.eventsChecked > 0, mode == Mode::Checker);
    EXPECT_EQ(out.faultsFired > 0, mode == Mode::Chaos);
    return sim::statsReportJson("ref", "proposed", "", prog, out.base,
                                out.timed, out.telemetry);
}

} // namespace

TEST(StatsRun, MatchesTwoRunTimedCallsByteForByte)
{
    setQuiet(true);
    const std::string path =
        std::string(::testing::TempDir()) + "stats_run.ckpt";
    const std::pair<Mode, const char *> modes[] = {
        {Mode::Plain, "plain"},         {Mode::Checker, "checker"},
        {Mode::Chaos, "chaos"},         {Mode::Snapshots, "snapshots"},
        {Mode::Resumed, "resumed"},
    };
    for (const char *name : {"gs", "022.li", "epic_dec"}) {
        const workloads::Workload *w = workloads::findWorkload(name);
        ASSERT_NE(w, nullptr) << name;
        sim::CompiledProgram prog = sim::compile(w->source);
        for (const auto &[mode, label] : modes) {
            EXPECT_EQ(statsRunDoc(prog, mode, path),
                      referenceDoc(prog, mode))
                << name << " " << label;
        }
    }
}

TEST(StatsRun, UnusableAutoResumeSnapshotRunsClean)
{
    setQuiet(true);
    const std::string path =
        std::string(::testing::TempDir()) + "stats_run_bad.ckpt";
    const workloads::Workload *w = workloads::findWorkload("gs");
    ASSERT_NE(w, nullptr);
    sim::CompiledProgram prog = sim::compile(w->source);

    // A file that is not a checkpoint at the policy's own path: the
    // auto-resume fails, and the run starts over clean.
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("not a checkpoint", f);
        std::fclose(f);
    }
    sim::StatsJob job;
    job.machine = MachineConfig::proposed();
    job.checkpoint.emplace();
    job.checkpoint->path = path;
    job.checkpoint->everyRetires = kEvery;
    sim::StatsOutcome out = sim::runStats(prog, job);
    EXPECT_FALSE(out.resumed);
    EXPECT_EQ(sim::statsReportJson("ref", "proposed", "", prog,
                                   out.base, out.timed, out.telemetry),
              referenceDoc(prog, Mode::Plain));

    // The same file named explicitly is a typed error instead.
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("not a checkpoint", f);
        std::fclose(f);
    }
    sim::StatsJob explicitJob;
    explicitJob.machine = MachineConfig::proposed();
    explicitJob.resumeFrom = path;
    EXPECT_THROW(sim::runStats(prog, explicitJob), ckpt::CkptError);
    std::remove(path.c_str());
}
