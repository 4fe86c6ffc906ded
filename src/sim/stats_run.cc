#include "sim/stats_run.hh"

#include <unistd.h>

#include "ckpt/checkpoint.hh"
#include "sim/run_cache.hh"
#include "support/logging.hh"
#include "verify/fault_injector.hh"
#include "verify/invariant_checker.hh"

namespace elag {
namespace sim {

bool
parseMachine(const std::string &machine, const std::string &selection,
             uint32_t table, uint32_t regs,
             pipeline::MachineConfig &out, std::string &error)
{
    if (machine == "baseline") {
        out = pipeline::MachineConfig::baseline();
    } else if (machine == "proposed") {
        out = pipeline::MachineConfig::proposed();
    } else {
        error = "unknown machine '" + machine +
                "' (want baseline or proposed)";
        return false;
    }
    if (table) {
        out.addressTableEnabled = true;
        out.addressTableEntries = table;
    }
    if (regs) {
        out.earlyCalcEnabled = true;
        out.registerCacheSize = regs;
    }
    if (selection == "compiler") {
        out.selection = pipeline::SelectionPolicy::CompilerSpec;
    } else if (selection == "ev") {
        out.selection = pipeline::SelectionPolicy::EvSelect;
    } else if (selection == "all-predict") {
        out.selection = pipeline::SelectionPolicy::AllPredict;
    } else if (selection == "all-early") {
        out.selection = pipeline::SelectionPolicy::AllEarlyCalc;
    } else if (!selection.empty()) {
        error = "unknown selection policy '" + selection +
                "' (want compiler, ev, all-predict or all-early)";
        return false;
    }
    return true;
}

CkptRunKey
makeRunKey(const CompiledProgram &prog, const StatsJob &job)
{
    CkptRunKey key;
    key.programHash = hashProgram(prog.code.program);
    key.machineHash = hashConfig(job.machine);
    key.baselineHash = hashConfig(pipeline::MachineConfig::baseline());
    key.maxInstructions = job.maxInstructions;
    key.hasChecker = job.verifyInvariants;
    if (!job.inject.empty()) {
        key.injectorPlan = job.inject;
        key.injectorSeed = job.seed;
    }
    return key;
}

namespace {

/** Section names of the checkpointed stats-run container. */
constexpr char kSecMeta[5] = "META"; ///< run key + phase
constexpr char kSecBase[5] = "BASE"; ///< completed baseline result
constexpr char kSecRuns[5] = "RUNS"; ///< in-flight phase run state
constexpr char kSecTele[5] = "TELE"; ///< load telemetry table
constexpr char kSecChkr[5] = "CHKR"; ///< invariant-checker shadows
constexpr char kSecFalt[5] = "FALT"; ///< fault-injector stream

/** A section a snapshot of this run must carry. */
ckpt::Reader
requiredSection(const ckpt::CheckpointReader &ck, const char (&name)[5],
                const char *what)
{
    if (!ck.has(name)) {
        throw ckpt::CkptError(
            ckpt::ErrorKind::Mismatch,
            formatString("checkpoint carries no %s section", what));
    }
    return ck.section(name);
}

/**
 * One attempt at @p job with freshly built observers, restored from
 * @p resume_from first when it is non-empty.
 */
StatsOutcome
attempt(const CompiledProgram &prog, const StatsJob &job,
        const std::string &resume_from)
{
    StatsOutcome out;
    const CkptRunKey key = makeRunKey(prog, job);
    const CkptPolicy *policy = job.checkpoint ? &*job.checkpoint : nullptr;

    // Faults perturb only the machine under test; the baseline
    // reference stays clean.
    pipeline::MachineConfig machine = job.machine;
    std::optional<verify::FaultInjector> injector;
    if (!job.inject.empty()) {
        injector.emplace(verify::planByName(job.inject), job.seed);
        machine.faultInjector = &*injector;
    }
    verify::InvariantChecker checker;

    // Phase 0 runs the baseline machine observer-free; phase 1 runs
    // the configured machine with the observers attached. Each run
    // is built when its phase starts, so its wall-clock watchdog
    // counts that phase only.
    std::optional<ResumableTimedRun> baseRun, timedRun;
    auto startTimed = [&] {
        timedRun.emplace(prog, machine, job.maxInstructions);
        timedRun->attach(&out.telemetry);
        if (job.verifyInvariants)
            timedRun->attach(&checker);
    };

    uint8_t phase = 0;
    if (!resume_from.empty()) {
        ckpt::CheckpointReader ck =
            ckpt::CheckpointReader::fromFile(resume_from);
        ckpt::Reader meta = ck.section(kSecMeta);
        CkptRunKey fileKey;
        restore(meta, fileKey);
        if (!(fileKey == key)) {
            throw ckpt::CkptError(
                ckpt::ErrorKind::Mismatch,
                "checkpoint belongs to a different run (program, "
                "machine, cap, or observer set differs)");
        }
        phase = meta.u8();
        if (phase > 1) {
            throw ckpt::CkptError(ckpt::ErrorKind::Corrupt,
                                  "invalid checkpoint phase");
        }
        if (phase == 0) {
            baseRun.emplace(prog, pipeline::MachineConfig::baseline(),
                            job.maxInstructions);
            ckpt::Reader runs = ck.section(kSecRuns);
            baseRun->restore(runs);
        } else {
            ckpt::Reader bs = ck.section(kSecBase);
            pipeline::restore(bs, out.base.pipe);
            sim::restore(bs, out.base.emulation);
            startTimed();
            ckpt::Reader runs = ck.section(kSecRuns);
            timedRun->restore(runs);
            ckpt::Reader t = requiredSection(ck, kSecTele, "telemetry");
            out.telemetry.restore(t);
            if (job.verifyInvariants) {
                ckpt::Reader c = requiredSection(ck, kSecChkr, "checker");
                checker.restore(c);
            }
            if (injector) {
                ckpt::Reader f =
                    requiredSection(ck, kSecFalt, "fault-injector");
                injector->restore(f);
            }
        }
        out.resumed = true;
    }

    // Snapshot write failures degrade to a warning: losing a snapshot
    // costs resumability, not correctness, and must never kill a run
    // that would otherwise finish.
    auto snapshot = [&](uint8_t ph) {
        if (!policy || policy->path.empty())
            return;
        try {
            ckpt::CheckpointWriter cw;
            ckpt::Writer &meta = cw.section(kSecMeta);
            serialize(meta, key);
            meta.u8(ph);
            if (ph == 0) {
                baseRun->serialize(cw.section(kSecRuns));
            } else {
                ckpt::Writer &bs = cw.section(kSecBase);
                pipeline::serialize(bs, out.base.pipe);
                sim::serialize(bs, out.base.emulation);
                timedRun->serialize(cw.section(kSecRuns));
                out.telemetry.serialize(cw.section(kSecTele));
                if (job.verifyInvariants)
                    checker.serialize(cw.section(kSecChkr));
                if (injector)
                    injector->serialize(cw.section(kSecFalt));
            }
            cw.writeFile(policy->path);
            ++out.snapshots;
        } catch (const ckpt::CkptError &e) {
            warn("checkpoint snapshot to '%s' failed (%s): %s",
                 policy->path.c_str(), ckpt::name(e.kind()), e.what());
        }
    };

    // Without a policy each run is one step to the halt or the cap,
    // so done() holds after it; with one, runs stop at every chunk
    // boundary to snapshot and poll for interruption.
    const uint64_t chunk =
        !policy                ? job.maxInstructions
        : policy->everyRetires ? policy->everyRetires
                               : kDefaultCkptRetires;
    auto runPhase = [&](ResumableTimedRun &run, uint8_t ph) {
        for (;;) {
            run.step(chunk, job.watchdog);
            if (run.done())
                return true;
            if (policy->interrupted && policy->interrupted()) {
                snapshot(ph);
                out.interrupted = true;
                return false;
            }
            snapshot(ph);
        }
    };

    if (phase == 0) {
        if (!baseRun) {
            baseRun.emplace(prog, pipeline::MachineConfig::baseline(),
                            job.maxInstructions);
        }
        if (!runPhase(*baseRun, 0))
            return out;
        out.base = baseRun->finish();
        baseRun.reset();
        startTimed();
        // Persist the phase transition so a kill early in the timed
        // run resumes past the whole baseline.
        snapshot(1);
    }
    if (!runPhase(*timedRun, 1))
        return out;
    out.timed = timedRun->finish();

    if (job.verifyInvariants) {
        checker.finish(out.timed.pipe);
        out.eventsChecked = checker.eventsChecked();
    }
    if (injector)
        out.faultsFired = injector->counts().total();
    if (policy && !policy->path.empty())
        ::unlink(policy->path.c_str());
    return out;
}

} // anonymous namespace

StatsOutcome
runStats(const CompiledProgram &prog, const StatsJob &job)
{
    std::string resume = job.resumeFrom;
    const bool autoResume = resume.empty() && job.checkpoint &&
                            !job.checkpoint->path.empty() &&
                            ckpt::fileExists(job.checkpoint->path);
    if (autoResume)
        resume = job.checkpoint->path;

    StatsOutcome out;
    try {
        out = attempt(prog, job, resume);
    } catch (const ckpt::CkptError &e) {
        if (!autoResume)
            throw;
        // An unusable auto-resume snapshot costs the saved progress,
        // not the run: the next attempt builds fresh observers, and
        // its snapshots overwrite the bad file.
        warn("unusable checkpoint '%s' (%s): %s; starting clean",
             resume.c_str(), ckpt::name(e.kind()), e.what());
        return attempt(prog, job, "");
    }
    if (out.resumed && !out.interrupted)
        inform("resumed from checkpoint '%s'", resume.c_str());
    return out;
}

} // namespace sim
} // namespace elag
