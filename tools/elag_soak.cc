/**
 * @file
 * elag_soak — differential fault-injection soak driver.
 *
 * Generates N seeded mini-C programs, runs each on the baseline and
 * proposed machines with the lockstep invariant checker attached,
 * then re-runs every (program, machine) pair under each fault plan
 * and requires:
 *
 *   - architectural results bit-identical to the clean reference
 *     (print output, exit value, instruction count, halted flag) —
 *     the paper's recovery-free claim: faults may only move timing;
 *   - zero invariant violations (the Section-3.2 safety conditions
 *     hold under every perturbation);
 *   - no hangs (every run is watchdog-guarded).
 *
 * Two self-checks run first so a silently-vacuous harness cannot
 * pass: a deliberately infinite program must trip the watchdog
 * (SimTimeoutError), and a deliberately-broken forwarding condition
 * (address-check bypass) must be caught by the checker (PanicError).
 *
 *   elag_soak [--programs=N] [--seed=N] [--plans=a,b,...]
 *             [--json=FILE] [--max-inst=N] [--max-cycles=N]
 *             [--checkpoint=FILE] [--quiet]
 *
 * With --checkpoint=FILE the soak is resumable: a tiny progress
 * checkpoint (programs completed + running totals + the run identity)
 * is written atomically after every program and flushed once more on
 * SIGINT/SIGTERM before exiting 130/143. Restarting with the same
 * flags and the same --checkpoint file fast-forwards the program
 * generator past the soaked prefix and continues; a checkpoint whose
 * identity does not match the current flags, or that fails its CRC,
 * is rejected with a warning and the soak starts clean. The file is
 * removed on clean completion.
 *
 * Exit codes: 0 all green, 1 differential mismatch or failed
 * self-check, 2 usage (including malformed numeric options), 70
 * unexpected invariant violation, 75 unexpected watchdog timeout,
 * 130/143 interrupted by SIGINT/SIGTERM (the partial JSON artifact
 * and the progress checkpoint are still flushed).
 */

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "sim/simulator.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "verify/fault_injector.hh"
#include "verify/invariant_checker.hh"
#include "verify/program_gen.hh"

using namespace elag;

namespace {

struct Options
{
    uint64_t programs = 200;
    uint64_t seed = 0x853c49e6748fea9bULL;
    std::vector<std::string> plans;
    std::string jsonPath;
    uint64_t maxInst = 20'000'000;
    uint64_t maxCycles = 100'000'000;
    std::string checkpointPath;
};

void
usage()
{
    std::fprintf(stderr,
                 "usage: elag_soak [--programs=N] [--seed=N]\n"
                 "                 [--plans=a,b,...] [--json=FILE]\n"
                 "                 [--max-inst=N] [--max-cycles=N]\n"
                 "                 [--checkpoint=FILE] [--quiet]\n");
}

/** Strict numeric option parse; malformed values are usage errors. */
bool
numericOption(const std::string &arg, const char *prefix,
              uint64_t &out)
{
    std::string text = arg.substr(std::strlen(prefix));
    if (!parseUint64(text, out)) {
        std::fprintf(stderr,
                     "elag_soak: invalid numeric value in '%s'\n",
                     arg.c_str());
        return false;
    }
    return true;
}

bool
parseArgs(int argc, char **argv, Options &opts)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *prefix) {
            return arg.substr(std::strlen(prefix));
        };
        if (startsWith(arg, "--programs=")) {
            if (!numericOption(arg, "--programs=", opts.programs))
                return false;
        } else if (startsWith(arg, "--seed=")) {
            if (!numericOption(arg, "--seed=", opts.seed))
                return false;
        } else if (startsWith(arg, "--plans=")) {
            opts.plans = splitString(value("--plans="), ',');
        } else if (startsWith(arg, "--json=")) {
            opts.jsonPath = value("--json=");
        } else if (startsWith(arg, "--max-inst=")) {
            if (!numericOption(arg, "--max-inst=", opts.maxInst))
                return false;
        } else if (startsWith(arg, "--max-cycles=")) {
            if (!numericOption(arg, "--max-cycles=", opts.maxCycles))
                return false;
        } else if (startsWith(arg, "--checkpoint=")) {
            opts.checkpointPath = value("--checkpoint=");
        } else if (arg == "--quiet") {
            setQuiet(true);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            return false;
        }
    }
    return true;
}

/**
 * SIGINT/SIGTERM request a graceful stop: finish the current
 * (program, plan) run, flush the partial JSON artifact, and exit
 * 128+signal instead of dying mid-write.
 */
volatile std::sig_atomic_t gStopSignal = 0;

extern "C" void
onStopSignal(int sig)
{
    gStopSignal = sig;
}

void
installStopHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onStopSignal;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

struct SoakTotals
{
    uint64_t runs = 0;
    uint64_t faultsFired = 0;
    uint64_t eventsChecked = 0;
    uint64_t timingMoved = 0; ///< faulted runs whose cycles changed
    uint64_t mismatches = 0;
};

/**
 * Self-check 1: a program that never halts must trip the cycle
 * watchdog with SimTimeoutError, not hang the harness.
 */
bool
watchdogSelfCheck()
{
    const char *infinite =
        "int main() {\n"
        "    int x = 0;\n"
        "    while (1) { x = x + 1; }\n"
        "    return x;\n"
        "}\n";
    auto prog = sim::compile(infinite);
    sim::Watchdog watchdog;
    watchdog.maxCycles = 100'000;
    try {
        sim::runTimed(prog, pipeline::MachineConfig::proposed(),
                      1'000'000'000, {}, watchdog);
    } catch (const sim::SimTimeoutError &) {
        return true;
    }
    std::fprintf(stderr,
                 "self-check FAILED: infinite program did not trip "
                 "the watchdog\n");
    return false;
}

/**
 * Self-check 2: with the address check bypassed (a deliberately
 * broken Section-3.2 implementation) the invariant checker must
 * panic — proving the checker is not vacuous.
 */
bool
checkerSelfCheck()
{
    const char *strided =
        "int A[256];\n"
        "int main() {\n"
        "    int sum = 0;\n"
        "    for (int i = 0; i < 256; i++) A[i] = i;\n"
        "    for (int i = 0; i < 256; i++) sum += A[i];\n"
        "    print(sum);\n"
        "    return 0;\n"
        "}\n";
    auto prog = sim::compile(strided);
    // Every load through the table, every verification forced to
    // fail, and the failed check bypassed: the first hit that would
    // have forwarded violates the addr-match condition.
    verify::FaultPlan plan = verify::planByName("bug-addr-bypass");
    plan.verifyFailRate = 1.0;
    verify::FaultInjector injector(plan, 1);
    pipeline::MachineConfig cfg = pipeline::MachineConfig::proposed();
    cfg.selection = pipeline::SelectionPolicy::AllPredict;
    cfg.faultInjector = &injector;
    verify::InvariantChecker checker;
    try {
        sim::runTimed(prog, cfg, 10'000'000, {&checker});
    } catch (const PanicError &) {
        return true;
    }
    std::fprintf(stderr,
                 "self-check FAILED: bypassed address check was not "
                 "caught by the invariant checker\n");
    return false;
}

/**
 * Persist soak progress: the run identity (so a checkpoint is never
 * silently applied to a differently-parameterised soak) plus the
 * completed-program count and running totals. Atomic via the ckpt
 * container, so SIGKILL mid-write leaves the previous snapshot.
 */
void
writeSoakCheckpoint(const Options &opts, const SoakTotals &totals,
                    uint64_t programs_completed)
{
    ckpt::CheckpointWriter w;
    ckpt::Writer &meta = w.section("META");
    meta.varint(opts.seed);
    meta.varint(opts.programs);
    meta.varint(opts.maxInst);
    meta.varint(opts.maxCycles);
    meta.varint(opts.plans.size());
    for (const std::string &plan : opts.plans)
        meta.str(plan);
    ckpt::Writer &prog = w.section("PROG");
    prog.varint(programs_completed);
    prog.varint(totals.runs);
    prog.varint(totals.faultsFired);
    prog.varint(totals.eventsChecked);
    prog.varint(totals.timingMoved);
    prog.varint(totals.mismatches);
    w.writeFile(opts.checkpointPath);
}

/**
 * Restore soak progress from @p opts.checkpointPath. Throws CkptError
 * (Mismatch when the checkpoint belongs to a soak with different
 * flags; Torn/Corrupt/VersionMismatch/Io per the container rules).
 */
uint64_t
loadSoakCheckpoint(const Options &opts, SoakTotals &totals)
{
    auto r = ckpt::CheckpointReader::fromFile(opts.checkpointPath);
    ckpt::Reader meta = r.section("META");
    bool same = meta.varint() == opts.seed &&
                meta.varint() == opts.programs &&
                meta.varint() == opts.maxInst &&
                meta.varint() == opts.maxCycles &&
                meta.varint() == opts.plans.size();
    if (same) {
        for (const std::string &plan : opts.plans)
            same = same && meta.str() == plan;
    }
    if (!same)
        throw ckpt::CkptError(
            ckpt::ErrorKind::Mismatch,
            "checkpoint belongs to a soak with different parameters");
    ckpt::Reader prog = r.section("PROG");
    uint64_t programs_completed = prog.varint();
    totals.runs = prog.varint();
    totals.faultsFired = prog.varint();
    totals.eventsChecked = prog.varint();
    totals.timingMoved = prog.varint();
    totals.mismatches = prog.varint();
    if (programs_completed > opts.programs)
        throw ckpt::CkptError(
            ckpt::ErrorKind::Mismatch,
            "checkpoint records more programs than this soak runs");
    return programs_completed;
}

/**
 * Write the JSON artifact (complete or partial). Partial artifacts
 * carry "interrupted": true plus the count actually soaked, so a
 * supervisor can tell a clean report from a salvaged one.
 */
void
writeJsonArtifact(const Options &opts, const SoakTotals &totals,
                  uint64_t programs_completed, int stop_signal)
{
    if (opts.jsonPath.empty())
        return;
    JsonWriter w;
    w.beginObject();
    w.field("programs", opts.programs);
    w.field("programs_completed", programs_completed);
    w.field("seed", opts.seed);
    w.key("plans").beginArray();
    for (const std::string &plan : opts.plans)
        w.value(plan);
    w.endArray();
    w.field("runs", totals.runs);
    w.field("faults_fired", totals.faultsFired);
    w.field("events_checked", totals.eventsChecked);
    w.field("timing_moved_runs", totals.timingMoved);
    w.field("mismatches", totals.mismatches);
    w.field("interrupted", stop_signal != 0);
    if (stop_signal)
        w.field("signal", static_cast<int64_t>(stop_signal));
    w.endObject();
    std::ofstream jf(opts.jsonPath);
    if (!jf)
        fatal("cannot write '%s'", opts.jsonPath.c_str());
    jf << w.str() << '\n';
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseArgs(argc, argv, opts)) {
        usage();
        return 2;
    }
    if (opts.plans.empty())
        opts.plans = verify::gracefulPlanNames();

    if (!watchdogSelfCheck() || !checkerSelfCheck())
        return 1;
    std::fprintf(stderr, "self-checks passed\n");
    installStopHandlers();

    struct NamedConfig
    {
        const char *name;
        pipeline::MachineConfig cfg;
    };
    const NamedConfig machines[] = {
        {"baseline", pipeline::MachineConfig::baseline()},
        {"proposed", pipeline::MachineConfig::proposed()},
    };

    sim::Watchdog watchdog;
    watchdog.maxCycles = opts.maxCycles;
    SoakTotals totals;
    verify::ProgramGen gen(opts.seed);
    uint64_t programs_completed = 0;

    // Resume an interrupted soak: restore totals and fast-forward the
    // program generator past the already-soaked prefix. An unusable
    // checkpoint (torn, corrupt, other flags) is never restored — the
    // soak starts clean and will overwrite it at the next snapshot.
    if (!opts.checkpointPath.empty() &&
        ckpt::fileExists(opts.checkpointPath)) {
        try {
            programs_completed = loadSoakCheckpoint(opts, totals);
            gen.skip(programs_completed);
            std::fprintf(
                stderr,
                "elag_soak: resumed from '%s' at %llu/%llu programs\n",
                opts.checkpointPath.c_str(),
                static_cast<unsigned long long>(programs_completed),
                static_cast<unsigned long long>(opts.programs));
        } catch (const ckpt::CkptError &e) {
            std::fprintf(stderr,
                         "elag_soak: unusable checkpoint '%s' (%s: "
                         "%s); starting clean\n",
                         opts.checkpointPath.c_str(),
                         ckpt::name(e.kind()), e.what());
            totals = SoakTotals{};
            programs_completed = 0;
        }
    }

    try {
        for (uint64_t p = programs_completed; p < opts.programs;
             ++p) {
            if (gStopSignal) {
                std::fprintf(
                    stderr,
                    "elag_soak: stop signal %d after %llu programs; "
                    "flushing partial artifact\n",
                    static_cast<int>(gStopSignal),
                    static_cast<unsigned long long>(p));
                if (!opts.checkpointPath.empty()) {
                    try {
                        writeSoakCheckpoint(opts, totals,
                                            programs_completed);
                    } catch (const ckpt::CkptError &e) {
                        std::fprintf(
                            stderr,
                            "elag_soak: checkpoint flush failed: %s\n",
                            e.what());
                    }
                }
                writeJsonArtifact(opts, totals, programs_completed,
                                  static_cast<int>(gStopSignal));
                return 128 + static_cast<int>(gStopSignal);
            }
            std::string src = gen.generate();
            auto prog = sim::compile(src);

            // Clean reference per machine, checker attached.
            sim::EmulationResult reference[2];
            uint64_t cleanCycles[2] = {};
            for (int m = 0; m < 2; ++m) {
                verify::InvariantChecker checker;
                auto clean =
                    sim::runTimed(prog, machines[m].cfg, opts.maxInst,
                                  {&checker}, watchdog);
                checker.finish(clean.pipe);
                totals.eventsChecked += checker.eventsChecked();
                ++totals.runs;
                reference[m] = clean.emulation;
                cleanCycles[m] = clean.pipe.cycles;
                if (!clean.emulation.halted) {
                    std::fprintf(stderr,
                                 "program %llu did not halt within "
                                 "the instruction cap\n",
                                 static_cast<unsigned long long>(p));
                    return 1;
                }
            }
            if (!sim::sameArchitecture(reference[0], reference[1])) {
                std::fprintf(stderr,
                             "program %llu: baseline and proposed "
                             "emulation diverged\n",
                             static_cast<unsigned long long>(p));
                return 1;
            }

            // Every fault plan on every machine: architectural
            // results must match the clean reference bit for bit.
            for (size_t pl = 0; pl < opts.plans.size(); ++pl) {
                verify::FaultPlan plan =
                    verify::planByName(opts.plans[pl]);
                for (int m = 0; m < 2; ++m) {
                    verify::FaultInjector injector(
                        plan, verify::mixSeed(opts.seed,
                                      p * 64 + pl * 2 +
                                          static_cast<uint64_t>(m)));
                    pipeline::MachineConfig cfg = machines[m].cfg;
                    cfg.faultInjector = &injector;
                    verify::InvariantChecker checker;
                    auto faulted = sim::runTimed(prog, cfg,
                                                 opts.maxInst,
                                                 {&checker}, watchdog);
                    checker.finish(faulted.pipe);
                    ++totals.runs;
                    totals.eventsChecked += checker.eventsChecked();
                    totals.faultsFired += injector.counts().total();
                    if (faulted.pipe.cycles != cleanCycles[m])
                        ++totals.timingMoved;
                    if (!sim::sameArchitecture(faulted.emulation,
                                          reference[m])) {
                        ++totals.mismatches;
                        std::fprintf(
                            stderr,
                            "MISMATCH program %llu plan %s machine "
                            "%s: architectural results differ\n",
                            static_cast<unsigned long long>(p),
                            plan.name.c_str(), machines[m].name);
                        std::fprintf(stderr, "source:\n%s",
                                     src.c_str());
                        return 1;
                    }
                }
            }
            ++programs_completed;
            // Snapshot after every program: the file is tiny next to
            // the plans x machines simulations it summarises, and a
            // SIGKILL then loses at most one program of soak time.
            if (!opts.checkpointPath.empty()) {
                try {
                    writeSoakCheckpoint(opts, totals,
                                        programs_completed);
                } catch (const ckpt::CkptError &e) {
                    std::fprintf(stderr,
                                 "elag_soak: checkpoint write failed "
                                 "(%s); continuing unprotected\n",
                                 e.what());
                }
            }
            if ((p + 1) % 50 == 0) {
                std::fprintf(
                    stderr, "  %llu/%llu programs soaked\n",
                    static_cast<unsigned long long>(p + 1),
                    static_cast<unsigned long long>(opts.programs));
            }
        }
    } catch (const sim::SimTimeoutError &e) {
        std::fprintf(stderr, "elag_soak: unexpected timeout: %s\n",
                     e.what());
        return 75;
    } catch (const PanicError &e) {
        std::fprintf(stderr,
                     "elag_soak: invariant violation under a "
                     "graceful fault plan: %s\n",
                     e.what());
        return 70;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "elag_soak: %s\n", e.what());
        return 1;
    }

    std::fprintf(stderr,
                 "soak OK: %llu programs x %zu plans, %llu runs, "
                 "%llu faults fired, %llu events checked, timing "
                 "moved in %llu faulted runs, 0 mismatches\n",
                 static_cast<unsigned long long>(opts.programs),
                 opts.plans.size(),
                 static_cast<unsigned long long>(totals.runs),
                 static_cast<unsigned long long>(totals.faultsFired),
                 static_cast<unsigned long long>(totals.eventsChecked),
                 static_cast<unsigned long long>(totals.timingMoved));

    writeJsonArtifact(opts, totals, programs_completed, 0);
    if (!opts.checkpointPath.empty())
        std::remove(opts.checkpointPath.c_str());
    return 0;
}
