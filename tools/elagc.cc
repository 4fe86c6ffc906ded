/**
 * @file
 * elagc — command-line driver for the elag toolchain.
 *
 * Compile a mini-C source file, optionally disassemble it, run it
 * functionally, profile it, or time it on a configurable machine.
 *
 *   elagc prog.c                      compile + run, print output
 *   elagc --disasm prog.c             dump classified assembly
 *   elagc --stats prog.c              timing stats on the proposed machine
 *   elagc --machine=baseline prog.c   pick the machine model
 *   elagc --profile prog.c            address-profile report per load
 *   elagc --no-opt prog.c             disable the optimizer
 *   elagc --no-classify prog.c        leave every load ld_n
 *   elagc --table=N --regs=N          hardware sizing
 *   elagc --selection=compiler|ev|all-predict|all-early
 *
 * Observability:
 *   elagc --json-stats=FILE prog.c    timed run, JSON stats to FILE ('-'
 *                                     for stdout)
 *   elagc --load-report prog.c        per-PC load telemetry vs. the
 *                                     compiler's classification
 *   elagc --trace=CH[,CH...] prog.c   enable trace channels (pipeline,
 *                                     predict, raddr, cache, or 'all');
 *                                     ELAG_TRACE env works too
 *   elagc --trace-out=FILE prog.c     span trace (Chrome trace-event
 *                                     JSON; ELAG_TRACE_OUT env too)
 *   elagc --quiet                     silence warn()/inform() output
 *
 * Robustness harness:
 *   elagc --verify-invariants prog.c  attach the lockstep invariant
 *                                     checker to the timed run
 *   elagc --inject=PLAN prog.c        perturb the speculation hardware
 *                                     with a named fault plan
 *   elagc --seed=N                    fault-injection seed
 *   elagc --max-cycles=N              watchdog: abort past cycle N
 *
 * Crash-safe checkpointing (stats runs):
 *   elagc --checkpoint-dir=D prog.c   periodic durable snapshots into
 *                                     D, auto-resuming from the run's
 *                                     own snapshot when one exists
 *   elagc --checkpoint-every=N        snapshot every N retired
 *                                     instructions (default 5M)
 *   elagc --resume-from=FILE prog.c   resume from a specific snapshot;
 *                                     a torn/corrupt/mismatched file
 *                                     is a typed error (exit 65)
 *   On SIGTERM/SIGINT a checkpointed run flushes a final snapshot and
 *   exits 143/130, so an interrupted run is resumable. Resumed runs
 *   produce byte-identical --json-stats to uninterrupted ones.
 *
 * Exit codes: 0 success (or the program's exit value), 1 user error
 * (FatalError), 2 usage (an unknown --machine or --selection name
 * included, rejected before compiling), 3 instruction cap reached,
 * 65 unusable
 * checkpoint under --resume-from, 70 guest fault (GuestTrapError:
 * the simulated program divided by zero, jumped to a wild PC,
 * accessed memory out of range, or hit a bad opcode) or invariant
 * violation (PanicError), 75 watchdog timeout (SimTimeoutError),
 * 130/143 checkpointed run interrupted by SIGINT/SIGTERM.
 */

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "ckpt/checkpoint.hh"
#include "isa/disasm.hh"
#include "obs/span.hh"
#include "sim/simulator.hh"
#include "sim/stats_run.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/trace.hh"
#include "workloads/synthetic/scenario.hh"
#include "workloads/workloads.hh"

using namespace elag;

namespace {

struct Options
{
    std::string file;
    std::string workload; ///< registered workload name, not a file
    bool listWorkloads = false;
    bool disasm = false;
    bool stats = false;
    bool profile = false;
    bool loadReport = false;
    bool quiet = false;
    bool noOpt = false;
    bool noClassify = false;
    std::string machine = "proposed";
    std::string selection;
    std::string jsonStats; ///< output path, '-' for stdout
    std::string traceSpec;
    std::string traceOut;
    uint32_t table = 0;
    uint32_t regs = 0;
    uint64_t maxInst = 500'000'000;
    // Robustness harness.
    bool verifyInvariants = false;
    std::string inject; ///< fault plan name, empty for none
    uint64_t seed = sim::kDefaultInjectSeed;
    uint64_t maxCycles = 0; ///< watchdog; 0 = unlimited
    // Crash-safe checkpointing.
    std::string checkpointDir;  ///< snapshot dir; empty = disabled
    uint64_t checkpointEvery = 0; ///< retires between snapshots
    std::string resumeFrom;     ///< explicit snapshot to resume from
    /** Built from machine/selection/table/regs by parseArgs. */
    pipeline::MachineConfig machineConfig;
};

/** Last delivery of SIGINT/SIGTERM to a checkpointed run. */
volatile std::sig_atomic_t signalSeen = 0;

extern "C" void
onSignal(int sig)
{
    signalSeen = sig;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: elagc [--disasm] [--stats] [--profile]\n"
                 "             [--json-stats=FILE|-] [--load-report]\n"
                 "             [--trace=CH[,CH...]] "
                 "[--trace-out=FILE] [--quiet]\n"
                 "             [--no-opt] [--no-classify]\n"
                 "             [--machine=baseline|proposed]\n"
                 "             [--selection=compiler|ev|all-predict|"
                 "all-early]\n"
                 "             [--table=N] [--regs=N] [--max-inst=N]\n"
                 "             [--verify-invariants] [--inject=PLAN]\n"
                 "             [--seed=N] [--max-cycles=N]\n"
                 "             [--checkpoint-dir=D] "
                 "[--checkpoint-every=N]\n"
                 "             [--resume-from=FILE]\n"
                 "             [--workload=NAME] [--list-workloads]"
                 " [file.c]\n");
}

/**
 * Strict numeric option parsing: "--seed=12abc", "--table=", and
 * out-of-range values are usage errors (exit 2), never silently
 * truncated or misread.
 */
template <typename T>
bool
numericOption(const std::string &arg, const char *prefix, T &out)
{
    std::string text = arg.substr(std::strlen(prefix));
    bool ok;
    if constexpr (sizeof(T) == sizeof(uint32_t))
        ok = parseUint32(text, out);
    else
        ok = parseUint64(text, out);
    if (!ok) {
        std::fprintf(stderr,
                     "elagc: invalid numeric value in '%s'\n",
                     arg.c_str());
    }
    return ok;
}

bool
parseArgs(int argc, char **argv, Options &opts)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *prefix) {
            return arg.substr(std::strlen(prefix));
        };
        if (arg == "--disasm") {
            opts.disasm = true;
        } else if (arg == "--stats") {
            opts.stats = true;
        } else if (arg == "--profile") {
            opts.profile = true;
        } else if (arg == "--load-report") {
            opts.loadReport = true;
        } else if (arg == "--quiet") {
            opts.quiet = true;
        } else if (startsWith(arg, "--json-stats=")) {
            opts.jsonStats = value("--json-stats=");
        } else if (startsWith(arg, "--trace=")) {
            opts.traceSpec = value("--trace=");
        } else if (startsWith(arg, "--trace-out=")) {
            opts.traceOut = value("--trace-out=");
        } else if (arg == "--no-opt") {
            opts.noOpt = true;
        } else if (arg == "--no-classify") {
            opts.noClassify = true;
        } else if (startsWith(arg, "--machine=")) {
            opts.machine = value("--machine=");
        } else if (startsWith(arg, "--selection=")) {
            opts.selection = value("--selection=");
        } else if (startsWith(arg, "--table=")) {
            if (!numericOption(arg, "--table=", opts.table))
                return false;
        } else if (startsWith(arg, "--regs=")) {
            if (!numericOption(arg, "--regs=", opts.regs))
                return false;
        } else if (startsWith(arg, "--max-inst=")) {
            if (!numericOption(arg, "--max-inst=", opts.maxInst))
                return false;
        } else if (arg == "--verify-invariants") {
            opts.verifyInvariants = true;
        } else if (startsWith(arg, "--inject=")) {
            opts.inject = value("--inject=");
        } else if (startsWith(arg, "--seed=")) {
            if (!numericOption(arg, "--seed=", opts.seed))
                return false;
        } else if (startsWith(arg, "--max-cycles=")) {
            if (!numericOption(arg, "--max-cycles=", opts.maxCycles))
                return false;
        } else if (startsWith(arg, "--checkpoint-dir=")) {
            opts.checkpointDir = value("--checkpoint-dir=");
        } else if (startsWith(arg, "--checkpoint-every=")) {
            if (!numericOption(arg, "--checkpoint-every=",
                               opts.checkpointEvery))
                return false;
        } else if (startsWith(arg, "--resume-from=")) {
            opts.resumeFrom = value("--resume-from=");
        } else if (startsWith(arg, "--workload=")) {
            opts.workload = value("--workload=");
        } else if (arg == "--list-workloads") {
            opts.listWorkloads = true;
        } else if (!startsWith(arg, "--")) {
            opts.file = arg;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            return false;
        }
    }
    if (opts.listWorkloads)
        return true;
    std::string error;
    if (!sim::parseMachine(opts.machine, opts.selection, opts.table,
                           opts.regs, opts.machineConfig, error)) {
        std::fprintf(stderr, "elagc: %s\n", error.c_str());
        return false;
    }
    if (!opts.file.empty() && !opts.workload.empty()) {
        std::fprintf(stderr,
                     "elagc: --workload= and a source file are "
                     "mutually exclusive\n");
        return false;
    }
    return !opts.file.empty() || !opts.workload.empty();
}

void
listWorkloads()
{
    std::printf("imitation workloads:\n");
    for (const workloads::Workload *w : workloads::allWorkloads()) {
        std::printf("  %-10s [%s] %s\n", w->name.c_str(),
                    w->suite == workloads::Suite::SpecInt ? "spec"
                                                          : "media",
                    w->description.c_str());
    }
    std::printf("\nsynthetic kernel families (elag_workgen):\n");
    for (const auto &info : workloads::synthetic::kernelFamilies())
        std::printf("  %-10s %s\n", info.name, info.description);
}

void
printSpecCounters(FILE *out, const char *label,
                  const pipeline::SpecCounters &c)
{
    std::fprintf(out,
                 "  %-10s executed %-10llu speculated %-10llu "
                 "forwarded %llu\n",
                 label, static_cast<unsigned long long>(c.executed),
                 static_cast<unsigned long long>(c.speculated),
                 static_cast<unsigned long long>(c.forwarded));
}

void
printStatsText(FILE *out, const sim::TimedResult &base,
               const sim::TimedResult &timed)
{
    const auto &p = timed.pipe;
    std::fprintf(out, "\ninstructions  %llu\n",
                 static_cast<unsigned long long>(p.instructions));
    std::fprintf(out,
                 "cycles        %llu (baseline %llu, speedup %.3f)\n",
                 static_cast<unsigned long long>(p.cycles),
                 static_cast<unsigned long long>(base.pipe.cycles),
                 sim::speedup(base, timed));
    std::fprintf(out, "IPC           %.3f\n", p.ipc());
    std::fprintf(out, "loads/stores  %llu / %llu\n",
                 static_cast<unsigned long long>(p.loads),
                 static_cast<unsigned long long>(p.stores));
    std::fprintf(out, "branches      %llu (%llu mispredicted)\n",
                 static_cast<unsigned long long>(p.branches),
                 static_cast<unsigned long long>(p.mispredicts));
    std::fprintf(out,
                 "cache misses  I %llu / D %llu, extra "
                 "speculative accesses %llu\n",
                 static_cast<unsigned long long>(p.icacheMisses),
                 static_cast<unsigned long long>(p.dcacheMisses),
                 static_cast<unsigned long long>(p.extraAccesses));
    printSpecCounters(out, "normal", p.normal);
    printSpecCounters(out, "ld_p", p.predict);
    printSpecCounters(out, "ld_e", p.earlyCalc);
}

/**
 * When --json-stats is active, a failed run still produces a JSON
 * document — an "error" block instead of stats — so harnesses
 * consuming the file see the failure structurally.
 */
void
writeErrorDoc(const Options &opts, const char *type,
              const char *message, int exit_code,
              const sim::GuestTrapError *trap = nullptr)
{
    if (opts.jsonStats.empty())
        return;
    JsonWriter w;
    w.beginObject();
    w.key("error").beginObject();
    w.field("type", type);
    w.field("message", message);
    w.field("exit_code", exit_code);
    if (trap) {
        // Typed guest-fault detail: which trap and where, so
        // harnesses can triage guest bugs without parsing the
        // human-readable message.
        w.field("trap", sim::name(trap->kind()));
        w.field("pc", trap->trapPc());
    }
    w.endObject();
    w.endObject();
    std::string doc = w.str();
    if (opts.jsonStats == "-") {
        std::fwrite(doc.data(), 1, doc.size(), stdout);
        std::fputc('\n', stdout);
    } else {
        std::ofstream jf(opts.jsonStats);
        if (jf)
            jf << doc << '\n';
    }
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

    if (opts.quiet)
        setQuiet(true);
    if (!opts.traceSpec.empty())
        trace::enableSpec(opts.traceSpec);
    obs::SpanTracer::process().setProcessLabel("elagc");
    if (!opts.traceOut.empty())
        obs::SpanTracer::process().enable(opts.traceOut);
    obs::SpanTracer::process().applyEnvironment();
    // Flush collected spans on every exit path, error exits included.
    struct TraceFlusher
    {
        ~TraceFlusher() { obs::SpanTracer::process().flush(); }
    } traceFlusher;

    if (opts.listWorkloads) {
        listWorkloads();
        return 0;
    }

    // When the JSON document goes to stdout, keep stdout pure JSON
    // and move all human-readable output to stderr.
    FILE *text = opts.jsonStats == "-" ? stderr : stdout;

    std::string source;
    if (!opts.workload.empty()) {
        const workloads::Workload *w =
            workloads::findWorkload(opts.workload);
        if (!w) {
            // Unknown names are usage errors, not fatal(): the caller
            // mistyped an enumerable name, so hint and exit 2.
            std::string hint =
                workloads::suggestWorkload(opts.workload);
            std::fprintf(stderr, "elagc: unknown workload '%s'%s%s\n",
                         opts.workload.c_str(),
                         hint.empty() ? "" : "; did you mean '",
                         hint.empty() ? "" : (hint + "'?").c_str());
            std::fprintf(stderr,
                         "elagc: --list-workloads enumerates valid "
                         "names\n");
            return 2;
        }
        source = w->source;
        opts.file = "workload:" + opts.workload;
    } else {
        std::ifstream in(opts.file);
        if (!in) {
            std::fprintf(stderr, "elagc: cannot open '%s'\n",
                         opts.file.c_str());
            return 1;
        }
        std::stringstream buffer;
        buffer << in.rdbuf();
        source = buffer.str();
    }

    try {
        sim::CompileOptions copts;
        if (opts.noOpt)
            copts.opt = opt::OptConfig::noneEnabled();
        copts.runClassifier = !opts.noClassify;

        sim::CompiledProgram prog = sim::compile(source, copts);
        std::fprintf(text,
                     "compiled: %zu instructions, %d static loads "
                     "(ld_n %d, ld_p %d, ld_e %d)\n",
                     prog.code.program.code.size(),
                     prog.classStats.total(),
                     prog.classStats.numNormal,
                     prog.classStats.numPredict,
                     prog.classStats.numEarlyCalc);

        if (opts.disasm) {
            std::printf("%s",
                        isa::disassemble(prog.code.program).c_str());
            return 0;
        }

        if (opts.profile) {
            auto profile = sim::runProfile(prog, opts.maxInst);
            std::printf("\nper-load address profile "
                        "(individual operation prediction):\n");
            std::printf("%8s %12s %12s %8s\n", "load", "executions",
                        "correct", "rate");
            for (const auto &kv : profile.profile) {
                std::printf(
                    "%8d %12llu %12llu %7.1f%%\n", kv.first,
                    static_cast<unsigned long long>(
                        kv.second.executions),
                    static_cast<unsigned long long>(kv.second.correct),
                    100.0 * kv.second.rate());
            }
            return 0;
        }

        if (opts.stats || opts.loadReport || !opts.jsonStats.empty() ||
            opts.verifyInvariants || !opts.inject.empty() ||
            opts.maxCycles > 0) {
            sim::StatsJob job;
            job.machine = opts.machineConfig;
            job.maxInstructions = opts.maxInst;
            job.watchdog.maxCycles = opts.maxCycles;
            job.verifyInvariants = opts.verifyInvariants;
            job.inject = opts.inject;
            job.seed = opts.seed;
            job.resumeFrom = opts.resumeFrom;
            if (!opts.checkpointDir.empty() || !opts.resumeFrom.empty() ||
                opts.checkpointEvery > 0) {
                std::signal(SIGINT, onSignal);
                std::signal(SIGTERM, onSignal);
                sim::CkptPolicy &policy = job.checkpoint.emplace();
                policy.everyRetires = opts.checkpointEvery;
                policy.interrupted = [] { return signalSeen != 0; };
                // Auto-resume snapshots are named by run identity, so
                // re-running the identical command finds its own file
                // and nothing else's.
                if (!opts.checkpointDir.empty()) {
                    policy.path = formatString(
                        "%s/elagc-%016llx.ckpt",
                        opts.checkpointDir.c_str(),
                        static_cast<unsigned long long>(sim::hashRunKey(
                            sim::makeRunKey(prog, job))));
                }
            }

            sim::StatsOutcome out;
            try {
                out = sim::runStats(prog, job);
            } catch (const ckpt::CkptError &e) {
                // Explicit resume: rejection is fatal and typed, never
                // silently restored past.
                std::fprintf(stderr,
                             "elagc: cannot resume from '%s' (%s): %s\n",
                             opts.resumeFrom.c_str(),
                             ckpt::name(e.kind()), e.what());
                writeErrorDoc(opts, "bad_checkpoint", e.what(), 65);
                return 65;
            }
            if (out.interrupted) {
                int sig = static_cast<int>(signalSeen);
                const std::string &path = job.checkpoint->path;
                std::fprintf(
                    stderr,
                    "elagc: interrupted by signal %d after %u "
                    "snapshot(s); resume with the same command%s\n",
                    sig, out.snapshots,
                    path.empty() ? "" : (" or --resume-from=" + path)
                                            .c_str());
                return sig == SIGINT ? 130 : 143;
            }
            if (opts.verifyInvariants) {
                std::fprintf(
                    text,
                    "invariants: %llu events checked, 0 violations\n",
                    static_cast<unsigned long long>(out.eventsChecked));
            }
            if (!opts.inject.empty()) {
                std::fprintf(
                    text,
                    "faults: plan %s seed %llu fired %llu times\n",
                    opts.inject.c_str(),
                    static_cast<unsigned long long>(opts.seed),
                    static_cast<unsigned long long>(out.faultsFired));
            }

            if (opts.stats)
                printStatsText(text, out.base, out.timed);
            if (opts.loadReport) {
                std::fprintf(
                    text, "\nper-PC load telemetry (%s machine):\n%s",
                    opts.machine.c_str(),
                    sim::loadReportText(prog, out.telemetry).c_str());
            }
            if (!opts.jsonStats.empty()) {
                std::string doc = sim::statsReportJson(
                    opts.file, opts.machine, opts.selection, prog,
                    out.base, out.timed, out.telemetry);
                if (opts.jsonStats == "-") {
                    std::fwrite(doc.data(), 1, doc.size(), stdout);
                    std::fputc('\n', stdout);
                } else {
                    std::ofstream jf(opts.jsonStats);
                    if (!jf)
                        fatal("cannot write '%s'",
                              opts.jsonStats.c_str());
                    jf << doc << '\n';
                }
            }
            return 0;
        }

        // Default: functional run.
        sim::Emulator emu(prog.code.program);
        auto result = emu.run(opts.maxInst);
        for (int32_t v : result.output)
            std::printf("%d\n", v);
        if (!result.halted) {
            std::fprintf(stderr,
                         "elagc: instruction cap reached\n");
            return 3;
        }
        return result.exitValue;
    } catch (const sim::SimTimeoutError &e) {
        std::fprintf(stderr, "elagc: %s\n", e.what());
        writeErrorDoc(opts, "timeout", e.what(), 75);
        return 75;
    } catch (const sim::GuestTrapError &e) {
        // The *guest* program faulted (divide by zero, wild PC, bad
        // effective address, undecodable opcode) — the simulator
        // itself is healthy. EX_SOFTWARE, with a typed error block.
        std::fprintf(stderr, "elagc: guest trap (%s): %s\n",
                     sim::name(e.kind()), e.what());
        writeErrorDoc(opts, "guest_trap", e.what(), 70, &e);
        return 70;
    } catch (const PanicError &e) {
        std::fprintf(stderr, "elagc: %s\n", e.what());
        writeErrorDoc(opts, "panic", e.what(), 70);
        return 70;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "elagc: %s\n", e.what());
        writeErrorDoc(opts, "fatal", e.what(), 1);
        return 1;
    }
}
