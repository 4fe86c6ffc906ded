/**
 * @file
 * perfbench: the repository benchmark's measuring program.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             --expected FILE --elagd BINARY --run-dir DIR
 *   perfbench --describe --workload W --seed N --seconds S
 *   perfbench --capacity --workload W --seed N --seconds S
 *             --elagd BINARY --run-dir DIR
 *   perfbench --print-expected
 *
 * The first form measures one workload and prints the result line
 * (the last line of stdout; progress goes to stderr). --trace 0
 * prints the end-to-end metrics, --trace 1 runs the per-layer probes
 * instead. --describe prints the seeded inputs as canonical text;
 * --capacity serves the workload's schedule closed-loop and prints
 * the rate elagd sustains;
 * --print-expected prints the expected-values table the output
 * checks read. perfbench/run.py builds this program and runs it.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness/inputs.hh"
#include "harness/layers.hh"
#include "harness/measure.hh"
#include "harness/serve_session.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "sim/decoded.hh"
#include "sim/emulator.hh"
#include "sim/simulator.hh"
#include "support/strings.hh"
#include "workloads/synthetic/generator.hh"

using namespace perfbench;
using namespace elag;

namespace {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string expected;
    std::string elagd;
    std::string runDir = ".";
    bool describe = false;
    bool printExpected = false;
    bool capacity = false;
};

/** Least set-ups per run; set-up time is their median. */
constexpr size_t kSetups = 11;

/**
 * Renders of each batch op's stats document per pass. One render
 * takes microseconds, so a pass keeps the median of several.
 */
constexpr size_t kRenderReps = 15;

/** Connections the open-loop generator uses. */
constexpr unsigned kConnections = 2;

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--describe") {
            o.describe = true;
            continue;
        }
        if (arg == "--print-expected") {
            o.printExpected = true;
            continue;
        }
        if (arg == "--capacity") {
            o.capacity = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        std::string v = argv[++i];
        uint64_t n = 0;
        if (arg == "--workload") {
            o.workload = v;
        } else if (arg == "--seed") {
            if (!parseUint64(v, o.seed))
                usage("bad --seed " + v);
        } else if (arg == "--seconds") {
            if (!parseUint64(v, n) || n == 0)
                usage("bad --seconds " + v);
            o.seconds = static_cast<double>(n);
        } else if (arg == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (arg == "--expected") {
            o.expected = v;
        } else if (arg == "--elagd") {
            o.elagd = v;
        } else if (arg == "--run-dir") {
            o.runDir = v;
        } else {
            usage("unknown argument " + arg);
        }
    }
    return o;
}

std::string
expectedKey(const Inputs &in, const Op &op)
{
    return in.workload + " " + in.programs[op.program].label + " " +
           in.machines[op.machine].label;
}

/** Set the program up: generate, compile, predecode. */
std::vector<sim::CompiledProgram>
setUp(const Inputs &in, Result &result)
{
    for (const auto &spec : in.specs) {
        // Generated programs are regenerated here, so scenario
        // generation is part of set-up; it must be deterministic.
        auto gen = workloads::synthetic::generateScenario(spec);
        bool known = false;
        for (const Program &p : in.programs)
            known = known || p.source == gen.source;
        result.op(known);
    }
    std::vector<sim::CompiledProgram> programs;
    for (const Program &p : in.programs) {
        programs.push_back(sim::compile(p.source));
        sim::Emulator predecode(programs.back().code.program);
    }
    return programs;
}

/** Check one simulated run against the expected values. */
bool
runMatches(const Inputs &in, const Op &op, const sim::TimedResult &r,
           const std::map<std::string, ExpectedRun> &expected)
{
    auto it = expected.find(expectedKey(in, op));
    if (it == expected.end())
        return false;
    const Program &p = in.programs[op.program];
    bool outputOk =
        p.expectedOutput.empty() || r.emulation.output == p.expectedOutput;
    return r.emulation.halted && outputOk &&
           r.pipe.cycles == it->second.cycles &&
           r.pipe.instructions == it->second.instructions &&
           r.emulation.instructions == it->second.instructions;
}

/** CPU seconds of referenceWorkSeconds() at the reference speed. */
constexpr double kReferenceWorkS = 1.3e-3;

/**
 * The factor that takes this run's host times to the reference speed:
 * kReferenceWorkS over the median of the reference work's @p samples,
 * taken beside the measured work all through the run. The host's speed
 * drifts by tens of percent over minutes, and the reference work
 * drifts with it, so scaled times of two runs compare the program, not
 * the moments they ran at.
 */
double
hostScale(const std::vector<double> &samples)
{
    if (samples.empty())
        throw std::runtime_error("the reference work never ran");
    const double referenceS = median(samples);
    std::fprintf(stderr, "perfbench: reference work %.4f ms, scale %.4f\n",
                 referenceS * 1e3, kReferenceWorkS / referenceS);
    return kReferenceWorkS / referenceS;
}

/**
 * Most worker threads a batch run uses; fewer when the host has fewer
 * processors, so no two workers share one.
 */
constexpr unsigned kMaxWorkers = 4;

/** The samples one batch worker took: per op, one value per pass. */
struct BatchSamples
{
    std::vector<std::vector<double>> wall, cpu, render;
    /** The reference work's CPU seconds, once after every op. */
    std::vector<double> reference;
    uint64_t attempted = 0;
    uint64_t failed = 0;
};

/**
 * One batch worker: run passes @p first, first + step, ... until
 * @p seconds have gone by since @p start; the first pass always runs
 * whole. Each op of a pass is one sim::runTimed call in this thread,
 * checked against the expected values, then its answer is rendered.
 */
BatchSamples
batchWorker(const Inputs &in,
            const std::vector<sim::CompiledProgram> &programs,
            const std::map<std::string, ExpectedRun> &expected,
            Clock::time_point start, double seconds, uint64_t first,
            uint64_t step)
{
    const size_t n = in.ops.size();
    BatchSamples out;
    out.wall.resize(n);
    out.cpu.resize(n);
    out.render.resize(n);
    bool done = false;
    for (uint64_t pass = first; !done; pass += step) {
        std::vector<sim::TimedResult> runs(n);
        std::vector<bool> ran(n, false);
        for (size_t i : in.passOrder(pass)) {
            // Every worker runs at least one whole pass; after that
            // the run stops at the first op past its time.
            done = pass != first &&
                   perfbench::seconds(start, Clock::now()) >= seconds;
            if (done)
                break;
            const Op &op = in.ops[i];
            pipeline::MachineConfig cfg = in.machines[op.machine].config();
            auto w0 = Clock::now();
            double c0 = threadCpuSeconds();
            runs[i] = sim::runTimed(programs[op.program], cfg, op.maxInst);
            out.cpu[i].push_back(threadCpuSeconds() - c0);
            out.wall[i].push_back(perfbench::seconds(w0, Clock::now()));
            ran[i] = true;
            ++out.attempted;
            out.failed += !runMatches(in, op, runs[i], expected);
            out.reference.push_back(referenceWorkSeconds());
        }
        // Answering from a stored result: render each run's stats
        // document against its program's baseline run.
        for (size_t i : in.passOrder(pass)) {
            const Op &op = in.ops[i];
            const MachineSpec &m = in.machines[op.machine];
            size_t base = i;
            for (size_t j = 0; j < n; ++j) {
                if (in.ops[j].program == op.program &&
                    in.machines[in.ops[j].machine].label == "baseline")
                    base = j;
            }
            if (!ran[i] || !ran[base])
                continue;
            pipeline::LoadTelemetry none;
            std::vector<double> reps;
            for (size_t rep = 0; rep < kRenderReps; ++rep) {
                auto t0 = Clock::now();
                sim::statsReportJson(in.programs[op.program].label,
                                     m.machine, m.selection,
                                     programs[op.program], runs[base],
                                     runs[i], none);
                reps.push_back(perfbench::seconds(t0, Clock::now()));
            }
            out.render[i].push_back(median(reps));
        }
    }
    return out;
}

/**
 * paper-suite and table-sweep, untraced: timed runs, each in one
 * thread. Set-up runs kSetups times first. Then one worker per
 * processor (at most kMaxWorkers) runs passes until the run's time is
 * used up, and an op's time is the median of its samples over all
 * workers and passes. The host's processors slow down and speed up
 * independently of one another by tens of percent, so samples taken
 * on all of them through the whole run give a steadier figure than
 * one thread does. Every sample is one op in one thread, so the sums
 * are what a pass costs one thread while the other workers run the
 * same kind of work beside it.
 */
void
runBatch(const Inputs &in, const Options &opts, Result &result)
{
    auto expected = readExpected(opts.expected);
    std::vector<double> setups;
    std::vector<sim::CompiledProgram> programs;
    for (size_t i = 0; i < kSetups; ++i) {
        sim::DecodedStream::clearCache();
        auto t0 = Clock::now();
        programs = setUp(in, result);
        setups.push_back(seconds(t0, Clock::now()));
    }

    const unsigned workers = std::clamp(
        std::thread::hardware_concurrency(), 1u, kMaxWorkers);
    std::vector<BatchSamples> samples(workers);
    std::vector<std::exception_ptr> errors(workers);
    std::vector<std::thread> threads;
    const auto start = Clock::now();
    for (unsigned w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
            try {
                samples[w] = batchWorker(in, programs, expected, start,
                                         opts.seconds, w, workers);
            } catch (...) {
                errors[w] = std::current_exception();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }

    const size_t n = in.ops.size();
    std::vector<std::vector<double>> wall(n), cpu(n), render(n);
    std::vector<double> reference;
    for (const BatchSamples &s : samples) {
        result.attempted += s.attempted;
        result.failed += s.failed;
        reference.insert(reference.end(), s.reference.begin(),
                         s.reference.end());
        for (size_t i = 0; i < n; ++i) {
            wall[i].insert(wall[i].end(), s.wall[i].begin(),
                           s.wall[i].end());
            cpu[i].insert(cpu[i].end(), s.cpu[i].begin(), s.cpu[i].end());
            render[i].insert(render[i].end(), s.render[i].begin(),
                             s.render[i].end());
        }
    }

    // An op's latency is simulating it plus rendering its answer.
    double wallS = 0, cpuS = 0, totalInsts = 0;
    std::vector<double> latencies, renders;
    for (size_t i = 0; i < n; ++i) {
        wallS += median(wall[i]);
        cpuS += median(cpu[i]);
        auto it = expected.find(expectedKey(in, in.ops[i]));
        if (it != expected.end())
            totalInsts += static_cast<double>(it->second.instructions);
        renders.push_back(median(render[i]));
        latencies.push_back(median(wall[i]) + renders.back());
    }
    const double scale = hostScale(reference);
    std::fprintf(stderr, "perfbench: unscaled cpu_s %.4f wall_s %.4f\n",
                 cpuS, wallS);
    result.set("setup_s", median(setups) * scale, "s");
    result.set("wall_s", wallS * scale, "s");
    result.set("cpu_s", cpuS * scale, "s");
    result.set("sim_minst_per_cpu_s", totalInsts / (cpuS * scale) / 1e6,
               "Minst/s");
    result.set("peak_rss_mb", peakRssMb(), "MB");
    result.set("latency_p50_ms", quantile(latencies, 0.5) * scale * 1e3,
               "ms");
    result.set("hit_latency_p50_ms", quantile(renders, 0.5) * scale * 1e3,
               "ms");
    result.set("miss_latency_p50_ms",
               quantile(latencies, 0.5) * scale * 1e3, "ms");
}

/** What one served session measured. */
struct Session
{
    std::vector<CallRecord> records;
    ServerCounts before, after;
    double cpuS = 0;
    double peakRssMb = 0;
    /**
     * Instructions elagd simulated for answered RunCache misses; a
     * hit is answered from a stored result and simulates nothing.
     */
    double simulatedInsts = 0;
    std::vector<double> setups;
};

/**
 * Start elagd (kSetups times when @p setups is set, keeping the last
 * daemon), send the warm-up requests, replay the schedule open-loop,
 * stop the daemon, and check every answer against the in-process
 * reference.
 */
Session
serveSession(const Inputs &in, const Options &opts, bool setups,
             Result &result)
{
    Session s;
    const std::string socket =
        opts.runDir + "/elagd-" + std::to_string(getpid()) + ".sock";
    const std::string log = opts.runDir + "/elagd.log";
    std::unique_ptr<Elagd> daemon;
    std::vector<std::string> warmHashes;
    for (size_t i = 0; i < (setups ? kSetups : 1); ++i) {
        if (daemon)
            result.op(daemon->stop());
        daemon.reset();
        auto t0 = Clock::now();
        daemon = std::make_unique<Elagd>(opts.elagd, socket, log);
        auto client = serve::Client::connectTo(socket);
        warmHashes.clear();
        for (const serve::Request &r : in.warmup) {
            serve::Response resp = client.call(r);
            warmHashes.push_back(
                resp.ok ? workloads::synthetic::sourceHash(resp.result)
                        : "");
        }
        s.setups.push_back(seconds(t0, Clock::now()));
    }

    s.before = parseStats(daemon->control("stats"));
    double cpu0 = processCpuSeconds(daemon->pid());
    s.records = runOpenLoop(socket, in.schedule, kConnections);
    s.cpuS = processCpuSeconds(daemon->pid()) - cpu0;
    s.after = parseStats(daemon->control("stats"));
    // The metrics verb must answer too; its text is not used further.
    result.op(!daemon->control("metrics").empty());
    s.peakRssMb = peakRssMb(daemon->pid());
    result.op(daemon->stop());
    // The server's count of executed requests must match the
    // generator's count of answers that were not refusals.
    uint64_t executed = 0;
    for (const CallRecord &rec : s.records) {
        executed += rec.errorType != "overloaded" &&
                    rec.errorType != "shutting_down" &&
                    rec.errorType != "transport";
    }
    result.op(s.after.completed - s.before.completed == executed);

    // Output check, after the daemon is gone so references do not
    // compete with it for the processor.
    std::map<std::string, Reference> refs;
    auto reference = [&](const serve::Request &r) -> const Reference & {
        std::string key = requestKey(r);
        auto it = refs.find(key);
        if (it == refs.end())
            it = refs.emplace(key, referenceFor(r)).first;
        return it->second;
    };
    for (size_t i = 0; i < in.warmup.size(); ++i) {
        result.op(warmHashes[i] == workloads::synthetic::sourceHash(
                                       reference(in.warmup[i]).doc));
    }
    for (size_t i = 0; i < s.records.size(); ++i) {
        const serve::Request &r = in.schedule[i].request;
        const CallRecord &rec = s.records[i];
        bool ok = rec.ok;
        if (ok && r.verb == "simulate") {
            const Reference &ref = reference(r);
            ok = rec.resultHash ==
                 workloads::synthetic::sourceHash(ref.doc);
            if (in.schedule[i].kind == RequestKind::Miss)
                s.simulatedInsts += static_cast<double>(ref.instructions);
        } else if (ok) {
            ok = generateMatches(r, rec.result);
        }
        result.op(ok);
    }
    return s;
}

/** serve-mixed, untraced: the open-loop session's user-side view. */
void
runServe(const Inputs &in, const Options &opts, Result &result)
{
    Session s = serveSession(in, opts, true, result);
    std::vector<double> all, hits, misses, reference;
    double lastDone = 0;
    for (size_t i = 0; i < s.records.size(); ++i) {
        double lat = s.records[i].latencyS();
        all.push_back(lat);
        if (in.schedule[i].kind == RequestKind::Hit)
            hits.push_back(lat);
        else if (in.schedule[i].kind == RequestKind::Miss)
            misses.push_back(lat);
        lastDone = std::max(lastDone, s.records[i].doneS);
        if (s.records[i].referenceS > 0)
            reference.push_back(s.records[i].referenceS);
    }
    const double scale = hostScale(reference);
    std::fprintf(stderr,
                 "perfbench: unscaled cpu_s %.4f latency_p50_ms %.4f\n",
                 s.cpuS, quantile(all, 0.5) * 1e3);
    result.set("setup_s", median(s.setups) * scale, "s");
    // The schedule's length, not work of the program: left unscaled.
    result.set("wall_s", lastDone, "s");
    result.set("cpu_s", s.cpuS * scale, "s");
    result.set("sim_minst_per_cpu_s",
               s.cpuS > 0 ? s.simulatedInsts / (s.cpuS * scale) / 1e6 : 0.0,
               "Minst/s");
    result.set("peak_rss_mb", s.peakRssMb, "MB");
    result.set("latency_p50_ms", quantile(all, 0.5) * scale * 1e3, "ms");
    result.set("hit_latency_p50_ms", quantile(hits, 0.5) * scale * 1e3,
               "ms");
    result.set("miss_latency_p50_ms", quantile(misses, 0.5) * scale * 1e3,
               "ms");
}

/** The traced run: per-layer probes, then a served session. */
void
runTraced(const Inputs &in, const Options &opts, Result &result)
{
    std::vector<sim::CompiledProgram> programs = setUp(in, result);
    std::map<std::string, double> routerHitS =
        probeLayers(in, programs, opts.seconds, result);
    Session s = serveSession(in, opts, false, result);

    // Transport is a served hit's time less what the router spends on
    // that same request in process.
    std::vector<double> latency, late, transport;
    for (size_t i = 0; i < s.records.size(); ++i) {
        latency.push_back(s.records[i].latencyS());
        late.push_back(s.records[i].lateS());
        auto router = routerHitS.find(requestKey(in.schedule[i].request));
        if (in.schedule[i].kind == RequestKind::Hit && s.records[i].ok &&
            router != routerHitS.end())
            transport.push_back(s.records[i].serviceS() - router->second);
    }
    result.set("sim.run_cache_hits", static_cast<double>(s.after.cacheHits),
               "count");
    result.set("sim.run_cache_misses",
               static_cast<double>(s.after.cacheMisses), "count");
    result.set("serve.rejected_overload",
               static_cast<double>(s.after.rejectedOverload), "count");
    result.set("serve.latency_p99_ms", quantile(latency, 0.99) * 1e3,
               "ms");
    result.set("serve.generator_late_p99_ms", quantile(late, 0.99) * 1e3,
               "ms");
    result.set("serve.transport_us", median(transport) * 1e6, "us");
}

/**
 * The workload's schedule served closed-loop: every request is due at
 * once, so each connection sends its next request when the previous
 * one is answered. Prints the requests answered per second, which is
 * the capacity the open-loop rate is set against.
 */
void
printCapacity(Inputs in, const Options &opts)
{
    for (ScheduledRequest &r : in.schedule)
        r.dueS = 0;
    Result result;
    Session s = serveSession(in, opts, false, result);
    double lastDone = 0;
    for (const CallRecord &rec : s.records)
        lastDone = std::max(lastDone, rec.doneS);
    std::printf("requests %zu failed %llu seconds %.3f capacity %.1f/s "
                "elagd_cpu_s %.3f\n",
                s.records.size(),
                static_cast<unsigned long long>(result.failed), lastDone,
                static_cast<double>(s.records.size()) / lastDone, s.cpuS);
}

/** The expected-values table of both batch workloads. */
void
printExpected()
{
    std::vector<Inputs> all = {makeInputs("paper-suite", 0, 1)};
    for (uint64_t s = 0; s < 16; ++s)
        all.push_back(makeInputs("table-sweep", s, 1));
    std::printf("# workload program machine cycles instructions\n");
    for (const Inputs &in : all) {
        std::vector<sim::CompiledProgram> programs;
        for (const Program &p : in.programs)
            programs.push_back(sim::compile(p.source));
        for (const Op &op : in.ops) {
            auto r = sim::runTimed(programs[op.program],
                                   in.machines[op.machine].config(),
                                   op.maxInst);
            std::printf("%s %llu %llu\n", expectedKey(in, op).c_str(),
                        static_cast<unsigned long long>(r.pipe.cycles),
                        static_cast<unsigned long long>(
                            r.pipe.instructions));
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);
    try {
        if (opts.printExpected) {
            printExpected();
            return 0;
        }
        Inputs in = makeInputs(opts.workload, opts.seed, opts.seconds);
        if (opts.describe) {
            std::fputs(describe(in).c_str(), stdout);
            return 0;
        }
        if (opts.capacity) {
            printCapacity(in, opts);
            return 0;
        }
        Result result;
        if (opts.trace)
            runTraced(in, opts, result);
        else if (opts.workload == "serve-mixed")
            runServe(in, opts, result);
        else
            runBatch(in, opts, result);
        if (!opts.trace) {
            result.set("ok_ratio",
                       static_cast<double>(result.attempted -
                                           result.failed) /
                           static_cast<double>(result.attempted),
                       "ratio");
        }
        std::printf("%s\n", result.json().c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
