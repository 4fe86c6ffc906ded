#include "harness/layers.hh"

#include <algorithm>
#include <map>

#include "classify/classify.hh"
#include "irgen/irgen.hh"
#include "lang/parser.hh"
#include "lang/sema.hh"
#include "opt/pass.hh"
#include "pipeline/pipeline.hh"
#include "pipeline/telemetry.hh"
#include "serve/router.hh"
#include "sim/emulator.hh"
#include "sim/run_cache.hh"
#include "support/json.hh"
#include "workloads/synthetic/generator.hh"

namespace perfbench {

using namespace elag;

namespace {

/** Retired instructions buffered between two replay bursts. */
constexpr size_t kReplayChunk = 1u << 18;

/** Instruction cap of the RunCache and render probes. */
constexpr uint64_t kCacheProbeMaxInst = 500'000;

/** Miss requests the in-process Router probe executes. */
constexpr size_t kRouterProbeMisses = 16;

/** Seconds of @p fn, run once. */
template <typename F>
double
timed(F &&fn)
{
    auto t0 = Clock::now();
    fn();
    return seconds(t0, Clock::now());
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
sumOfMedians(const std::vector<std::vector<double>> &samples)
{
    double total = 0;
    for (const auto &s : samples)
        total += median(s);
    return total;
}

/** Host seconds spent in each compiler phase. */
struct PhaseTimes
{
    double parse = 0, sema = 0, irgen = 0, opt = 0, classify = 0,
           codegen = 0;
};

/**
 * Compile @p source with sim::compile's default options, calling
 * lang::parseSource, Sema::analyze, irgen::lowerToIr,
 * opt::runStandardPipeline, classify::classifyLoads and
 * CompiledProgram::regenerate one at a time and timing each.
 */
sim::CompiledProgram
compilePhased(const std::string &source, PhaseTimes &t)
{
    lang::TypeTable types;
    std::unique_ptr<lang::Program> ast;
    t.parse += timed([&] { ast = lang::parseSource(source, types); });
    lang::Sema sema(*ast, types);
    t.sema += timed([&] { sema.analyze(); });
    sim::CompiledProgram prog;
    t.irgen += timed([&] {
        prog.module = irgen::lowerToIr(*ast, types, sema.globalSize());
    });
    t.opt += timed([&] {
        opt::runStandardPipeline(*prog.module, opt::OptConfig{});
    });
    t.classify += timed([&] {
        prog.classStats = classify::classifyLoads(
            *prog.module, classify::ClassifyConfig{});
    });
    t.codegen += timed([&] { prog.regenerate(); });
    return prog;
}

/** A timing-model run replayed from a captured retire stream. */
struct Replay
{
    pipeline::PipelineStats stats;
    sim::EmulationResult emulation;
    /** Host seconds inside Pipeline::retire only. */
    double retireSeconds = 0;
};

/**
 * Capture the retire stream of @p prog through Emulator::run's
 * observer and feed it, chunk by chunk, to a fresh Pipeline built
 * from @p machine, timing only the Pipeline::retire calls.
 */
Replay
captureAndReplay(const sim::CompiledProgram &prog,
                 const pipeline::MachineConfig &machine,
                 uint64_t max_inst)
{
    Replay out;
    pipeline::Pipeline pipe(machine);
    std::vector<pipeline::RetiredInst> chunk;
    chunk.reserve(kReplayChunk);
    auto replay = [&] {
        out.retireSeconds += timed([&] {
            for (const pipeline::RetiredInst &ri : chunk)
                pipe.retire(ri);
        });
        chunk.clear();
    };
    sim::Emulator emu(prog.code.program);
    out.emulation =
        emu.run(max_inst, [&](const pipeline::RetiredInst &ri) {
            chunk.push_back(ri);
            if (chunk.size() == kReplayChunk)
                replay();
        });
    replay();
    out.stats = pipe.finish();
    return out;
}

/** True when two runs' statistics serialize identically. */
bool
sameStats(const pipeline::PipelineStats &a,
          const pipeline::PipelineStats &b)
{
    JsonWriter wa(0), wb(0);
    pipeline::writeJson(wa, a);
    pipeline::writeJson(wb, b);
    return wa.str() == wb.str();
}

} // namespace

Reference
referenceFor(const serve::Request &request)
{
    sim::CompiledProgram prog = sim::compile(request.source);
    sim::TimedResult base = sim::runTimed(
        prog, pipeline::MachineConfig::baseline(), request.maxInst);
    pipeline::LoadTelemetry telemetry;
    sim::TimedResult run =
        sim::runTimed(prog, serve::Router::machineFor(request),
                      request.maxInst, {&telemetry});
    Reference ref;
    ref.doc = sim::statsReportJson(request.file, request.machine,
                                   request.selection, prog, base, run,
                                   telemetry);
    ref.instructions =
        base.emulation.instructions + run.emulation.instructions;
    return ref;
}

bool
generateMatches(const serve::Request &request, const std::string &result)
{
    workloads::synthetic::ScenarioSpec spec;
    std::string error, source, hash;
    if (!workloads::synthetic::parseScenarioSpec(request.spec, spec,
                                                 error))
        return false;
    auto gen = workloads::synthetic::generateScenario(spec);
    return jsonExtractString(result, "source", source) &&
           jsonExtractString(result, "content_hash", hash) &&
           source == gen.source && hash == gen.contentHash;
}

std::string
requestKey(const serve::Request &request)
{
    return workloads::synthetic::sourceHash(
        serve::buildRequestDoc(request));
}

std::map<std::string, double>
probeLayers(const Inputs &in,
            const std::vector<sim::CompiledProgram> &programs,
            double budget_s, Result &result)
{
    const auto start = Clock::now();

    // Compiler front end and back end, phase by phase. The phased
    // compile must produce the program sim::compile produced.
    std::vector<std::vector<double>> phase(6);
    uint64_t machineInsts = 0;
    for (size_t p = 0; p < in.programs.size(); ++p) {
        std::vector<PhaseTimes> reps(5);
        for (PhaseTimes &t : reps) {
            sim::CompiledProgram prog =
                compilePhased(in.programs[p].source, t);
            bool same = sim::hashProgram(prog.code.program) ==
                        sim::hashProgram(programs[p].code.program);
            result.op(same);
        }
        auto med = [&](double PhaseTimes::*field) {
            std::vector<double> v;
            for (const PhaseTimes &t : reps)
                v.push_back(t.*field);
            return median(v);
        };
        phase[0].push_back(med(&PhaseTimes::parse));
        phase[1].push_back(med(&PhaseTimes::sema));
        phase[2].push_back(med(&PhaseTimes::irgen));
        phase[3].push_back(med(&PhaseTimes::opt));
        phase[4].push_back(med(&PhaseTimes::classify));
        phase[5].push_back(med(&PhaseTimes::codegen));
        machineInsts += programs[p].code.program.code.size();
    }
    const char *phaseNames[] = {"lang.parse_ms",     "lang.sema_ms",
                                "irgen.lower_ms",    "opt.pipeline_ms",
                                "classify.loads_ms", "codegen.generate_ms"};
    for (size_t i = 0; i < 6; ++i) {
        double total = 0;
        for (double v : phase[i])
            total += v;
        result.set(phaseNames[i], total * 1e3, "ms");
    }
    result.set("codegen.machine_insts",
               static_cast<double>(machineInsts), "count");

    // Functional emulation, the timing model alone (replayed from a
    // captured stream), timed runs, and timed runs with telemetry,
    // per op. The replay must reproduce runTimed's statistics.
    const size_t n = in.ops.size();
    std::vector<std::vector<double>> emu(n), retire(n), run(n), tele(n);
    pipeline::PipelineStats guard;
    uint64_t emulated = 0, retired = 0;
    for (int rep = 0; rep < 5; ++rep) {
        for (size_t i = 0; i < n; ++i) {
            const Op &op = in.ops[i];
            const sim::CompiledProgram &prog = programs[op.program];
            pipeline::MachineConfig cfg = in.machines[op.machine].config();
            sim::EmulationResult functional;
            emu[i].push_back(timed([&] {
                sim::Emulator e(prog.code.program);
                functional = e.run(op.maxInst);
            }));
            Replay replay = captureAndReplay(prog, cfg, op.maxInst);
            retire[i].push_back(replay.retireSeconds);
            sim::TimedResult tr;
            run[i].push_back(
                timed([&] { tr = sim::runTimed(prog, cfg, op.maxInst); }));
            tele[i].push_back(timed([&] {
                pipeline::LoadTelemetry telemetry;
                sim::runTimed(prog, cfg, op.maxInst, {&telemetry});
            }));
            if (rep > 0)
                continue;
            result.op(sameStats(replay.stats, tr.pipe) &&
                      replay.emulation.instructions ==
                          tr.emulation.instructions &&
                      functional.instructions == tr.emulation.instructions);
            emulated += functional.instructions;
            retired += tr.pipe.instructions;
            const auto &s = tr.pipe;
            guard.cycles += s.cycles;
            guard.instructions += s.instructions;
            guard.loads += s.loads;
            guard.stores += s.stores;
            guard.dcacheMisses += s.dcacheMisses;
            guard.predict.executed += s.predict.executed;
            guard.predict.forwarded += s.predict.forwarded;
            guard.earlyCalc.executed += s.earlyCalc.executed;
            guard.earlyCalc.forwarded += s.earlyCalc.forwarded;
        }
        if (seconds(start, Clock::now()) > budget_s)
            break;
    }
    double emuS = sumOfMedians(emu), retireS = sumOfMedians(retire),
           runS = sumOfMedians(run), teleS = sumOfMedians(tele);
    result.set("sim.emulate_ms", emuS * 1e3, "ms");
    result.set("sim.emu_minst_per_s",
               ratio(static_cast<double>(emulated), emuS) / 1e6,
               "Minst/s");
    result.set("pipeline.replay_ms", retireS * 1e3, "ms");
    result.set("pipeline.ns_per_retire",
               ratio(retireS * 1e9, static_cast<double>(retired)), "ns");
    result.set("pipeline.timed_over_functional", ratio(runS, emuS),
               "ratio");
    result.set("pipeline.telemetry_overhead_ratio", ratio(teleS, runS),
               "ratio");
    result.set("pipeline.cycles", static_cast<double>(guard.cycles),
               "count");
    result.set("pipeline.retired_inst",
               static_cast<double>(guard.instructions), "count");
    result.set("predict.ldp_forward_ratio",
               ratio(static_cast<double>(guard.predict.forwarded),
                     static_cast<double>(guard.predict.executed)),
               "ratio");
    result.set("predict.lde_forward_ratio",
               ratio(static_cast<double>(guard.earlyCalc.forwarded),
                     static_cast<double>(guard.earlyCalc.executed)),
               "ratio");
    result.set("mem.dcache_miss_ratio",
               ratio(static_cast<double>(guard.dcacheMisses),
                     static_cast<double>(guard.loads + guard.stores)),
               "ratio");

    // The RunCache hit path and stats-document rendering, on capped
    // runs of each op.
    auto &cache = sim::RunCache::instance();
    cache.clear();
    std::vector<double> hitS, renderS;
    for (const Op &op : in.ops) {
        const sim::CompiledProgram &prog = programs[op.program];
        const MachineSpec &m = in.machines[op.machine];
        pipeline::MachineConfig cfg = m.config();
        uint64_t cap = std::min(op.maxInst, kCacheProbeMaxInst);
        sim::TimedResult base =
            cache.run(prog, pipeline::MachineConfig::baseline(), cap);
        cache.runReport(prog, cfg, cap);
        for (int rep = 0; rep < 5; ++rep) {
            sim::RunCache::Report report;
            hitS.push_back(
                timed([&] { report = cache.runReport(prog, cfg, cap); }));
            renderS.push_back(timed([&] {
                sim::statsReportJson(in.programs[op.program].label,
                                     m.machine, m.selection, prog, base,
                                     report.timed, report.telemetry);
            }));
        }
    }
    result.set("sim.run_cache_hit_us", median(hitS) * 1e6, "us");
    result.set("sim.report_render_ms", median(renderS) * 1e3, "ms");

    // Router::execute on the schedule's simulate requests: the first
    // execution misses the RunCache, later ones hit it. Miss times are
    // taken on requests the schedule sends as misses, hit times on
    // those it sends as hits (on serve-mixed, the hot set), so each
    // is the in-process cost of what the served session asks for.
    // Every answer must be the in-process reference document.
    struct Sent
    {
        const serve::Request *request;
        bool asHit = false, asMiss = false;
    };
    std::vector<Sent> sent;
    std::map<std::string, size_t> index;
    for (const ScheduledRequest &s : in.schedule) {
        if (s.request.verb != "simulate")
            continue;
        auto it = index.emplace(requestKey(s.request), sent.size()).first;
        if (it->second == sent.size())
            sent.push_back({&s.request});
        sent[it->second].asHit |= s.kind == RequestKind::Hit;
        sent[it->second].asMiss |= s.kind == RequestKind::Miss;
    }
    std::map<std::string, double> hitByRequest;
    std::vector<double> routerMissS, routerHitS;
    cache.clear();
    serve::Router router;
    for (const Sent &e : sent) {
        bool timeMiss = e.asMiss && routerMissS.size() < kRouterProbeMisses;
        if (!e.asHit && !timeMiss)
            continue;
        const serve::Request &r = *e.request;
        Reference ref = referenceFor(r);
        std::string answer;
        double first = timed([&] { answer = router.execute(r); });
        bool ok = answer == ref.doc;
        std::vector<double> hits;
        for (int rep = 0; rep < 3; ++rep) {
            hits.push_back(timed([&] { answer = router.execute(r); }));
            ok = ok && answer == ref.doc;
        }
        result.op(ok);
        if (timeMiss)
            routerMissS.push_back(first);
        if (e.asHit) {
            hitByRequest[requestKey(r)] = median(hits);
            routerHitS.push_back(median(hits));
        }
    }
    cache.clear();
    result.set("serve.router_execute_hit_ms", median(routerHitS) * 1e3, "ms");
    result.set("serve.router_execute_miss_ms", median(routerMissS) * 1e3,
               "ms");

    // Scenario generation: every spec the workload generates from.
    std::vector<workloads::synthetic::ScenarioSpec> specs = in.specs;
    for (const ScheduledRequest &s : in.schedule) {
        workloads::synthetic::ScenarioSpec spec;
        std::string error;
        if (s.kind == RequestKind::Generate &&
            workloads::synthetic::parseScenarioSpec(s.request.spec, spec,
                                                    error))
            specs.push_back(spec);
    }
    std::vector<std::vector<double>> genS;
    for (const auto &spec : specs) {
        genS.emplace_back();
        for (int rep = 0; rep < 3; ++rep) {
            genS.back().push_back(timed(
                [&] { workloads::synthetic::generateScenario(spec); }));
        }
    }
    result.set("workgen.generate_ms", sumOfMedians(genS) * 1e3, "ms");
    return hitByRequest;
}

} // namespace perfbench
