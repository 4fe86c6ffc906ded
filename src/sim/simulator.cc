#include "sim/simulator.hh"

#include "irgen/irgen.hh"
#include "lang/parser.hh"
#include "lang/sema.hh"
#include "obs/span.hh"
#include "pipeline/stats.hh"
#include "sim/ckpt_run.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/table.hh"

namespace elag {
namespace sim {

namespace {

LoadSpecMap
collectSpecs(const ir::Module &mod)
{
    LoadSpecMap specs;
    for (const auto &fn : mod.functions) {
        for (const auto &bb : fn->blocks()) {
            for (const auto &inst : bb->insts) {
                if (inst.isLoad())
                    specs.set(inst.loadId, inst.spec);
            }
        }
    }
    return specs;
}

} // anonymous namespace

void
CompiledProgram::regenerate()
{
    code = codegen::generateCode(*module);
    specOf = collectSpecs(*module);
}

CompiledProgram
compile(const std::string &source, const CompileOptions &options)
{
    obs::Span compileSpan("compile", "pipeline");
    lang::TypeTable types;
    std::unique_ptr<lang::Program> ast;
    {
        obs::Span span("parse", "pipeline");
        ast = lang::parseSource(source, types);
    }
    lang::Sema sema(*ast, types);
    {
        obs::Span span("sema", "pipeline");
        sema.analyze();
    }

    CompiledProgram prog;
    {
        obs::Span span("irgen", "pipeline");
        prog.module =
            irgen::lowerToIr(*ast, types, sema.globalSize());
    }
    {
        obs::Span span("opt", "pipeline");
        opt::runStandardPipeline(*prog.module, options.opt);
    }
    {
        obs::Span span("classify", "pipeline");
        if (options.runClassifier) {
            prog.classStats =
                classify::classifyLoads(*prog.module,
                                        options.classify);
        } else {
            classify::clearClassification(*prog.module);
            // Count everything as normal for reporting purposes.
            for (const auto &fn : prog.module->functions) {
                for (const auto &bb : fn->blocks()) {
                    for (const auto &inst : bb->insts) {
                        if (inst.isLoad())
                            ++prog.classStats.numNormal;
                    }
                }
            }
        }
    }
    {
        obs::Span span("codegen", "pipeline");
        prog.regenerate();
    }
    return prog;
}

ProfileResult
runProfile(const CompiledProgram &prog, uint64_t max_instructions)
{
    ProfileResult result;
    predict::AddressProfiler profiler;

    // Per-load prediction correctness split by current class.
    Emulator emu(prog.code.program);
    const auto &load_ids = prog.code.loadIdOf;
    result.emulation = emu.run(
        max_instructions,
        [&](const pipeline::RetiredInst &ri) {
            if (!ri.inst.isLoad())
                return;
            int load_id = load_ids.at(ri.pc);
            if (load_id < 0)
                return; // runtime (spill/prologue) load
            // The profiler FSM must be consulted before it trains.
            // AddressProfiler::observe does both and records the
            // outcome in the per-load profile.
            profiler.observe(load_id, ri.effAddr);
        });

    result.profile = profiler.profile();

    // Aggregate per current classification. Per-load totals use the
    // profile; correctness per class follows the paper's methodology
    // (rates over dynamic executions of loads in that class).
    for (const auto &kv : result.profile) {
        isa::LoadSpec spec = prog.specOf.get(kv.first);
        ClassDynamics *dyn = &result.normal;
        if (spec == isa::LoadSpec::Predict)
            dyn = &result.predict;
        else if (spec == isa::LoadSpec::EarlyCalc)
            dyn = &result.earlyCalc;
        dyn->executions += kv.second.executions;
        dyn->predicted += kv.second.correct;
    }
    return result;
}

TimedResult
runTimed(const CompiledProgram &prog,
         const pipeline::MachineConfig &machine,
         uint64_t max_instructions,
         const std::vector<pipeline::Observer *> &observers,
         const Watchdog &watchdog)
{
    // A watchdog or an armed tracer needs per-retire checks: that is
    // one step of the resumable run, which owns the guarded loop.
    if (watchdog.maxWallMs || watchdog.maxRetires ||
        watchdog.maxCycles || obs::SpanTracer::process().enabled()) {
        ResumableTimedRun run(prog, machine, max_instructions);
        for (pipeline::Observer *observer : observers)
            run.attach(observer);
        run.step(max_instructions, watchdog);
        return run.finish();
    }

    TimedResult result;
    pipeline::Pipeline pipe(machine);
    for (pipeline::Observer *observer : observers)
        pipe.attach(observer);
    Emulator emu(prog.code.program);

    // Most runs have no watchdog and no tracer armed; keep the
    // per-retire callback down to the pipeline hand-off in that case.
    result.emulation =
        emu.run(max_instructions,
                [&](const pipeline::RetiredInst &ri) {
                    pipe.retire(ri);
                });
    result.pipe = pipe.finish();
    return result;
}

const char *
specName(isa::LoadSpec spec)
{
    switch (spec) {
      case isa::LoadSpec::Normal:
        return "ld_n";
      case isa::LoadSpec::Predict:
        return "ld_p";
      case isa::LoadSpec::EarlyCalc:
        return "ld_e";
    }
    return "?";
}

void
writeProgramBlock(JsonWriter &w, const std::string &file_label,
                  const CompiledProgram &prog)
{
    w.key("program").beginObject();
    w.field("file", file_label);
    w.field("instructions",
            static_cast<uint64_t>(prog.code.program.code.size()));
    w.key("static_loads").beginObject();
    w.field("total", prog.classStats.total());
    w.field("ld_n", prog.classStats.numNormal);
    w.field("ld_p", prog.classStats.numPredict);
    w.field("ld_e", prog.classStats.numEarlyCalc);
    w.endObject();
    w.endObject();
}

namespace {

pipeline::LoadPath
expectedPath(isa::LoadSpec spec)
{
    switch (spec) {
      case isa::LoadSpec::Predict:
        return pipeline::LoadPath::Predict;
      case isa::LoadSpec::EarlyCalc:
        return pipeline::LoadPath::EarlyCalc;
      case isa::LoadSpec::Normal:
        break;
    }
    return pipeline::LoadPath::Normal;
}

/** One resolved report row: telemetry + compiler cross-reference. */
struct ReportSite
{
    uint32_t pc;
    const pipeline::LoadRecord *rec;
    int loadId = -1;            ///< -1 for runtime (spill/prologue) loads
    bool classified = false;    ///< has a compiler specifier
    isa::LoadSpec spec = isa::LoadSpec::Normal;
    bool mismatch = false;      ///< runtime path != compiler specifier
};

std::vector<ReportSite>
resolveSites(const CompiledProgram &prog,
             const pipeline::LoadTelemetry &telemetry)
{
    std::vector<ReportSite> sites;
    sites.reserve(telemetry.loads().size());
    for (const auto &kv : telemetry.loads()) {
        ReportSite site;
        site.pc = kv.first;
        site.rec = &kv.second;
        int load_id = prog.code.loadIdOf.at(kv.first);
        if (load_id >= 0) {
            site.loadId = load_id;
            if (prog.specOf.has(load_id)) {
                site.classified = true;
                site.spec = prog.specOf.get(load_id);
                site.mismatch =
                    expectedPath(site.spec) != kv.second.path;
            }
        }
        sites.push_back(site);
    }
    return sites;
}

} // anonymous namespace

std::string
loadReportText(const CompiledProgram &prog,
               const pipeline::LoadTelemetry &telemetry)
{
    TextTable table;
    table.setHeader({"pc", "load", "spec", "path", "executed",
                     "spec'd", "fwd", "fwd%", "dominant-failure", ""});
    uint64_t executed = 0, speculated = 0, forwarded = 0;
    for (const ReportSite &site : resolveSites(prog, telemetry)) {
        const pipeline::LoadRecord &rec = *site.rec;
        executed += rec.executed;
        speculated += rec.speculated;
        forwarded += rec.forwarded();
        std::string failure =
            rec.forwarded() == rec.executed
                ? "-"
                : pipeline::name(rec.dominantFailure());
        table.addRow(
            {std::to_string(site.pc),
             site.loadId >= 0 ? std::to_string(site.loadId) : "-",
             site.classified ? specName(site.spec) : "-",
             pipeline::name(rec.path), std::to_string(rec.executed),
             std::to_string(rec.speculated),
             std::to_string(rec.forwarded()),
             formatPercent(rec.forwardRate()), failure,
             site.mismatch ? "*" : ""});
    }
    table.addSeparator();
    table.addRow({"total", "", "", "", std::to_string(executed),
                  std::to_string(speculated),
                  std::to_string(forwarded),
                  formatPercent(executed == 0
                                    ? 0.0
                                    : static_cast<double>(forwarded) /
                                          static_cast<double>(executed)),
                  "", ""});
    return table.render();
}

void
loadReportJson(JsonWriter &w, const CompiledProgram &prog,
               const pipeline::LoadTelemetry &telemetry)
{
    w.beginArray();
    for (const ReportSite &site : resolveSites(prog, telemetry)) {
        const pipeline::LoadRecord &rec = *site.rec;
        w.beginObject();
        w.field("pc", site.pc);
        if (site.loadId >= 0)
            w.field("load_id", site.loadId);
        else
            w.key("load_id").nullValue();
        if (site.classified)
            w.field("compiler_spec", specName(site.spec));
        else
            w.key("compiler_spec").nullValue();
        w.field("path", pipeline::name(rec.path));
        w.field("mismatch", site.mismatch);
        w.field("executed", rec.executed);
        w.field("speculated", rec.speculated);
        w.field("forwarded", rec.forwarded());
        w.field("forward_rate", rec.forwardRate());
        w.field("dominant_failure",
                pipeline::name(rec.dominantFailure()));
        w.key("outcomes").beginObject();
        for (size_t i = 0; i < pipeline::NumSpecOutcomes; ++i) {
            pipeline::SpecOutcome outcome =
                static_cast<pipeline::SpecOutcome>(i);
            if (rec.count(outcome) > 0)
                w.field(pipeline::name(outcome), rec.count(outcome));
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
}

std::string
statsReportJson(const std::string &file_label,
                const std::string &machine_name,
                const std::string &selection,
                const CompiledProgram &prog, const TimedResult &base,
                const TimedResult &timed,
                const pipeline::LoadTelemetry &telemetry)
{
    JsonWriter w;
    w.beginObject();
    writeProgramBlock(w, file_label, prog);
    w.field("machine", machine_name);
    if (!selection.empty())
        w.field("selection", selection);
    w.key("baseline").beginObject();
    w.field("cycles", base.pipe.cycles);
    w.field("ipc", base.pipe.ipc());
    w.endObject();
    w.field("speedup", speedup(base, timed));
    w.key("stats");
    pipeline::writeJson(w, timed.pipe);
    w.key("loads");
    loadReportJson(w, prog, telemetry);
    w.endObject();
    return w.str();
}

double
speedup(const TimedResult &baseline, const TimedResult &machine)
{
    if (machine.pipe.cycles == 0)
        return 0.0;
    return static_cast<double>(baseline.pipe.cycles) /
           static_cast<double>(machine.pipe.cycles);
}

} // namespace sim
} // namespace elag
