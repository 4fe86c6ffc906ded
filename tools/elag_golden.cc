/**
 * @file
 * elag_golden — print the golden behaviour corpus.
 *
 * One compact JSON line per timed run: cycles, instructions, the
 * three SpecCounters blocks, the sample counts and sums of the three
 * pipeline histograms, and an FNV-1a hash of the full stats document
 * (the `elagc --json-stats` document of the same run). The committed
 * corpus lives in tests/golden/<set>.jsonl; tools/regen_golden.sh
 * rewrites it and the `golden_<set>` ctests compare it byte for byte.
 *
 *   elag_golden --set=NAME     print one set's lines
 *   elag_golden --list-sets    the set names, one per line
 *
 * Sets: `baseline`, `proposed`, `ev`, `all-predict` and `all-early`
 * run the 26 imitation workloads on that machine (the last three are
 * the proposed machine under that selection policy); `table-sweep`
 * runs the 512-site gather scenario (seed 2) on the baseline and on
 * six table-only machines (compiler-directed and hardware-only, 64,
 * 256 and 1024 entries).
 *
 * The `codegen` set pins the compiler instead of the simulator: one
 * line per compiled program — the 26 imitation workloads, one seeded
 * scenario per synthetic kernel family, and the table-sweep scenario
 * — holding the machine-instruction count, the static ld_n/ld_p/ld_e
 * counts and sim::hashProgram of the emitted program.
 *
 * Exit codes: 0 success, 1 error, 2 usage.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sim/run_cache.hh"
#include "sim/stats_run.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "workloads/synthetic/generator.hh"
#include "workloads/workloads.hh"

using namespace elag;

namespace {

/** One run of a set: a program and the machine to time it on. */
struct GoldenRun
{
    std::string label;  ///< stats-document file label
    std::string source;
    std::string machine;
    std::string selection;
    uint32_t table = 0;
};

const char *const kWorkloadSets[] = {"baseline", "proposed", "ev",
                                     "all-predict", "all-early"};

/** The table-sweep scenario (the benchmark's, at its seed 1). */
workloads::synthetic::ScenarioSpec
sweepSpec()
{
    workloads::synthetic::ScenarioSpec spec;
    spec.family = workloads::synthetic::KernelFamily::IndirectGather;
    spec.seed = 2;
    spec.workingSet = 4096;
    spec.hotLoads = 512;
    spec.strides = {1, 2, 4, 8};
    spec.aliasDensity = 0.25;
    spec.chaseDepth = 2;
    spec.branchRatio = 0.0;
    spec.iterations = 4;
    return spec;
}

/** The runs of set @p name; empty for an unknown name. */
std::vector<GoldenRun>
runsOf(const std::string &name)
{
    std::vector<GoldenRun> runs;
    if (name == "table-sweep") {
        auto gen = workloads::synthetic::generateScenario(sweepSpec());
        runs.push_back({gen.name, gen.source, "baseline", "", 0});
        for (const char *selection : {"compiler", "all-predict"}) {
            for (uint32_t entries : {64u, 256u, 1024u})
                runs.push_back({gen.name, gen.source, "baseline",
                                selection, entries});
        }
        return runs;
    }
    for (const char *set : kWorkloadSets) {
        if (name != set)
            continue;
        bool policy = name != "baseline" && name != "proposed";
        for (const workloads::Workload *w : workloads::allWorkloads()) {
            runs.push_back({"workload:" + w->name, w->source,
                            policy ? "proposed" : name,
                            policy ? name : "", 0});
        }
    }
    return runs;
}

uint64_t
fnv1a(const std::string &bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

void
writeHistogram(JsonWriter &w, const char *key, const Histogram &h)
{
    w.key(key).beginArray();
    w.value(h.samples());
    w.value(h.total());
    w.endArray();
}

/** The golden line of one run. */
std::string
goldenLine(const GoldenRun &run)
{
    sim::StatsJob job;
    std::string error;
    if (!sim::parseMachine(run.machine, run.selection, run.table, 0,
                           job.machine, error)) {
        fatal("%s", error.c_str());
    }
    sim::CompiledProgram prog = sim::compile(run.source);
    sim::StatsOutcome out = sim::runStats(prog, job);
    const pipeline::PipelineStats &s = out.timed.pipe;
    std::string doc = sim::statsReportJson(run.label, run.machine,
                                           run.selection, prog, out.base,
                                           out.timed, out.telemetry);

    JsonWriter w(0);
    w.beginObject();
    w.field("run", run.label);
    w.field("machine", run.machine);
    w.field("selection", run.selection);
    w.field("table", static_cast<uint64_t>(run.table));
    w.field("cycles", s.cycles);
    w.field("instructions", s.instructions);
    w.key("normal");
    pipeline::writeJson(w, s.normal);
    w.key("predict");
    pipeline::writeJson(w, s.predict);
    w.key("early_calc");
    pipeline::writeJson(w, s.earlyCalc);
    w.key("histograms").beginObject();
    writeHistogram(w, "load_latency", s.loadLatency);
    writeHistogram(w, "stride_confidence", s.strideConfidence);
    writeHistogram(w, "bind_lifetime", s.bindLifetime);
    w.endObject();
    w.field("stats_fnv1a",
            formatString("%016llx", static_cast<unsigned long long>(
                                        fnv1a(doc))));
    w.endObject();
    return w.str();
}

/** One program of the codegen set: a label and its source. */
struct CodegenProgram
{
    std::string label;
    std::string source;
};

std::vector<CodegenProgram>
codegenPrograms()
{
    namespace syn = workloads::synthetic;
    std::vector<CodegenProgram> programs;
    for (const workloads::Workload *w : workloads::allWorkloads())
        programs.push_back({"workload:" + w->name, w->source});
    for (const syn::FamilyInfo &f : syn::kernelFamilies()) {
        auto gen = syn::generateScenario(syn::sampleSpec(f.family, 1));
        programs.push_back({gen.name, gen.source});
    }
    auto sweep = syn::generateScenario(sweepSpec());
    programs.push_back({sweep.name, sweep.source});
    return programs;
}

/** The codegen line of one program. */
std::string
codegenLine(const CodegenProgram &program)
{
    sim::CompiledProgram prog = sim::compile(program.source);
    JsonWriter w(0);
    w.beginObject();
    w.field("program", program.label);
    w.field("machine_insts",
            static_cast<uint64_t>(prog.code.program.code.size()));
    w.field("ld_n", static_cast<int64_t>(prog.classStats.numNormal));
    w.field("ld_p", static_cast<int64_t>(prog.classStats.numPredict));
    w.field("ld_e", static_cast<int64_t>(prog.classStats.numEarlyCalc));
    w.field("program_hash",
            formatString("%016llx",
                         static_cast<unsigned long long>(
                             sim::hashProgram(prog.code.program))));
    w.endObject();
    return w.str();
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: elag_golden --set=NAME | --list-sets\n"
                 "  sets: baseline proposed ev all-predict all-early "
                 "table-sweep codegen\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        usage();
        return 2;
    }
    std::string arg = argv[1];
    if (arg == "--list-sets") {
        for (const char *set : kWorkloadSets)
            std::printf("%s\n", set);
        std::printf("table-sweep\ncodegen\n");
        return 0;
    }
    const char *prefix = "--set=";
    if (arg.rfind(prefix, 0) != 0) {
        usage();
        return 2;
    }
    std::string set = arg.substr(std::strlen(prefix));
    bool codegen = set == "codegen";
    std::vector<GoldenRun> runs = runsOf(set);
    if (runs.empty() && !codegen) {
        usage();
        return 2;
    }
    try {
        if (codegen) {
            for (const CodegenProgram &program : codegenPrograms())
                std::printf("%s\n", codegenLine(program).c_str());
        }
        for (const GoldenRun &run : runs)
            std::printf("%s\n", goldenLine(run).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "elag_golden: %s\n", e.what());
        return 1;
    }
    return 0;
}
