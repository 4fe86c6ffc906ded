#include "harness/inputs.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "serve/router.hh"
#include "support/random.hh"
#include "workloads/synthetic/generator.hh"
#include "workloads/workloads.hh"

namespace perfbench {

using elag::Pcg32;
using elag::serve::Request;
using elag::workloads::synthetic::KernelFamily;
using elag::workloads::synthetic::ScenarioSpec;

namespace {

/** Scenario seeds table-sweep draws from; expected.txt pins each. */
constexpr uint64_t kSweepScenarios = 16;

/** Imitation programs the serve-mixed hot set repeats. */
const char *const kHotSet[] = {"026.compress", "022.li",
                               "130.li",       "008.espresso",
                               "129.compress", "134.perl"};

/** Instruction caps of served requests. */
constexpr uint64_t kHotMaxInst = 1'000'000;
constexpr uint64_t kFreshMaxInst = 100'000;
constexpr uint64_t kProbeMaxInst = 500'000;

/** Spacing of the batch workloads' probe schedules, seconds. */
constexpr double kProbeSpacing = 0.06;

/**
 * Shares of the serve-mixed mix: hits, then misses, rest generate.
 * Assumed, not taken from measured traffic (see README.md).
 */
constexpr double kHitShare = 0.84;
constexpr double kMissShare = 0.12;

const KernelFamily kFamilies[] = {
    KernelFamily::StridedWalk, KernelFamily::PointerChase,
    KernelFamily::IndirectGather, KernelFamily::BranchInterleaved};

/** The table-pressure scenario: 512 hot gather sites. */
ScenarioSpec
sweepSpec(uint64_t seed)
{
    ScenarioSpec spec;
    spec.family = KernelFamily::IndirectGather;
    spec.seed = 1 + seed % kSweepScenarios;
    spec.workingSet = 4096;
    spec.hotLoads = 512;
    spec.strides = {1, 2, 4, 8};
    spec.aliasDensity = 0.25;
    spec.chaseDepth = 2;
    spec.branchRatio = 0.0;
    spec.iterations = 4;
    return spec;
}

/** A small fresh scenario for one serve-mixed miss or generate. */
ScenarioSpec
freshSpec(KernelFamily family, uint64_t scenario_seed)
{
    ScenarioSpec spec;
    spec.family = family;
    spec.seed = scenario_seed;
    spec.workingSet = 1024;
    spec.hotLoads = 24;
    spec.strides = {1, 2, 4};
    spec.aliasDensity = 0.25;
    spec.chaseDepth = 2;
    spec.branchRatio = 0.25;
    spec.iterations = 2;
    return spec;
}

Request
simulateRequest(const Program &program, const MachineSpec &machine,
                uint64_t max_inst)
{
    Request r;
    r.verb = "simulate";
    r.file = program.label;
    r.machine = machine.machine;
    r.table = machine.table;
    r.selection = machine.selection;
    r.maxInst = max_inst;
    r.source = program.source;
    return r;
}

Request
generateRequest(const ScenarioSpec &spec)
{
    Request r;
    r.verb = "generate";
    r.spec = spec.toJson();
    return r;
}

/**
 * The probe schedule of a batch workload: every op as a capped
 * simulate request (RunCache misses), the same requests again
 * (hits), and a few generate requests.
 */
void
addProbeSchedule(Inputs &in, Pcg32 &rng)
{
    std::vector<Request> sims;
    for (const Op &op : in.ops) {
        if (in.machines[op.machine].machine == "baseline" &&
            in.machines[op.machine].table == 0)
            continue; // every simulate request runs the baseline too
        sims.push_back(simulateRequest(in.programs[op.program],
                                       in.machines[op.machine],
                                       kProbeMaxInst));
    }
    double due = 0.0;
    for (RequestKind kind : {RequestKind::Miss, RequestKind::Hit}) {
        for (const Request &r : sims) {
            in.schedule.push_back({due, kind, r});
            due += kProbeSpacing;
        }
    }
    for (int i = 0; i < 4; ++i) {
        ScenarioSpec spec = freshSpec(kFamilies[rng.nextBounded(4)],
                                      (in.seed << 20) + 900000 + i);
        in.schedule.push_back(
            {due, RequestKind::Generate, generateRequest(spec)});
        due += kProbeSpacing;
    }
}

Inputs
paperSuite()
{
    Inputs in;
    for (const auto *w : elag::workloads::allWorkloads())
        in.programs.push_back({w->name, w->source, w->expectedOutput});
    in.machines = {{"baseline", "baseline", 0, ""},
                   {"proposed", "proposed", 0, ""}};
    for (size_t p = 0; p < in.programs.size(); ++p) {
        for (size_t m = 0; m < in.machines.size(); ++m)
            in.ops.push_back({p, m, 500'000'000});
    }
    return in;
}

Inputs
tableSweep(uint64_t seed)
{
    Inputs in;
    in.specs = {sweepSpec(seed)};
    auto gen = elag::workloads::synthetic::generateScenario(in.specs[0]);
    in.programs.push_back({gen.name, gen.source, {}});
    in.machines.push_back({"baseline", "baseline", 0, ""});
    for (const char *selection : {"compiler", "all-predict"}) {
        for (uint32_t entries : {64u, 256u, 1024u}) {
            // machine=baseline plus a table: table-only hardware,
            // no R_addr, as in bench_crossover.
            std::string label =
                std::string(selection[0] == 'c' ? "cc-" : "hw-") +
                std::to_string(entries);
            in.machines.push_back(
                {label, "baseline", entries, selection});
        }
    }
    for (size_t m = 0; m < in.machines.size(); ++m)
        in.ops.push_back({0, m, 500'000'000});
    return in;
}

Inputs
serveMixed(uint64_t seed, double seconds)
{
    Inputs in;
    in.machines = {{"proposed", "proposed", 0, ""}};
    for (const char *name : kHotSet) {
        const auto *w = elag::workloads::findWorkload(name);
        in.programs.push_back({w->name, w->source, {}});
        in.ops.push_back({in.programs.size() - 1, 0, kHotMaxInst});
        in.warmup.push_back(simulateRequest(in.programs.back(),
                                            in.machines[0],
                                            kHotMaxInst));
    }
    const size_t hot = in.programs.size();

    // Exact shares, in a seeded order, so every seed carries the same
    // number of requests of each kind.
    Pcg32 rng(seed, 0x5e7e);
    size_t count = static_cast<size_t>(
        std::llround(std::max(1.0, seconds) * kServeRate));
    size_t hits = static_cast<size_t>(std::llround(count * kHitShare));
    size_t misses = static_cast<size_t>(std::llround(count * kMissShare));
    std::vector<RequestKind> kinds(count, RequestKind::Generate);
    std::fill_n(kinds.begin(), hits, RequestKind::Hit);
    std::fill_n(kinds.begin() + hits, misses, RequestKind::Miss);
    for (size_t i = count; i > 1; --i)
        std::swap(kinds[i - 1],
                  kinds[rng.nextBounded(static_cast<uint32_t>(i))]);
    // Each hot program takes an equal share of the hits, also in a
    // seeded order: the hot programs' latencies differ several-fold,
    // so uneven shares would move the latency medians with the seed.
    std::vector<size_t> hotOrder(hits);
    for (size_t i = 0; i < hits; ++i)
        hotOrder[i] = i % hot;
    for (size_t i = hits; i > 1; --i)
        std::swap(hotOrder[i - 1],
                  hotOrder[rng.nextBounded(static_cast<uint32_t>(i))]);
    size_t nthHit = 0, nthMiss = 0, nthGenerate = 0;
    for (size_t i = 0; i < count; ++i) {
        double due = static_cast<double>(i) / kServeRate;
        if (kinds[i] == RequestKind::Hit) {
            in.schedule.push_back({due, RequestKind::Hit,
                                   in.warmup[hotOrder[nthHit++]]});
            continue;
        }
        // Misses and generate requests each cycle through the
        // families, so every seed carries the same number of each.
        size_t &nth = kinds[i] == RequestKind::Miss ? nthMiss : nthGenerate;
        KernelFamily family = kFamilies[nth++ % 4];
        ScenarioSpec spec = freshSpec(family, (seed << 20) + i);
        if (kinds[i] == RequestKind::Miss) {
            auto gen = elag::workloads::synthetic::generateScenario(spec);
            Program program{gen.name, gen.source, {}};
            in.schedule.push_back(
                {due, RequestKind::Miss,
                 simulateRequest(program, in.machines[0],
                                 kFreshMaxInst)});
            // The first dozen fresh programs also feed the in-process
            // layer probes of the traced run.
            if (in.specs.size() < 12) {
                in.specs.push_back(spec);
                in.programs.push_back(program);
                in.ops.push_back(
                    {in.programs.size() - 1, 0, kFreshMaxInst});
            }
        } else {
            in.schedule.push_back(
                {due, RequestKind::Generate, generateRequest(spec)});
        }
    }
    return in;
}

} // namespace

elag::pipeline::MachineConfig
MachineSpec::config() const
{
    Request r;
    r.machine = machine;
    r.table = table;
    r.selection = selection;
    return elag::serve::Router::machineFor(r);
}

std::vector<size_t>
Inputs::passOrder(uint64_t pass) const
{
    std::vector<size_t> order(ops.size());
    std::iota(order.begin(), order.end(), 0);
    Pcg32 rng(seed, 0x0bd0 + pass);
    for (size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1],
                  order[rng.nextBounded(static_cast<uint32_t>(i))]);
    return order;
}

Inputs
makeInputs(const std::string &workload, uint64_t seed, double seconds)
{
    Inputs in;
    if (workload == "paper-suite")
        in = paperSuite();
    else if (workload == "table-sweep")
        in = tableSweep(seed);
    else if (workload == "serve-mixed")
        in = serveMixed(seed, seconds);
    else
        throw std::invalid_argument("unknown workload '" + workload +
                                    "'");
    in.workload = workload;
    in.seed = seed;
    if (in.schedule.empty()) {
        Pcg32 rng(seed, 0x9b0be);
        addProbeSchedule(in, rng);
    }
    return in;
}

std::string
describe(const Inputs &in)
{
    using elag::workloads::synthetic::sourceHash;
    std::ostringstream out;
    out << "workload " << in.workload << " seed " << in.seed << "\n";
    for (const Program &p : in.programs)
        out << "program " << p.label << " " << sourceHash(p.source)
            << " outputs " << p.expectedOutput.size() << "\n";
    for (const MachineSpec &m : in.machines)
        out << "machine " << m.label << " " << m.machine << " "
            << m.table << " " << m.selection << "\n";
    for (const auto &spec : in.specs)
        out << "spec " << spec.toJson() << "\n";
    out << "order";
    for (size_t i : in.passOrder(0))
        out << " " << i;
    out << "\n";
    for (const Request &r : in.warmup)
        out << "warmup " << r.file << " " << r.maxInst << "\n";
    for (const ScheduledRequest &s : in.schedule) {
        const Request &r = s.request;
        out << "request " << s.dueS << " " << static_cast<int>(s.kind)
            << " " << r.verb << " " << r.file << " " << r.machine << " "
            << r.table << " " << r.selection << " " << r.maxInst << " "
            << sourceHash(r.source) << " " << sourceHash(r.spec)
            << "\n";
    }
    return out.str();
}

} // namespace perfbench
